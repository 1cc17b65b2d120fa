package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"matscale"
	"matscale/internal/core"
	"matscale/internal/machine"
	"matscale/internal/matrix"
	"matscale/internal/server"
	"matscale/internal/sweep"
)

// The layer probes run in every traced run, on fixed inputs, so their
// counts repeat exactly from run to run. Each time is the median of
// probeReps repetitions.
const (
	probeReps     = 3
	probeServeOps = 32 // requests per client in the server probe
	coldTs        = 5.5
)

// timed runs fn inside a span and returns its wall time.
func timed(tr *tracer, name, detail string, parent int64, fn func()) time.Duration {
	id := tr.begin(name, detail, parent, 0, 0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	tr.end(id)
	return d
}

// layerSuite measures every per-layer metric except the runtime and
// trace groups, which come from the workload's own ops.
func layerSuite(tr *tracer) (map[string]float64, error) {
	m := map[string]float64{}
	for _, probe := range []func(*tracer, map[string]float64) error{
		probeKernel, probeCells, probeServeCells, probeSweep, probeServer,
	} {
		if err := probe(tr, m); err != nil {
			return nil, err
		}
	}
	// Derived shares: the kernel's part of the paper-grid cells, and the
	// simulator's host cost per simulated message once that is removed.
	m["matrix.share"] = m["matrix.est_ms"] / m["simulator.cell_ms"]
	m["simulator.host_us_per_msg"] = 1e3 * (m["simulator.cell_ms"] - m["matrix.est_ms"]) / m["simulator.msgs_per_op"]
	return m, nil
}

// probeKernel times the host kernel on the host-mul shape: parallel,
// serial, and through matscale.HostMul (whose extra cost is the shm
// layer's).
func probeKernel(tr *tracer, m map[string]float64) error {
	root := tr.begin("probe matrix+shm", "", 0, 0, 0)
	defer tr.end(root)
	a, b := matrix.Random(hostN, hostN, 1), matrix.Random(hostN, hostN, 2)
	c := matrix.New(hostN, hostN)
	var par, ser, host []time.Duration
	for r := 0; r < probeReps; r++ {
		clear(c.Data)
		par = append(par, timed(tr, "matrix.MulAddIntoParallel", "workers=0", root, func() { matrix.MulAddIntoParallel(c, a, b, 0) }))
		if err := checkDigest("matrix.MulAddIntoParallel", matrixBytes(c), goldenHostMul); err != nil {
			return err
		}
		clear(c.Data)
		ser = append(ser, timed(tr, "matrix.MulAddInto", "", root, func() { matrix.MulAddInto(c, a, b) }))
		var h *matrix.Dense
		var err error
		host = append(host, timed(tr, "matscale.HostMul", "", root, func() { h, err = matscale.HostMul(a, b) }))
		if err != nil {
			return err
		}
		if !sameBits(c, h) {
			return fmt.Errorf("matrix: serial and HostMul products differ")
		}
	}
	flops := 2 * math.Pow(hostN, 3)
	m["matrix.gflops"] = flops / 1e6 / medianMS(par)
	m["matrix.serial_gflops"] = flops / 1e6 / medianMS(ser)
	m["matrix.parallel_speedup"] = medianMS(ser) / medianMS(par)
	m["matrix.flops_per_op"] = flops
	m["matrix.bytes_per_op"] = 3 * 8 * hostN * hostN
	m["shm.overhead_ms"] = medianMS(host) - medianMS(par)
	return nil
}

// gridCell is one cell of a grid probed outside the sweep layer.
type gridCell struct {
	alg  string
	p, n int
	ts   float64 // custom machine startup cost; 0 for the CM-5
}

var algorithms = map[string]core.Algorithm{"cannon": core.Cannon, "fox": core.Fox, "gk": core.GK}

// side is the processor-grid side of alg on p ranks (√p for the mesh
// formulations, ∛p for GK), and whether p has that shape.
func side(alg string, p int) (int, bool) {
	root := 2
	if alg == "gk" {
		root = 3
	}
	s := int(math.Round(math.Pow(float64(p), 1/float64(root))))
	return s, int(math.Pow(float64(s), float64(root))) == p
}

// cellsOf expands spec to its runnable cells.
func cellsOf(spec *sweep.Spec) []gridCell {
	var out []gridCell
	for _, alg := range spec.Algorithms {
		for _, p := range spec.Ps {
			for _, n := range spec.Ns {
				if _, ok := side(alg, p); ok {
					out = append(out, gridCell{alg: alg, p: p, n: n, ts: spec.Ts})
				}
			}
		}
	}
	return out
}

func (c gridCell) label() string { return fmt.Sprintf("%s p=%d n=%d", c.alg, c.p, c.n) }

func (c gridCell) machine(b machine.Backend) *machine.Machine {
	var m *machine.Machine
	if c.ts == 0 {
		m = machine.CM5(c.p)
	} else {
		m = machine.Hypercube(c.p, c.ts, 3)
	}
	m.Backend = b
	return m
}

// inputs returns the operands a sweep with seed 1 multiplies at n.
func inputs(n int) (*matrix.Dense, *matrix.Dense) {
	seed := 1 + 2*uint64(n)
	return matrix.Random(n, n, seed), matrix.Random(n, n, seed+1)
}

// runCells runs every cell directly through its core algorithm on
// backend b, each call a span, and returns the total time.
func runCells(tr *tracer, name string, parent int64, cells []gridCell, b machine.Backend) (time.Duration, error) {
	id := tr.begin(name, b.String(), parent, 0, 0)
	defer tr.end(id)
	var total time.Duration
	for _, c := range cells {
		a, bm := inputs(c.n)
		mach := c.machine(b)
		var err error
		total += timed(tr, "core."+c.alg, c.label(), id, func() { _, err = algorithms[c.alg](mach, a, bm) })
		if err != nil {
			return 0, fmt.Errorf("%s: %w", c.label(), err)
		}
	}
	return total, nil
}

// probeCells measures the paper-grid cells layer by layer: the kernel
// on each cell's per-rank block shape, the cells on the goroutine
// engine with their message counts, and the same cells on the events
// engine.
func probeCells(tr *tracer, m map[string]float64) error {
	root := tr.begin("probe paper-grid cells", "", 0, 0, 0)
	defer tr.end(root)
	cells := cellsOf(paperGridSpec())

	// Kernel: time MulAddInto on each cell's block shape and scale by
	// the number of block products the cell performs (side³ for both
	// Cannon and GK). The result is a computed estimate, not a span of
	// the cell itself.
	est, flops := 0.0, 0.0
	for _, c := range cells {
		s, _ := side(c.alg, c.p)
		bs := c.n / s
		ba, bb, bc := matrix.Random(bs, bs, 1), matrix.Random(bs, bs, 2), matrix.New(bs, bs)
		per := make([]float64, probeReps)
		for r := range per {
			per[r] = perCall(tr, root, bs, func() { matrix.MulAddInto(bc, ba, bb) })
		}
		est += math.Pow(float64(s), 3) * median(per)
		flops += 2 * math.Pow(float64(c.n), 3)
	}
	m["matrix.est_ms"] = est * 1e3
	m["matrix.block_gflops"] = flops / est / 1e9

	var sim, des []time.Duration
	for r := 0; r < probeReps; r++ {
		d, err := runCells(tr, "simulator cells", root, cells, machine.BackendGoroutines)
		if err != nil {
			return err
		}
		sim = append(sim, d)
		if d, err = runCells(tr, "des cells", root, cells, machine.BackendEvents); err != nil {
			return err
		}
		des = append(des, d)
	}
	m["simulator.cell_ms"] = medianMS(sim)
	m["des.cell_ms"] = medianMS(des)

	msgs, words := 0, 0
	for _, c := range cells {
		a, b := inputs(c.n)
		mach := c.machine(machine.BackendGoroutines)
		mach.CollectMetrics = true
		res, err := algorithms[c.alg](mach, a, b)
		if err != nil {
			return fmt.Errorf("%s: %w", c.label(), err)
		}
		for _, l := range res.Metrics.Links {
			msgs += l.Msgs
			words += l.Words
		}
	}
	m["simulator.msgs_per_op"] = float64(msgs)
	m["simulator.words_per_op"] = float64(words)
	return nil
}

// perCall returns the seconds one call of fn takes, timing enough calls
// to fill at least two milliseconds.
func perCall(tr *tracer, parent int64, bs int, fn func()) float64 {
	for calls := 1; ; calls *= 2 {
		d := timed(tr, "matrix.MulAddInto", fmt.Sprintf("%dx%d x%d", bs, bs, calls), parent, func() {
			for i := 0; i < calls; i++ {
				fn()
			}
		})
		if d >= 2*time.Millisecond {
			return d.Seconds() / float64(calls)
		}
	}
}

// probeServeCells splits a cold serve spec between the events engine's
// two tiers: Cannon runs on the systolic tier, Fox and GK on fibers.
func probeServeCells(tr *tracer, m map[string]float64) error {
	root := tr.begin("probe serve cells", "", 0, 0, 0)
	defer tr.end(root)
	var systolic, fiber []gridCell
	for _, c := range cellsOf(serveSpec(coldTs)) {
		if c.alg == "cannon" {
			systolic = append(systolic, c)
		} else {
			fiber = append(fiber, c)
		}
	}
	var sys, fib []time.Duration
	for r := 0; r < probeReps; r++ {
		d, err := runCells(tr, "des systolic cells", root, systolic, machine.BackendEvents)
		if err != nil {
			return err
		}
		sys = append(sys, d)
		if d, err = runCells(tr, "des fiber cells", root, fiber, machine.BackendEvents); err != nil {
			return err
		}
		fib = append(fib, d)
	}
	m["des.systolic_ms"] = medianMS(sys)
	m["des.fiber_ms"] = medianMS(fib)
	return nil
}

// probeSweep measures the sweep layer on the paper grid: its own time
// around the cells at one worker, how well two workers are kept busy,
// matrix generation, and a cold serve spec run directly.
func probeSweep(tr *tracer, m map[string]float64) error {
	root := tr.begin("probe sweep", "", 0, 0, 0)
	defer tr.end(root)
	spec := paperGridSpec()
	var one, two []int64
	var res *sweep.Result
	for r := 0; r < probeReps; r++ {
		for _, w := range []int{1, 2} {
			var id int64
			var err error
			res, id, err = tracedSweep(tr, root, 0, spec, sweep.Options{Workers: w})
			if err != nil {
				return err
			}
			if err := checkDigest("paper-grid CSV", []byte(res.CSV()), goldenPaperGrid); err != nil {
				return err
			}
			if w == 1 {
				one = append(one, id)
			} else {
				two = append(two, id)
			}
		}
	}
	spans := tr.snapshot()
	self := selfTimes(spans)
	byID := map[int64]span{}
	cellSum := map[int64]time.Duration{}
	longest := map[int64]time.Duration{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.Name == "sweep.cell" {
			cellSum[s.Parent] += s.dur()
			longest[s.Parent] = max(longest[s.Parent], s.dur())
		}
	}
	var selfMS, util, frac []float64
	for _, id := range one {
		selfMS = append(selfMS, toMS(self[id]))
	}
	for _, id := range two {
		wall := byID[id].dur()
		util = append(util, float64(cellSum[id])/float64(2*wall))
		frac = append(frac, float64(longest[id])/float64(wall))
	}
	m["sweep.self_ms"] = median(selfMS)
	m["sweep.worker_util"] = median(util)
	m["sweep.longest_cell_frac"] = median(frac)
	m["sweep.cells_per_op"] = float64(len(res.Cells))
	m["sweep.ran_per_op"] = float64(res.Ran)

	var gen, cold []time.Duration
	for r := 0; r < probeReps; r++ {
		gen = append(gen, timed(tr, "sweep matgen", "", root, func() {
			for _, n := range spec.Ns {
				inputs(n)
			}
		}))
		var err error
		cold = append(cold, timed(tr, "sweep.Run", "cold serve spec, events, workers=1", root, func() {
			_, err = sweep.Run(serveSpec(coldTs), sweep.Options{Workers: 1, Backend: machine.BackendEvents})
		}))
		if err != nil {
			return err
		}
	}
	m["sweep.matgen_ms"] = medianMS(gen)
	m["sweep.cold_ms"] = medianMS(cold)
	return nil
}

// probeServer drives a fresh server with both clients for a fixed
// number of seeded requests, then splits a hit's time between HTTP, the
// job queue and the sweep it runs.
func probeServer(tr *tracer, m map[string]float64) error {
	root := tr.begin("probe server", "", 0, 0, 0)
	defer tr.end(root)
	h, err := startServer()
	if err != nil {
		return err
	}
	defer h.close()
	conns := [2]*client{newClient(h.base), newClient(h.base)}
	defer func() {
		for _, c := range conns {
			c.close()
		}
	}()
	if err := primePool(conns[0]); err != nil {
		return err
	}
	before := h.srv.Stats().Cache

	type rec struct {
		hit bool
		lat time.Duration
		x   exchange
	}
	recs := make([][]rec, len(conns))
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			mx := newMix(1, c)
			for i := 0; i < probeServeOps; i++ {
				r := mx.next()
				op := tr.begin("op serve", fmt.Sprintf("ts=%g", r.ts), root, 0, c+1)
				t0 := time.Now()
				x, err := conns[c].run(serveSpec(r.ts), tr, op, 0, c+1)
				lat := time.Since(t0)
				tr.end(op)
				if err == nil {
					err = checkResult(r, x.body)
				}
				if err != nil {
					errs[c] = err
					return
				}
				recs[c] = append(recs[c], rec{hit: r.pool >= 0, lat: lat, x: x})
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	after := h.srv.Stats().Cache

	var ops, events, bytes int
	calls := map[bool][4][]time.Duration{}
	for _, rs := range recs {
		for _, r := range rs {
			ops++
			events += r.x.events
			bytes += len(r.x.body)
			cs := calls[r.hit]
			cs[0] = append(cs[0], r.x.submit)
			cs[1] = append(cs[1], r.x.wait)
			cs[2] = append(cs[2], r.x.result)
			cs[3] = append(cs[3], r.lat)
			calls[r.hit] = cs
		}
	}
	for hit, kind := range map[bool]string{true: "hit", false: "miss"} {
		m["server.submit_ms_"+kind] = medianMS(calls[hit][0])
		m["server.wait_ms_"+kind] = medianMS(calls[hit][1])
		m["server.result_ms_"+kind] = medianMS(calls[hit][2])
	}
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	m["server.cache_hit_frac"] = float64(hits) / float64(hits+misses)
	m["server.cache_lookups_per_op"] = float64(hits+misses) / float64(ops)
	m["server.sse_events_per_op"] = float64(events) / float64(ops)
	m["server.result_bytes_per_op"] = float64(bytes) / float64(ops)

	// The same hits without HTTP (Submit to Finished in process), and
	// without the server (sweep.Run against a primed cache of its own).
	lru := server.NewLRUCache(1024)
	for _, ts := range poolTs {
		if _, err := directJSON(serveSpec(ts), lru); err != nil {
			return err
		}
	}
	var inproc, direct []time.Duration
	for i := 0; i < probeServeOps; i++ {
		spec := serveSpec(poolTs[i%len(poolTs)])
		var jerr error
		inproc = append(inproc, timed(tr, "server.Submit", "to Finished", root, func() {
			var j *server.Job
			if j, jerr = h.srv.Submit(spec, -1); jerr == nil {
				<-j.Finished()
				_, jerr = j.Result()
			}
		}))
		if jerr != nil {
			return jerr
		}
		direct = append(direct, timed(tr, "sweep.Run", "pool spec, primed cache", root, func() {
			_, jerr = sweep.Run(spec, sweep.Options{Workers: 1, Backend: machine.BackendEvents, Cache: lru})
		}))
		if jerr != nil {
			return jerr
		}
	}
	m["server.http_ms"] = medianMS(calls[true][3]) - medianMS(inproc)
	m["server.queue_ms"] = medianMS(inproc) - medianMS(direct)
	return nil
}
