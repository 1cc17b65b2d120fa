package main

import (
	"math/rand/v2"
	"strconv"
	"strings"
	"sync"
	"time"

	"matscale"
	"matscale/internal/sweep"
)

// paperGridSpec is the paper's Section 9 CM-5 validation grid (Figures
// 4 and 5): 24 cells, 8 of them structural rejections (Cannon needs a
// square p, GK a cube).
func paperGridSpec() *sweep.Spec {
	return &sweep.Spec{
		Algorithms: []string{"cannon", "gk"},
		Machines:   []string{"cm5"},
		Ps:         []int{64, 484, 512},
		Ns:         []int{88, 176, 264, 352},
		Seed:       1,
	}
}

// paperGrid loops matscale.Sweep over the paper grid with two workers on
// the default (goroutines) engine. The seed permutes the spec's lists;
// the sweep sorts its cells, so the CSV, and its golden digest, do not
// depend on it.
type paperGrid struct {
	spec *sweep.Spec
}

func (g *paperGrid) clients() int { return 1 }
func (g *paperGrid) stride() int  { return 1 }

func (g *paperGrid) setup(seed uint64) error {
	g.spec = paperGridSpec()
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	for _, l := range [][]int{g.spec.Ps, g.spec.Ns} {
		r.Shuffle(len(l), func(i, j int) { l[i], l[j] = l[j], l[i] })
	}
	a := g.spec.Algorithms
	r.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
	_, err := g.op(0, nil, 0) // warm-up and golden check
	return err
}

func (g *paperGrid) op(_ int, tr *tracer, opID int64) (time.Duration, error) {
	var res *sweep.Result
	var err error
	var lat time.Duration
	if tr == nil {
		t0 := time.Now()
		res, err = matscale.Sweep(g.spec, matscale.WithWorkers(2))
		lat = time.Since(t0)
	} else {
		// Traced: the same sweep through sweep.Run, with a cell cache
		// that always misses and records each cell as a span.
		root := tr.begin("op paper-grid", "", 0, opID, 0)
		t0 := time.Now()
		res, _, err = tracedSweep(tr, root, opID, g.spec, sweep.Options{Workers: 2})
		lat = time.Since(t0)
		tr.end(root)
	}
	if err != nil {
		return lat, err
	}
	return lat, checkDigest("paper-grid CSV", []byte(res.CSV()), goldenPaperGrid)
}

func (g *paperGrid) verify() error { return nil }
func (g *paperGrid) close()        { g.spec = nil }

// tracedSweep runs sweep.Run under a span named for its worker count,
// with every executed cell a child span, and returns the sweep span's
// ID.
func tracedSweep(tr *tracer, parent, opID int64, spec *sweep.Spec, opt sweep.Options) (*sweep.Result, int64, error) {
	cc := &spanCache{tr: tr, op: opID, open: map[string]int64{}, lane: map[string]int{}, lanes: make([]bool, max(opt.Workers, 1))}
	opt.Cache = cc
	cc.parent = tr.begin("sweep.Run", "workers="+strconv.Itoa(opt.Workers), parent, opID, 0)
	res, err := sweep.Run(spec, opt)
	tr.end(cc.parent)
	return res, cc.parent, err
}

// spanCache is a sweep.CellCache that never hits: Get opens a span for
// the cell about to run and Put closes it, so cells inside sweep.Run
// are timed from the benchmark's side of the public API. Each open
// cell holds a display lane, one per worker.
type spanCache struct {
	tr     *tracer
	parent int64
	op     int64

	mu    sync.Mutex
	open  map[string]int64
	lane  map[string]int
	lanes []bool
}

func (c *spanCache) Get(key string) (sweep.CellResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lane := 0
	for i, busy := range c.lanes {
		if !busy {
			lane = i
			break
		}
	}
	c.lanes[lane] = true
	c.lane[key] = lane
	c.open[key] = c.tr.begin("sweep.cell", cellLabel(key), c.parent, c.op, lane+1)
	return sweep.CellResult{}, false
}

func (c *spanCache) Put(key string, _ sweep.CellResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tr.end(c.open[key])
	c.lanes[c.lane[key]] = false
	delete(c.open, key)
	delete(c.lane, key)
}

// cellLabel shortens a canonical cell key ("cell|v1|gk|cm5|ts=…|tw=…|
// p=64|n=88|f=|seed=1|backend=goroutines") to "gk cm5 p=64 n=88".
func cellLabel(key string) string {
	f := strings.Split(key, "|")
	if len(f) < 8 {
		return key
	}
	return strings.Join([]string{f[2], f[3], f[6], f[7]}, " ")
}
