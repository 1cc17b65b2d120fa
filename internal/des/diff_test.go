// Package des_test holds the cross-engine differential suites: every
// algorithm formulation in internal/core runs on the goroutine engine
// and on the discrete-event engine of internal/simulator, fresh
// (diff_test.go) and suspended/resumed at every cut
// (checkpoint_test.go), and the results must be byte-identical. It has
// no non-test code; the engines themselves live in internal/simulator.
package des_test

import (
	"bytes"
	"reflect"
	"testing"

	"matscale/internal/core"
	"matscale/internal/faults"
	"matscale/internal/machine"
	"matscale/internal/matrix"
	"matscale/internal/simulator"
)

// geometry returns the machine and dimension the suites run row f of
// the formulation table on: n = 16 on a 64-processor hypercube
// (64 = 8² = 4³ satisfies every mesh, cube and power-of-8 constraint),
// the two mesh Fox variants on a 64-processor wraparound mesh, and
// plain DNS, which needs p ≥ n², at n = 8.
func geometry(f core.Formulation) (mk func() *machine.Machine, n int) {
	switch f.Name {
	case "FoxMesh", "FoxPacketPipelined":
		return mesh, 16
	case "DNS":
		return hyper, 8
	}
	return hyper, 16
}

func hyper() *machine.Machine { return machine.NCube2(64) }
func mesh() *machine.Machine  { return machine.Mesh(64, 7, 2) }

// faulted is the perturbation of the faulted half of the differential
// matrix: a fixed seed, a straggler, link jitter and message loss, so
// the comparison exercises the straggler charging, the per-link ts/tw
// perturbation and the reliable-delivery retry layer on both backends.
func faulted() *faults.Config {
	return &faults.Config{
		Seed:       42,
		Loss:       0.02,
		Stragglers: map[int]float64{3: 1.5},
		Jitter:     0.2,
	}
}

// observe turns on every observability channel so the comparison
// covers metrics and traces, not just the scalar results.
func observe(m *machine.Machine) *machine.Machine {
	m.CollectMetrics = true
	m.CollectTrace = true
	return m
}

// runBoth runs one formulation on both backends with identical
// configuration and returns the two results.
func runBoth(t *testing.T, alg core.Algorithm, mk func() *machine.Machine, n int, fc *faults.Config) (g, e *core.Result) {
	t.Helper()
	a := matrix.RandomInts(n, n, 71)
	b := matrix.RandomInts(n, n, 72)
	gm := observe(mk()).WithFaults(fc)
	gm.Backend = machine.BackendGoroutines
	g, err := alg(gm, a, b)
	if err != nil {
		t.Fatalf("goroutines backend: %v", err)
	}
	em := observe(mk()).WithFaults(fc)
	em.Backend = machine.BackendEvents
	e, err = alg(em, a, b)
	if err != nil {
		t.Fatalf("events backend: %v", err)
	}
	return g, e
}

// assertIdentical asserts the two results are byte-identical: the full
// Result structure (clocks, totals, metrics, trace), the serialized
// CSV and Chrome-trace emissions, and the computed product.
func assertIdentical(t *testing.T, g, e *core.Result) {
	t.Helper()
	if !reflect.DeepEqual(g.Sim, e.Sim) {
		t.Errorf("Result differs across backends:\n goroutines Tp=%v To-ish clocks=%v\n events     Tp=%v clocks=%v",
			g.Sim.Tp, g.Sim.ProcClocks[:min(4, len(g.Sim.ProcClocks))],
			e.Sim.Tp, e.Sim.ProcClocks[:min(4, len(e.Sim.ProcClocks))])
	}
	if matrix.MaxAbsDiff(g.C, e.C) != 0 {
		t.Error("product differs across backends")
	}
	emit := func(r *core.Result) (ranks, links, chrome, csv []byte) {
		var b1, b2, b3, b4 bytes.Buffer
		if err := r.Sim.Metrics.WriteRanksCSV(&b1); err != nil {
			t.Fatal(err)
		}
		if err := r.Sim.Metrics.WriteLinksCSV(&b2); err != nil {
			t.Fatal(err)
		}
		if err := r.Sim.Trace.WriteChromeTrace(&b3); err != nil {
			t.Fatal(err)
		}
		if err := r.Sim.Trace.WriteCSV(&b4); err != nil {
			t.Fatal(err)
		}
		return b1.Bytes(), b2.Bytes(), b3.Bytes(), b4.Bytes()
	}
	gr, gl, gc, gv := emit(g)
	er, el, ec, ev := emit(e)
	if !bytes.Equal(gr, er) {
		t.Error("ranks CSV differs across backends")
	}
	if !bytes.Equal(gl, el) {
		t.Error("links CSV differs across backends")
	}
	if !bytes.Equal(gc, ec) {
		t.Error("Chrome trace differs across backends")
	}
	if !bytes.Equal(gv, ev) {
		t.Error("trace CSV differs across backends")
	}
}

// TestBackendEquivalenceClean asserts byte-identical output across
// backends for every formulation on a clean machine.
func TestBackendEquivalenceClean(t *testing.T) {
	for _, f := range core.Formulations {
		t.Run(f.Name, func(t *testing.T) {
			mk, n := geometry(f)
			g, e := runBoth(t, f.Run, mk, n, nil)
			assertIdentical(t, g, e)
		})
	}
}

// TestBackendEquivalenceFaulted repeats the matrix under the fixed
// seed-42 fault scenario: stragglers, link jitter and lossy sends with
// retries must charge identically on both backends.
func TestBackendEquivalenceFaulted(t *testing.T) {
	for _, f := range core.Formulations {
		t.Run(f.Name, func(t *testing.T) {
			mk, n := geometry(f)
			g, e := runBoth(t, f.Run, mk, n, faulted())
			assertIdentical(t, g, e)
		})
	}
}

// TestBackendEquivalenceContention runs Cannon with link-level
// contention tracking on both backends: the shared advanceRoute
// computation must serialize identically (and find the paper's
// algorithms contention-free on both).
func TestBackendEquivalenceContention(t *testing.T) {
	mk := func() *machine.Machine {
		m := hyper()
		m.TrackContention = true
		return m
	}
	g, e := runBoth(t, core.Cannon, mk, 16, nil)
	assertIdentical(t, g, e)
	if g.Sim.ContentionWait != 0 || e.Sim.ContentionWait != 0 {
		t.Errorf("contention wait: goroutines %v, events %v, want 0", g.Sim.ContentionWait, e.Sim.ContentionWait)
	}
}

// TestEventsBackendErrors asserts the failure modes error on the
// events backend just as on the goroutine backend: deadlock, a
// panicking rank, and messages left unconsumed at exit.
func TestEventsBackendErrors(t *testing.T) {
	m := machine.Hypercube(4, 5, 1)
	if _, err := simulator.Run(m, func(p *simulator.Proc) {
		p.Recv((p.Rank()+1)%p.Machine().P(), 0) // nobody ever sends
	}); err == nil {
		t.Error("deadlock not detected on events backend")
	}
	if _, err := simulator.Run(m, func(p *simulator.Proc) {
		if p.Rank() == 2 {
			panic("boom")
		}
		p.Recv(2, 0)
	}); err == nil {
		t.Error("rank panic not reported on events backend")
	}
	if _, err := simulator.Run(m, func(p *simulator.Proc) {
		p.Send((p.Rank()+1)%p.Machine().P(), 0, []float64{1}) // never received
	}); err == nil {
		t.Error("unconsumed messages not reported on events backend")
	}
}
