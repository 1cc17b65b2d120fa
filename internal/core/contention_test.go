package core

import (
	"testing"

	"matscale/internal/machine"
	"matscale/internal/matrix"
	"matscale/internal/simulator"
)

// The paper's performance model assumes contention-free communication.
// That assumption is structural, not accidental: every algorithm it
// analyzes routes its messages on pairwise link-disjoint paths within
// each phase. Running with link-level contention tracking must
// therefore change no measured time.
func TestAlgorithmsAreContentionFree(t *testing.T) {
	type tc struct {
		name string
		alg  Algorithm
		mk   func() *machine.Machine
		n    int
	}
	// Every row on its standard test cell, Cannon and FoxAsync on a
	// wraparound mesh too (where FoxAsync's row relay and B shift share
	// links), and DNS on its coarse block grid.
	cases := []tc{
		{"Cannon/mesh", Cannon, func() *machine.Machine { return testMesh(16) }, 16},
		{"FoxAsync/mesh", FoxAsync, func() *machine.Machine { return testMesh(16) }, 16},
		{"DNS/grid", func(m *machine.Machine, a, b *matrix.Dense) (*Result, error) {
			return DNSWithGrid(m, a, b, 4)
		}, func() *machine.Machine { return testHypercube(32) }, 16},
	}
	for _, f := range Formulations {
		c := f.Checks[0]
		cases = append(cases, tc{f.Name, f.Run, func() *machine.Machine { return c.Machine(c.P, testParams.Ts, testParams.Tw) }, c.N})
	}
	for _, c := range cases {
		a, b := matrix.RandomInts(c.n, c.n, 71), matrix.RandomInts(c.n, c.n, 72)
		plain, err := c.alg(c.mk(), a, b)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		mTracked := c.mk()
		mTracked.TrackContention = true
		tracked, err := c.alg(mTracked, a, b)
		if err != nil {
			t.Fatalf("%s tracked: %v", c.name, err)
		}
		if tracked.Sim.Tp != plain.Sim.Tp {
			t.Errorf("%s: contention tracking changed Tp %v -> %v", c.name, plain.Sim.Tp, tracked.Sim.Tp)
		}
		if tracked.Sim.ContentionWait != 0 {
			t.Errorf("%s: nonzero contention wait %v — routes are not link-disjoint", c.name, tracked.Sim.ContentionWait)
		}
		if matrix.MaxAbsDiff(tracked.C, plain.C) != 0 {
			t.Errorf("%s: tracking changed the product", c.name)
		}
	}
}

// Sanity: a program that genuinely collides on a link does incur
// waiting time under tracking, so the zero-wait results above are
// meaningful.
func TestContentionDetectedWhenPresent(t *testing.T) {
	// Rank 1 streams a large message over link 1->3 while rank 0's
	// small message routes 0->1->3 and must queue behind it on the
	// shared second hop (or vice versa, depending on claim order —
	// either way someone waits).
	prog := func(p *simulator.Proc) {
		switch p.Rank() {
		case 0:
			p.Send(3, 0, []float64{1})
		case 1:
			p.Send(3, 1, make([]float64, 100))
		case 3:
			p.Recv(0, 0)
			p.Recv(1, 1)
		}
	}
	m := machine.Hypercube(4, 10, 1)
	m.TrackContention = true
	res, err := simulator.Run(m, prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.ContentionWait <= 0 {
		t.Fatalf("expected contention wait, got %v", res.ContentionWait)
	}
	// And the same program without tracking has none.
	m2 := machine.Hypercube(4, 10, 1)
	res2, err := simulator.Run(m2, prog)
	if err != nil {
		t.Fatal(err)
	}
	if res2.ContentionWait != 0 {
		t.Fatalf("untracked run reported contention %v", res2.ContentionWait)
	}
}
