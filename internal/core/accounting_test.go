package core

import (
	"math"
	"testing"

	"matscale/internal/matrix"
	"matscale/internal/model"
)

// Exact message and word counts for Cannon's algorithm: every
// processor sends 2 alignment messages (free), 2 rolls per step for √p
// steps, and one gather message (free) except rank 0.
func TestCannonMessageAccounting(t *testing.T) {
	n, p, q := 16, 16, 4
	bs := n / q
	res := runCase(t, "Cannon", Cannon, testHypercube(p), n)
	wantMsgs := 2*p + 2*p*q + (p - 1)
	if res.Sim.Messages != wantMsgs {
		t.Fatalf("messages = %d, want %d", res.Sim.Messages, wantMsgs)
	}
	wantWords := (2*p + 2*p*q + (p - 1)) * bs * bs
	if res.Sim.Words != wantWords {
		t.Fatalf("words = %d, want %d", res.Sim.Words, wantWords)
	}
}

// TotalComm must equal the aggregate of the per-processor charged
// communication: for Cannon, 2√p·(ts + tw·n²/p) on each of p
// processors (the alignment and the verification gather are free).
func TestCannonTotalCommMatchesModel(t *testing.T) {
	n, p := 16, 16
	res := runCase(t, "Cannon", Cannon, testHypercube(p), n)
	q := 4
	c := testParams.Ts + testParams.Tw*float64(n*n/p)
	want := float64(p) * 2 * float64(q) * c
	if math.Abs(res.Sim.TotalComm-want) > 1e-9*want {
		t.Fatalf("TotalComm = %v, want %v", res.Sim.TotalComm, want)
	}
}

// standardCell runs row f on its standard test cell, Checks[0], with
// the test cost constants.
func standardCell(t *testing.T, f Formulation) *Result {
	t.Helper()
	c := f.Checks[0]
	return runCase(t, f.Name, f.Run, c.Machine(c.P, testParams.Ts, testParams.Tw), c.N)
}

// TotalCompute must equal W = n³ exactly for every algorithm: the
// parallel formulations perform no redundant arithmetic (under the
// paper's unit-cost convention where reduction additions are pre-paid).
func TestTotalComputeEqualsW(t *testing.T) {
	for _, f := range Formulations {
		res := standardCell(t, f)
		if w := res.W(); res.Sim.TotalCompute != w {
			t.Errorf("%s: TotalCompute = %v, want W = %v", f.Name, res.Sim.TotalCompute, w)
		}
	}
}

// The overhead decomposition To = TotalComm + IdleTime holds for every
// algorithm (with W = TotalCompute = n³).
func TestOverheadDecomposesIntoCommAndIdle(t *testing.T) {
	for _, f := range Formulations {
		res := standardCell(t, f)
		to := res.Overhead()
		sum := res.Sim.TotalComm + res.Sim.IdleTime()
		if math.Abs(to-sum) > 1e-6*math.Max(1, to) {
			t.Errorf("%s: To = %v but comm+idle = %v", f.Name, to, sum)
		}
	}
}

// Cannon is perfectly balanced: all processors finish at the same
// virtual time, so overhead is pure communication with zero idle.
func TestCannonHasNoIdleTime(t *testing.T) {
	res := runCase(t, "Cannon", Cannon, testHypercube(16), 16)
	if idle := res.Sim.IdleTime(); math.Abs(idle) > 1e-9 {
		t.Fatalf("Cannon idle time = %v, want 0", idle)
	}
	for i, clk := range res.Sim.ProcClocks {
		if clk != res.Sim.Tp {
			t.Fatalf("processor %d finished at %v, Tp = %v", i, clk, res.Sim.Tp)
		}
	}
}

// The GK algorithm moves strictly fewer words than the simple
// algorithm at the same configuration (its sub-blocks are smaller) —
// the memory/communication tradeoff at the message level.
func TestWordVolumesOrdering(t *testing.T) {
	n, p := 16, 64
	gk := runCase(t, "GK", GK, testHypercube(p), n)
	simple := runCase(t, "Simple", Simple, testHypercube(p), n)
	if gk.Sim.Words >= simple.Sim.Words {
		t.Fatalf("GK moved %d words, Simple %d — expected GK < Simple", gk.Sim.Words, simple.Sim.Words)
	}
}

// Determinism at the algorithm level: repeated runs produce identical
// timing and identical products.
func TestAlgorithmDeterminism(t *testing.T) {
	a := matrix.RandomInts(16, 16, 99)
	b := matrix.RandomInts(16, 16, 100)
	first, err := GK(testHypercube(64), a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		res, err := GK(testHypercube(64), a, b)
		if err != nil {
			t.Fatal(err)
		}
		if res.Sim.Tp != first.Sim.Tp || res.Sim.Messages != first.Sim.Messages {
			t.Fatalf("run %d: Tp/messages differ: %v/%d vs %v/%d",
				i, res.Sim.Tp, res.Sim.Messages, first.Sim.Tp, first.Sim.Messages)
		}
		if matrix.MaxAbsDiff(res.C, first.C) != 0 {
			t.Fatalf("run %d: product differs", i)
		}
	}
}

// Large-scale smoke: the full GK pipeline at 4096 processors stays
// correct, exact and fast enough to run in CI.
func TestLargeScaleGKSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale smoke skipped in -short mode")
	}
	n, p := 64, 4096
	res := runCase(t, "GK", GK, testHypercube(p), n)
	wantTp(t, "GK", res, model.ExactGKTp(testParams, n, p))
}

// Large-scale Cannon: 1024 processors, every clock identical.
func TestLargeScaleCannonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale smoke skipped in -short mode")
	}
	n, p := 64, 1024
	res := runCase(t, "Cannon", Cannon, testHypercube(p), n)
	wantTp(t, "Cannon", res, model.ExactCannonTp(testParams, n, p))
	for _, clk := range res.Sim.ProcClocks {
		if clk != res.Sim.Tp {
			t.Fatal("Cannon clocks diverged at scale")
		}
	}
}
