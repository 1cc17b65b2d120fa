package tech

import (
	"math"
	"testing"

	"matscale/internal/model"
)

func TestCannonMoreProcessors31x(t *testing.T) {
	// Section 8: "in case of Cannon's algorithm, if the number of
	// processors is increased 10 times, one would have to solve a
	// problem 31.6 times bigger" — the p^1.5 isoefficiency.
	pr := model.Params{Ts: 0.5, Tw: 3}
	f, _, err := Factors(pr, model.CannonTo, 1<<14, 0.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-math.Pow(10, 1.5)) > 0.5 {
		t.Fatalf("more-processors factor = %v, want ≈31.6", f)
	}
}

func TestCannonFasterProcessors1000x(t *testing.T) {
	// Section 8: "for small values of ts ... if p is kept the same and
	// 10 times faster processors are used, then one would need to solve
	// a 1000 times larger problem" — the tw³ sensitivity.
	pr := model.Params{Ts: 0.001, Tw: 3}
	_, f, err := Factors(pr, model.CannonTo, 1<<14, 0.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-1000) > 20 {
		t.Fatalf("faster-processors factor = %v, want ≈1000", f)
	}
}

func TestMoreProcessorsBeatsFasterForCannonSIMD(t *testing.T) {
	// The headline claim: under these conditions a machine with k-fold
	// as many processors beats one with k-fold faster processors.
	pr := model.Params{Ts: 0.5, Tw: 3}
	more, faster, err := Factors(pr, model.CannonTo, 1<<14, 0.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if more >= faster {
		t.Fatalf("more processors (%v) should need less problem growth than faster processors (%v)", more, faster)
	}
}

func TestFasterProcessorsCubeLawAcrossK(t *testing.T) {
	// The tw-dominated isoefficiency scales as tw³: doubling speed
	// costs 8×, quadrupling costs 64×.
	pr := model.Params{Ts: 0.001, Tw: 2}
	for _, k := range []float64{2, 4} {
		_, f, err := Factors(pr, model.CannonTo, 1<<12, 0.6, k)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(f-k*k*k) > 0.05*k*k*k {
			t.Fatalf("k=%v: factor = %v, want ≈%v", k, f, k*k*k)
		}
	}
}

func TestCompareCoversAllAlgorithms(t *testing.T) {
	pr := model.Params{Ts: 0.5, Tw: 3}
	// Operate below the DNS efficiency ceiling even after the k-fold
	// speedup scales it down (ceiling 1/(1+2(ts+tw)) → 1/15 for k=2).
	res, err := Compare(pr, 1<<12, 0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("got %d tradeoffs", len(res))
	}
	for _, tr := range res {
		if tr.MoreProcsFactor <= 1 || tr.FasterProcsFactor <= 1 {
			t.Errorf("%s: degenerate factors %+v", tr.Algorithm, tr)
		}
		if tr.MoreProcessorsBetter != (tr.MoreProcsFactor < tr.FasterProcsFactor) {
			t.Errorf("%s: inconsistent flag", tr.Algorithm)
		}
	}
}

func TestCompareFailsAboveDNSCeiling(t *testing.T) {
	pr := model.Params{Ts: 150, Tw: 3}
	// E=0.5 is far above the DNS ceiling 1/(1+2·153); Compare must
	// surface the failure rather than fabricate a number.
	if _, err := Compare(pr, 1<<12, 0.5, 10); err == nil {
		t.Fatal("expected error above DNS efficiency ceiling")
	}
}

func TestWAtEfficiencyMatchesDefinition(t *testing.T) {
	pr := model.Params{Ts: 10, Tw: 3}
	w, err := WAtEfficiency(pr, model.GKTo, 1<<9, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	n := math.Cbrt(w)
	e := model.Efficiency(w, model.GKTo(pr, n, 1<<9))
	if math.Abs(e-0.7) > 1e-9 {
		t.Fatalf("efficiency at solved W = %v, want 0.7", e)
	}
}
