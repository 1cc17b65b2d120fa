package iso

import (
	"math"
	"testing"
	"testing/quick"

	"matscale/internal/model"
)

var pr = model.Params{Ts: 150, Tw: 3}

func TestK(t *testing.T) {
	if k := K(0.5); k != 1 {
		t.Fatalf("K(0.5) = %v, want 1", k)
	}
	if k := K(0.9); math.Abs(k-9) > 1e-12 {
		t.Fatalf("K(0.9) = %v, want 9", k)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("K(1) should panic")
		}
	}()
	K(1)
}

func TestSolveWIsFixedPoint(t *testing.T) {
	to := func(n, p float64) float64 { return model.CannonTo(pr, n, p) }
	for _, p := range []float64{4, 64, 1024, 1 << 20} {
		for _, e := range []float64{0.3, 0.5, 0.8, 0.95} {
			w, ok := SolveW(to, p, e)
			if !ok {
				t.Fatalf("p=%v e=%v: no convergence", p, e)
			}
			n := math.Cbrt(w)
			if rel := math.Abs(w-K(e)*to(n, p)) / w; rel > 1e-10 {
				t.Fatalf("p=%v e=%v: fixed point violated by %v", p, e, rel)
			}
			// The efficiency at the solved size must equal the target.
			gotE := model.Efficiency(w, to(n, p))
			if math.Abs(gotE-e) > 1e-10 {
				t.Fatalf("p=%v: efficiency at solved W = %v, want %v", p, gotE, e)
			}
		}
	}
}

func TestSolveWUnscalableFails(t *testing.T) {
	// An overhead growing like W² can hold no fixed efficiency.
	to := func(n, p float64) float64 { return n * n * n * n * n * n }
	if _, ok := SolveW(to, 16, 0.5); ok {
		t.Fatal("expected failure for To ~ W²")
	}
}

func TestCannonIsoefficiencyExponent(t *testing.T) {
	// Table 1: Cannon's isoefficiency is O(p^1.5).
	w := func(p float64) float64 {
		v, ok := SolveW(func(n, q float64) float64 { return model.CannonTo(pr, n, q) }, p, 0.5)
		if !ok {
			t.Fatal("no convergence")
		}
		return v
	}
	x := GrowthExponent(w, 1<<10, 1<<30, 40)
	if math.Abs(x-1.5) > 0.02 {
		t.Fatalf("Cannon isoefficiency exponent = %v, want ≈1.5", x)
	}
}

func TestGKIsoefficiencyExponent(t *testing.T) {
	// Table 1: GK is O(p·(log p)³) — exponent slightly above 1.
	w := func(p float64) float64 {
		v, ok := SolveW(func(n, q float64) float64 { return model.GKTo(pr, n, q) }, p, 0.5)
		if !ok {
			t.Fatal("no convergence")
		}
		return v
	}
	x := GrowthExponent(w, 1<<10, 1<<30, 40)
	if x < 1.0 || x > 1.4 {
		t.Fatalf("GK isoefficiency exponent = %v, want in (1, 1.4)", x)
	}
	// And the polylog is real: W(p)/p must keep growing.
	if w(1<<30)/(1<<30) <= w(1<<20)/(1<<20) {
		t.Fatal("GK W/p is not growing — polylog factor missing")
	}
}

func TestBerntsenConcurrencyDominates(t *testing.T) {
	// Berntsen's communication isoefficiency is only O(p^(4/3)), but the
	// p ≤ n^(3/2) concurrency limit forces W ∝ p² (Section 5.2).
	maxProcs := func(n float64) float64 { return math.Pow(n, 1.5) }
	to := func(n, p float64) float64 { return model.BerntsenTo(pr, n, p) }
	w := func(p float64) float64 {
		v, ok := OverallW(to, maxProcs, p, 0.5)
		if !ok {
			t.Fatal("no convergence")
		}
		return v
	}
	// Fit in the range where the concurrency term dominates the
	// communication term (it takes over around p ≈ 2^18 for ts=150).
	x := GrowthExponent(w, 1<<22, 1<<40, 40)
	if math.Abs(x-2.0) > 0.03 {
		t.Fatalf("Berntsen overall isoefficiency exponent = %v, want ≈2", x)
	}
	// Communication alone would be ≈4/3.
	wComm := func(p float64) float64 {
		v, _ := SolveW(to, p, 0.5)
		return v
	}
	xc := GrowthExponent(wComm, 1<<10, 1<<30, 40)
	if math.Abs(xc-4.0/3.0) > 0.05 {
		t.Fatalf("Berntsen communication isoefficiency exponent = %v, want ≈4/3", xc)
	}
}

func TestDNSIsoefficiencyExponent(t *testing.T) {
	// Table 1: DNS is O(p·log p) once E is below its ceiling.
	eMax := MaxEfficiencyDNS(pr.Ts, pr.Tw)
	e := eMax / 2
	w := func(p float64) float64 {
		v, ok := SolveW(func(n, q float64) float64 { return model.DNSTo(pr, n, q) }, p, e)
		if !ok {
			t.Fatal("no convergence")
		}
		return v
	}
	x := GrowthExponent(w, 1<<10, 1<<30, 40)
	if x < 1.0 || x > 1.15 {
		t.Fatalf("DNS isoefficiency exponent = %v, want ≈1 (plus log)", x)
	}
}

func TestDNSEfficiencyCeiling(t *testing.T) {
	// Above the ceiling 1/(1+2(ts+tw)) the DNS fixed point must diverge.
	eMax := MaxEfficiencyDNS(pr.Ts, pr.Tw)
	if eMax >= 1 || eMax <= 0 {
		t.Fatalf("ceiling = %v", eMax)
	}
	if _, ok := SolveW(func(n, q float64) float64 { return model.DNSTo(pr, n, q) }, 1<<12, eMax*1.05); ok {
		t.Fatal("fixed point converged above the DNS efficiency ceiling")
	}
	if _, ok := SolveW(func(n, q float64) float64 { return model.DNSTo(pr, n, q) }, 1<<12, eMax*0.9); !ok {
		t.Fatal("fixed point failed below the DNS efficiency ceiling")
	}
	// Section 10: on a SIMD-like machine the ceiling is high.
	if e := MaxEfficiencyDNS(0.5, 3); e > 0.125+1e-9 || e < 0.12 {
		t.Fatalf("SIMD DNS ceiling = %v", e)
	}
}

func TestConcurrencyW(t *testing.T) {
	// Cannon: p ≤ n² → n = √p → W = p^1.5.
	maxProcs := func(n float64) float64 { return n * n }
	for _, p := range []float64{16, 1024, 1 << 20} {
		w := ConcurrencyW(maxProcs, p)
		if rel := math.Abs(w-math.Pow(p, 1.5)) / math.Pow(p, 1.5); rel > 1e-9 {
			t.Fatalf("p=%v: concurrency W = %v, want p^1.5 = %v", p, w, math.Pow(p, 1.5))
		}
	}
}

func TestGrowthExponentOnKnownPower(t *testing.T) {
	x := GrowthExponent(func(p float64) float64 { return 7 * math.Pow(p, 2.25) }, 10, 1e6, 20)
	if math.Abs(x-2.25) > 1e-9 {
		t.Fatalf("exponent = %v, want 2.25", x)
	}
}

func TestAllPortGranularity(t *testing.T) {
	// Section 7: the message-size floor makes all-port *worse* than the
	// one-port isoefficiency for the simple algorithm: p^1.5·(log p)³/8
	// vs p^1.5 — and for GK p(log p)³ equals its one-port bound.
	p := float64(1 << 16)
	l := math.Log2(p)
	if got, want := AllPortGranularityW("simple", p), math.Pow(p, 1.5)*l*l*l/8; got != want {
		t.Fatalf("simple granularity = %v, want %v", got, want)
	}
	if got, want := AllPortGranularityW("gk", p), p*l*l*l; got != want {
		t.Fatalf("gk granularity = %v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown algorithm should panic")
		}
	}()
	AllPortGranularityW("nope", p)
}

// Property: the solved W is increasing in both p and target efficiency.
func TestQuickSolveWMonotone(t *testing.T) {
	to := func(n, p float64) float64 { return model.GKTo(pr, n, p) }
	f := func(pExp uint8, eStep uint8) bool {
		p := math.Pow(2, 4+float64(pExp%20))
		e := 0.2 + 0.6*float64(eStep%10)/10
		w1, ok1 := SolveW(to, p, e)
		w2, ok2 := SolveW(to, 2*p, e)
		w3, ok3 := SolveW(to, p, e+0.05)
		return ok1 && ok2 && ok3 && w2 > w1 && w3 > w1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// memoryConstrainedEfficiency is the efficiency delivered when the
// problem grows as fast as a fixed per-processor memory allows
// (Worley-style memory-constrained scaling): n solves
// memPerProc(n, p) = capacity by bisection.
func memoryConstrainedEfficiency(to, memPerProc func(n, p float64) float64, p, capacity float64) float64 {
	lo, hi := 1.0, 2.0
	for memPerProc(hi, p) < capacity {
		hi *= 2
	}
	for i := 0; i < 200 && hi-lo > 1e-12*hi; i++ {
		if mid := (lo + hi) / 2; memPerProc(mid, p) < capacity {
			lo = mid
		} else {
			hi = mid
		}
	}
	n := (lo + hi) / 2
	return n * n * n / (n*n*n + to(n, p))
}

func TestMemoryConstrainedScalingSeparatesAlgorithms(t *testing.T) {
	// With fixed memory per processor, Cannon's efficiency holds
	// roughly steady as p grows (memory-constrained W ~ p^1.5 matches
	// its isoefficiency), while the memory-hungry simple algorithm's
	// efficiency decays (it can only afford W ~ p^(3/4)).
	const capacity = 1 << 16
	toCannon := func(n, p float64) float64 { return model.CannonTo(pr, n, p) }
	toSimple := func(n, p float64) float64 { return model.SimpleTo(pr, n, p) }

	eC1 := memoryConstrainedEfficiency(toCannon, model.CannonMemoryPerProc, 1<<8, capacity)
	eC2 := memoryConstrainedEfficiency(toCannon, model.CannonMemoryPerProc, 1<<26, capacity)
	if eC2 < 0.8*eC1 {
		t.Fatalf("Cannon memory-constrained efficiency collapsed: %v -> %v", eC1, eC2)
	}

	eS1 := memoryConstrainedEfficiency(toSimple, model.SimpleMemoryPerProc, 1<<8, capacity)
	eS2 := memoryConstrainedEfficiency(toSimple, model.SimpleMemoryPerProc, 1<<26, capacity)
	if eS2 > 0.35*eS1 {
		t.Fatalf("Simple memory-constrained efficiency did not decay: %v -> %v", eS1, eS2)
	}
}

func TestImprovedGKIsoefficiencyExponent(t *testing.T) {
	// Table 1: the GK algorithm with the Johnsson-Ho broadcast has
	// isoefficiency O(p·(log p)^1.5) — asymptotically below plain GK's
	// O(p·(log p)³).
	wImproved := func(p float64) float64 {
		v, ok := SolveW(func(n, q float64) float64 { return model.ImprovedGKTo(pr, n, q) }, p, 0.5)
		if !ok {
			t.Fatal("no convergence")
		}
		return v
	}
	wPlain := func(p float64) float64 {
		v, _ := SolveW(func(n, q float64) float64 { return model.GKTo(pr, n, q) }, p, 0.5)
		return v
	}
	x := GrowthExponent(wImproved, 1<<10, 1<<30, 40)
	if x < 1.0 || x > 1.3 {
		t.Fatalf("improved GK isoefficiency exponent = %v, want ≈1+polylog", x)
	}
	// At large p the improved scheme needs a smaller problem than the
	// naive one for the same efficiency.
	if wImproved(1<<30) >= wPlain(1<<30) {
		t.Fatalf("improved GK W %v not below plain GK W %v at p=2^30", wImproved(1<<30), wPlain(1<<30))
	}
}
