package core

import (
	"math"
	"testing"
	"testing/quick"

	"matscale/internal/matrix"
	"matscale/internal/model"
)

// Property: for randomly drawn valid configurations on q×q processors,
// every row with a grid there is bit-exact against the serial product
// (integer inputs) and exactly matches its checks' timing models.
func TestQuickRandomMeshConfigs(t *testing.T) {
	quickRows(t, 25, []int{1, 2, 4, 8}, func(q int) int { return q * q })
}

// Property: random configurations on q×q×q processors keep every row
// with a grid there exact.
func TestQuickRandomCubeConfigs(t *testing.T) {
	quickRows(t, 20, []int{1, 2, 4}, func(q int) int { return q * q * q })
}

// quickRows draws a seed, a grid side q from sides and a block factor
// k ≤ 3 count times, and runs every row of the formulation table that
// has a processor grid at p = procs(q) on n = k·NStep(p), on the
// machine of each of its checks: the product must be the serial one and
// Tp the check's exact form, where it has one.
func quickRows(t *testing.T, count int, sides []int, procs func(q int) int) {
	t.Helper()
	pr := model.Params{Ts: 17, Tw: 3}
	prop := func(seed uint64, qRaw, kRaw uint8) bool {
		p := procs(sides[int(qRaw)%len(sides)])
		for _, f := range Formulations {
			if f.NStep == nil || f.NStep(p) == 0 {
				continue
			}
			n := f.NStep(p) * (int(kRaw)%3 + 1)
			a, b := matrix.RandomInts(n, n, seed), matrix.RandomInts(n, n, seed+1)
			for _, c := range f.Checks {
				res, err := f.Run(c.Machine(p, pr.Ts, pr.Tw), a, b)
				if err != nil || matrix.MaxAbsDiff(res.C, matrix.Mul(a, b)) != 0 {
					t.Logf("%s n=%d p=%d: wrong product or %v", f.Name, n, p, err)
					return false
				}
				if c.Tp != nil && math.Abs(res.Sim.Tp-c.Tp(pr, n, p)) > 1e-9 {
					t.Logf("%s %s n=%d p=%d: Tp %v want %v", f.Name, c.Eq, n, p, res.Sim.Tp, c.Tp(pr, n, p))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: count}); err != nil {
		t.Fatal(err)
	}
}

// Structured workloads through the parallel algorithms: banded and
// Hilbert inputs are unforgiving about block placement mistakes.
func TestStructuredWorkloads(t *testing.T) {
	n := 16
	inputs := []struct {
		name string
		a, b *matrix.Dense
	}{
		{"banded", matrix.Banded(n, 2, 5), matrix.Banded(n, 1, 6)},
		{"hilbert", matrix.Hilbert(n), matrix.Hilbert(n)},
		{"symmetric x diagonal", matrix.Symmetric(n, 7), matrix.Diagonal(make([]float64, n))},
	}
	// Give the diagonal case a nontrivial diagonal.
	for i := 0; i < n; i++ {
		inputs[2].b.Set(i, i, float64(i+1))
	}
	for _, in := range inputs {
		want := matrix.Mul(in.a, in.b)
		for _, f := range Formulations {
			if c := f.Checks[0]; c.N == n { // each row with n = 16 on its standard cell
				res, err := f.Run(c.Machine(c.P, testParams.Ts, testParams.Tw), in.a, in.b)
				if err != nil {
					t.Fatalf("%s on %s: %v", f.Name, in.name, err)
				}
				if d := matrix.MaxAbsDiff(res.C, want); d > 1e-12 {
					t.Errorf("%s on %s: differs by %v", f.Name, in.name, d)
				}
			}
		}
	}
}

// The band-product property survives the distributed algorithms: a
// banded product computed by GK has the same bandwidth bound.
func TestBandedProductThroughGK(t *testing.T) {
	a := matrix.Banded(16, 1, 11)
	b := matrix.Banded(16, 2, 12)
	res, err := GK(testHypercube(64), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if bw := matrix.Bandwidth(res.C); bw > 3 {
		t.Fatalf("band-1 · band-2 product has bandwidth %d > 3", bw)
	}
}

// Meta-sweep: the equation exactness of every check holds across
// machine constants, including the degenerate ts=0 and tw=0 machines.
func TestEquationsAcrossMachineConstants(t *testing.T) {
	for _, pr := range []model.Params{{Ts: 0, Tw: 1}, {Ts: 1, Tw: 0}, {Ts: 17, Tw: 3}, {Ts: 150, Tw: 3}, {Ts: 0.5, Tw: 3}} {
		for _, f := range Formulations {
			for _, c := range f.Checks {
				a, b := matrix.RandomInts(c.N, c.N, 61), matrix.RandomInts(c.N, c.N, 62)
				res, err := f.Run(c.Machine(c.P, pr.Ts, pr.Tw), a, b)
				if err != nil {
					t.Fatalf("%s ts=%g tw=%g: %v", f.Name, pr.Ts, pr.Tw, err)
				}
				if d := matrix.MaxAbsDiff(res.C, matrix.Mul(a, b)); d != 0 {
					t.Fatalf("%s ts=%g tw=%g: wrong product", f.Name, pr.Ts, pr.Tw)
				}
				if c.Tp == nil {
					continue
				}
				if want := c.Tp(pr, c.N, c.P); math.Abs(res.Sim.Tp-want) > 1e-9 {
					t.Errorf("%s %s ts=%g tw=%g: Tp=%v want %v", f.Name, c.Eq, pr.Ts, pr.Tw, res.Sim.Tp, want)
				}
			}
		}
	}
}
