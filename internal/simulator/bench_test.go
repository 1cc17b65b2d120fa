package simulator_test

import (
	"testing"

	"matscale/internal/core"
	"matscale/internal/faults"
	"matscale/internal/machine"
	"matscale/internal/matrix"
	"matscale/internal/simulator"
)

// BenchmarkDESMillionRank is the acceptance benchmark of the events
// backend: Cannon's algorithm at p = 2^20 ranks (a 1024×1024 torus,
// one matrix element per processor, n = 1024) on the NCube2 preset.
// The wave tier simulates the 2^30 rank-steps and the real product
// is computed in Cannon's accumulation order; the whole run must stay
// in single-digit seconds.
func BenchmarkDESMillionRank(b *testing.B) {
	const p, n = 1 << 20, 1 << 10
	a := matrix.Random(n, n, 1)
	bm := matrix.Random(n, n, 2)
	m := machine.NCube2(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Cannon(m, a, bm)
		if err != nil {
			b.Fatal(err)
		}
		if res.Sim.Tp <= 0 {
			b.Fatal("degenerate Tp")
		}
	}
}

// BenchmarkDESGKWave is GK's wave-tier path on the slowest cell of the
// paper's CM-5 grid (Figures 4-5): p = 512, n = 352. The skeleton's
// per-rank waves cost microseconds; the host product, built in GK's
// own addition order, is nearly all of it.
func BenchmarkDESGKWave(b *testing.B) {
	const p, n = 512, 352
	a := matrix.Random(n, n, 1)
	bm := matrix.Random(n, n, 2)
	m := machine.CM5(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.GK(m, a, bm)
		if err != nil {
			b.Fatal(err)
		}
		if res.Sim.Tp <= 0 {
			b.Fatal("degenerate Tp")
		}
	}
}

// BenchmarkDESFoxWave is Fox's wave-tier path on the slowest Fox cell
// of perfbench's serve spec (a custom hypercube, ts in [5, 8), tw = 3):
// p = 64, n = 64. Eight row broadcasts of 8×8 blocks per iteration run
// as per-rank transfer rounds; the host product is built in Fox's
// rotated order.
func BenchmarkDESFoxWave(b *testing.B) {
	const p, n = 64, 64
	a := matrix.Random(n, n, 1)
	bm := matrix.Random(n, n, 2)
	m := machine.Hypercube(p, 6.3, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Fox(m, a, bm)
		if err != nil {
			b.Fatal(err)
		}
		if res.Sim.Tp <= 0 {
			b.Fatal("degenerate Tp")
		}
	}
}

// BenchmarkDESCannonWave is Cannon's wave-tier path on the paper's
// CM-5 grid at p = 484, n = 352: 16×16 blocks whose host product,
// built in place in Cannon's rotated order, is nearly all of it.
func BenchmarkDESCannonWave(b *testing.B) {
	const p, n = 484, 352
	a := matrix.Random(n, n, 1)
	bm := matrix.Random(n, n, 2)
	m := machine.CM5(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Cannon(m, a, bm)
		if err != nil {
			b.Fatal(err)
		}
		if res.Sim.Tp <= 0 {
			b.Fatal("degenerate Tp")
		}
	}
}

// BenchmarkDESCannonWaveFaulted times Cannon's skeleton alone (its
// row's Measure) on a faulted hypercube, p = 1024, n = 256: a
// straggler and link jitter keep it off the lockstep path, so the
// per-rank walk runs the 32 iterations of the Repeat body, each shift
// reading the links and link-fault costs resolved once per rank.
func BenchmarkDESCannonWaveFaulted(b *testing.B) {
	const p, n = 1024, 256
	fc, err := faults.Parse("straggler=2@rank0,jitter=0.1,seed=3")
	if err != nil {
		b.Fatal(err)
	}
	m := machine.Hypercube(p, 17, 3).WithFaults(fc)
	b.ResetTimer()
	measureSkeleton(b, "cannon", m, n)
}

// measureSkeleton runs b.N measurements of the formulation under key
// for n×n operands on m, failing the benchmark if one leaves the wave
// tier for a rank program instead of timing it.
func measureSkeleton(b *testing.B, key string, m *machine.Machine, n int) {
	f, _ := core.Lookup(key)
	operands := func() [2]*matrix.Dense {
		b.Fatalf("%s on %v left the wave tier", key, m)
		return [2]*matrix.Dense{}
	}
	for i := 0; i < b.N; i++ {
		sim, err := f.Measure(m, n, operands)
		if err != nil {
			b.Fatal(err)
		}
		if sim.Tp <= 0 {
			b.Fatal("degenerate Tp")
		}
	}
}

// BenchmarkDESGKTiming times GK's skeleton alone (its row's Measure)
// on the slowest GK cell of the paper's CM-5 grid, p = 512, n = 352: the
// builder, the validating pass and the per-rank waves of its routes,
// trees and barriers, with no operands and no host product — the
// work a sweep cell does.
func BenchmarkDESGKTiming(b *testing.B) {
	const p, n = 512, 352
	measureSkeleton(b, "gk", machine.CM5(p), n)
}

// BenchmarkDESCannonTiming times Cannon's skeleton alone (its row's
// Measure) on the paper's CM-5 grid at p = 484, n = 352:
// the builder, the validating pass over the 484 ranks and the lockstep
// clock, with no operands and no host product.
func BenchmarkDESCannonTiming(b *testing.B) {
	const p, n = 484, 352
	measureSkeleton(b, "cannon", machine.CM5(p), n)
}

// BenchmarkEventsFiberCannon measures the general fiber tier of the
// events backend on a mid-size Cannon run (metrics on forces the
// coroutine path), the configuration the differential suite compares.
func BenchmarkEventsFiberCannon(b *testing.B) {
	const p, n = 256, 64
	a := matrix.Random(n, n, 1)
	bm := matrix.Random(n, n, 2)
	m := machine.NCube2(p)
	m.CollectMetrics = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Cannon(m, a, bm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEventsFiberExchange measures the raw coroutine handoff
// cost: a neighbor-exchange ring under the event loop, the hot path
// of every fiber-tier simulation.
func BenchmarkEventsFiberExchange(b *testing.B) {
	const p, rounds = 64, 32
	m := machine.Hypercube(p, 5, 1)
	payload := make([]float64, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := simulator.Run(m, func(pr *simulator.Proc) {
			for r := 0; r < rounds; r++ {
				pr.Send((pr.Rank()+1)%p, r, payload)
				buf := pr.Recv((pr.Rank()+p-1)%p, r)
				pr.Recycle(buf)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
