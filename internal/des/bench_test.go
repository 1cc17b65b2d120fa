package des_test

import (
	"testing"

	"matscale/internal/core"
	"matscale/internal/machine"
	"matscale/internal/matrix"
	"matscale/internal/simulator"
)

// BenchmarkDESMillionRank is the acceptance benchmark of the events
// backend: Cannon's algorithm at p = 2^20 ranks (a 1024×1024 torus,
// one matrix element per processor, n = 1024) on the NCube2 preset.
// The systolic tier simulates the 2^30 rank-steps and the real product
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
