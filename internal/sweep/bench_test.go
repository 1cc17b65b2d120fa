package sweep

import (
	"strconv"
	"testing"
)

// BenchmarkSweepPaperGrid runs the paper's Section 9 CM-5 validation
// grid (Figures 4 and 5: cannon and gk × p {64, 484, 512} × n {88, 176,
// 264, 352}, 24 cells of which 8 are structural rejections) through Run
// at one worker and at two, the sweep-cell layer's end-to-end cost. The
// cells are timed from their skeletons on the wave tier, so the worker
// pool and the engine's per-run setup dominate. The grid is the one the
// repository benchmark's paper-grid workload sweeps.
func BenchmarkSweepPaperGrid(b *testing.B) {
	spec := &Spec{
		Algorithms: []string{"cannon", "gk"},
		Machines:   []string{"cm5"},
		Ps:         []int{64, 484, 512},
		Ns:         []int{88, 176, 264, 352},
		Seed:       1,
	}
	for _, workers := range []int{1, 2} {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				res, err := Run(spec, Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if res.Ran != 16 {
					b.Fatalf("%d cells ran, want 16", res.Ran)
				}
			}
		})
	}
}
