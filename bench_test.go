// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus real host-machine kernel benchmarks. Each
// experiment bench reports the headline number the paper quotes as a
// benchmark metric (crossover sizes, efficiencies, region fractions),
// so `go test -bench=. -benchmem` doubles as the reproduction run;
// `cmd/matscale` prints the full tables and series.
package matscale_test

import (
	"fmt"
	"io"
	"testing"

	"matscale"
	"matscale/internal/collective"
	"matscale/internal/core"
	"matscale/internal/experiments"
	"matscale/internal/machine"
	"matscale/internal/matrix"
	"matscale/internal/model"
	"matscale/internal/regions"
	"matscale/internal/simulator"
	"matscale/internal/tech"
)

// --- Table 1: overheads and isoefficiency -------------------------------

func BenchmarkTable1(b *testing.B) {
	pr := model.Params{Ts: 150, Tw: 3}
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.Table1(pr)
	}
	if len(out) == 0 {
		b.Fatal("empty table")
	}
}

// --- Figures 1-3: regions of superiority --------------------------------

func benchRegionFigure(b *testing.B, fig int) {
	var m *regions.Map
	for i := 0; i < b.N; i++ {
		var err error
		m, err = experiments.RegionFigure(fig, 30, 16)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(regionFraction(m, 'a'), "gk_region_frac")
	b.ReportMetric(regionFraction(m, 'd'), "dns_region_frac")
}

// regionFraction is the share of feasible parallel cells of m labeled
// with letter.
func regionFraction(m *regions.Map, letter byte) float64 {
	var total, hit int
	for _, row := range m.Cells {
		for _, c := range row {
			if c != regions.Infeasible && c != regions.Serial {
				total++
				if c == letter {
					hit++
				}
			}
		}
	}
	return float64(hit) / float64(max(total, 1))
}

func BenchmarkFigure1RegionsNCube2(b *testing.B) { benchRegionFigure(b, 1) }
func BenchmarkFigure2RegionsFastHC(b *testing.B) { benchRegionFigure(b, 2) }
func BenchmarkFigure3RegionsSIMD(b *testing.B)   { benchRegionFigure(b, 3) }

// --- Figures 4-5: CM-5 efficiency curves --------------------------------

// Representative single points keep the per-iteration cost bounded; the
// full sweeps run once each and report the crossover matrix size.

func benchCM5Point(b *testing.B, alg core.Algorithm, n, p int) {
	a := matrix.Random(n, n, uint64(n))
	c := matrix.Random(n, n, uint64(n)+1)
	var res *core.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = alg(machine.CM5(p), a, c)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Efficiency(), "efficiency")
	b.ReportMetric(res.Sim.Tp, "virtual_Tp")
}

func BenchmarkFigure4CannonP64N96(b *testing.B) { benchCM5Point(b, core.Cannon, 96, 64) }
func BenchmarkFigure4GKP64N96(b *testing.B)     { benchCM5Point(b, core.GK, 96, 64) }
func BenchmarkFigure5CannonP484N110(b *testing.B) {
	benchCM5Point(b, core.Cannon, 110, 484)
}
func BenchmarkFigure5GKP512N112(b *testing.B) { benchCM5Point(b, core.GK, 112, 512) }

func BenchmarkFigure4FullSweep(b *testing.B) {
	var f *experiments.FigureEfficiency
	for i := 0; i < b.N; i++ {
		var err error
		f, err = experiments.EfficiencyFigure(4, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(f.CrossoverN, "crossover_n")
	b.ReportMetric(f.PredictedCrossover, "predicted_n")
}

func BenchmarkFigure5FullSweep(b *testing.B) {
	var f *experiments.FigureEfficiency
	for i := 0; i < b.N; i++ {
		var err error
		f, err = experiments.EfficiencyFigure(5, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(f.CrossoverN, "crossover_n")
	b.ReportMetric(f.PredictedCrossover, "predicted_n")
}

// --- Section 6: pairwise crossovers -------------------------------------

func BenchmarkSection6Crossovers(b *testing.B) {
	var cutoff float64
	for i := 0; i < b.N; i++ {
		cutoff = regions.GKBeatsCannonAlways()
	}
	b.ReportMetric(cutoff, "gk_beats_cannon_p")
}

// --- Section 7: all-port communication ----------------------------------

func BenchmarkSection7AllPort(b *testing.B) {
	pr := model.Params{Ts: 10, Tw: 3}
	var s string
	for i := 0; i < b.N; i++ {
		s = experiments.AllPortReport(pr)
	}
	if len(s) == 0 {
		b.Fatal("empty report")
	}
}

func BenchmarkSection7SimpleAllPortSim(b *testing.B) {
	m := machine.Hypercube(64, 10, 3)
	m.AllPort = true
	a := matrix.Random(64, 64, 1)
	c := matrix.Random(64, 64, 2)
	var res *core.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.SimpleAllPort(m, a, c)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Sim.Tp, "virtual_Tp")
}

// --- Section 8: technology tradeoffs ------------------------------------

func BenchmarkSection8Technology(b *testing.B) {
	pr := model.Params{Ts: 0.5, Tw: 3}
	var more, faster float64
	for i := 0; i < b.N; i++ {
		var err error
		more, err = tech.MoreProcessorsFactor(pr, model.CannonTo, 1<<14, 0.5, 10)
		if err != nil {
			b.Fatal(err)
		}
		faster, err = tech.FasterProcessorsFactor(pr, model.CannonTo, 1<<14, 0.5, 10)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(more, "more_procs_W_factor")
	b.ReportMetric(faster, "faster_procs_W_factor")
}

// --- Equation validation (Eqs. 2-7, 16-18) ------------------------------

func BenchmarkEquationValidationGK(b *testing.B) {
	pr := model.Params{Ts: 17, Tw: 3}
	m := machine.Hypercube(64, pr.Ts, pr.Tw)
	a := matrix.Random(16, 16, 1)
	c := matrix.Random(16, 16, 2)
	var res *core.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.GK(m, a, c)
		if err != nil {
			b.Fatal(err)
		}
	}
	want := model.ExactGKTp(pr, 16, 64)
	if res.Sim.Tp != want {
		b.Fatalf("Tp = %v, want Eq.(7) = %v", res.Sim.Tp, want)
	}
}

// --- Simulated algorithm suite at a common operating point --------------

func benchSim(b *testing.B, alg core.Algorithm, n, p int) {
	m := machine.Hypercube(p, 17, 3)
	a := matrix.Random(n, n, uint64(n))
	c := matrix.Random(n, n, uint64(n)+1)
	for i := 0; i < b.N; i++ {
		if _, err := alg(m, a, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimSimpleN64P16(b *testing.B)   { benchSim(b, core.Simple, 64, 16) }
func BenchmarkSimCannonN64P16(b *testing.B)   { benchSim(b, core.Cannon, 64, 16) }
func BenchmarkSimFoxN64P16(b *testing.B)      { benchSim(b, core.Fox, 64, 16) }
func BenchmarkSimBerntsenN64P64(b *testing.B) { benchSim(b, core.Berntsen, 64, 64) }
func BenchmarkSimGKN64P64(b *testing.B)       { benchSim(b, core.GK, 64, 64) }

// BenchmarkCannonHostTime measures host wall-clock of a full Cannon
// simulation at p=64 on the default engine: 64 ranks rolling blocks
// every step is the heaviest steady-state load on the pooled zero-copy
// message path.
func BenchmarkCannonHostTime(b *testing.B) { benchSim(b, core.Cannon, 128, 64) }

func BenchmarkSimDNSN16P256(b *testing.B) {
	m := machine.Hypercube(256, 17, 3)
	a := matrix.Random(16, 16, 1)
	c := matrix.Random(16, 16, 2)
	for i := 0; i < b.N; i++ {
		if _, err := core.DNSWithGrid(m, a, c, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Engine grid: the same cells on both engines -------------------------

// BenchmarkEngineGrid runs four cells of the paper's CM-5 grid
// (Figures 4-5) like for like on each simulation engine: the same
// formulation, n, p and operands, with sub-benchmarks named
// alg/p/n/engine. On the events engine every cell takes the wave tier,
// as it does in a sweep. Compare the engines across host parallelism
// with
//
//	go test -run '^$' -bench EngineGrid -cpu 1,2 .
func BenchmarkEngineGrid(b *testing.B) {
	cells := []struct {
		alg  string
		f    core.Algorithm
		p, n int
	}{
		{"cannon", core.Cannon, 64, 176},
		{"cannon", core.Cannon, 484, 352},
		{"gk", core.GK, 64, 176},
		{"gk", core.GK, 512, 352},
	}
	for _, c := range cells {
		a := matrix.Random(c.n, c.n, 1)
		bm := matrix.Random(c.n, c.n, 2)
		for _, eng := range []machine.Backend{machine.BackendGoroutines, machine.BackendEvents} {
			m := machine.CM5(c.p)
			m.Backend = eng
			b.Run(fmt.Sprintf("%s/p=%d/n=%d/%s", c.alg, c.p, c.n, eng), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := c.f(m, a, bm); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Real host kernels ---------------------------------------------------

func benchKernel(b *testing.B, n int, f func(a, c *matrix.Dense) *matrix.Dense) {
	a := matrix.Random(n, n, 1)
	c := matrix.Random(n, n, 2)
	b.SetBytes(int64(8 * n * n * 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(a, c)
	}
}

func BenchmarkHostSerialN256(b *testing.B) {
	benchKernel(b, 256, func(a, c *matrix.Dense) *matrix.Dense { return matrix.Mul(a, c) })
}
func BenchmarkHostParallelN256(b *testing.B) {
	benchHostMul(b, 256, 0)
}
func BenchmarkHostParallelN512(b *testing.B) {
	benchHostMul(b, 512, 0)
}
func BenchmarkHostParallel1WorkerN512(b *testing.B) {
	benchHostMul(b, 512, 1)
}

func benchHostMul(b *testing.B, n, workers int) {
	benchKernel(b, n, func(a, c *matrix.Dense) *matrix.Dense {
		out, err := matscale.HostMul(a, c, matscale.WithWorkers(workers))
		if err != nil {
			b.Fatal(err)
		}
		return out
	})
}

// --- Methodology validation -----------------------------------------------

func BenchmarkIsoefficiencyValidationCannon(b *testing.B) {
	pr := model.Params{Ts: 17, Tw: 3}
	var pts []experiments.IsoPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.IsoefficiencyValidation(pr, 0.5, "cannon", []int{4, 16, 64, 256})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[len(pts)-1].EMeasured, "final_efficiency")
}

func BenchmarkPredictionAccuracy(b *testing.B) {
	pr := model.Params{Ts: 17, Tw: 3}
	var outcomes []experiments.PredictionOutcome
	for i := 0; i < b.N; i++ {
		var err error
		outcomes, err = experiments.PredictionAccuracy(pr, []int{16, 32, 48, 64}, []int{64, 256, 512}, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	hits := 0
	for _, o := range outcomes {
		if o.Predicted == o.Actual {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(len(outcomes)), "hit_rate")
}

func BenchmarkSimFoxMeshN64P16(b *testing.B) {
	m := machine.Mesh(16, 17, 3)
	a := matrix.Random(64, 64, 1)
	c := matrix.Random(64, 64, 2)
	for i := 0; i < b.N; i++ {
		if _, err := core.FoxMesh(m, a, c); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Collective layer -----------------------------------------------------

func benchCollective(b *testing.B, words int, f func(pr *simulator.Proc, group []int, mine []float64)) {
	m := machine.Hypercube(64, 17, 3)
	group := make([]int, 64)
	for i := range group {
		group[i] = i
	}
	for i := 0; i < b.N; i++ {
		_, err := simulator.Run(m, func(pr *simulator.Proc) {
			f(pr, group, make([]float64, words))
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCollectiveAllGather(b *testing.B) {
	benchCollective(b, 256, func(pr *simulator.Proc, group []int, mine []float64) {
		collective.AllGather(pr, group, 1, mine)
	})
}

func BenchmarkCollectiveBroadcast(b *testing.B) {
	benchCollective(b, 4096, func(pr *simulator.Proc, group []int, mine []float64) {
		var data []float64
		if pr.Rank() == 0 {
			data = mine
		}
		collective.Broadcast(pr, group, 0, 1, data)
	})
}

func BenchmarkCollectiveAllToAll(b *testing.B) {
	benchCollective(b, 256, func(pr *simulator.Proc, group []int, mine []float64) {
		collective.AllToAll(pr, group, 1, mine)
	})
}

func BenchmarkCollectiveReduceScatter(b *testing.B) {
	benchCollective(b, 4096, func(pr *simulator.Proc, group []int, mine []float64) {
		collective.ReduceScatter(pr, group, 1, mine)
	})
}

func BenchmarkSimFoxAsyncN64P16(b *testing.B) {
	m := machine.Mesh(16, 17, 3)
	a := matrix.Random(64, 64, 1)
	c := matrix.Random(64, 64, 2)
	for i := 0; i < b.N; i++ {
		if _, err := core.FoxAsync(m, a, c); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Parameterized sweeps (sub-benchmarks) --------------------------------

// BenchmarkAlgorithmsAcrossScale runs the core algorithm suite over a
// grid of (n, p), reporting the simulated efficiency of each point —
// the data behind the paper's comparative claims, organized as
// sub-benchmarks for `-bench AlgorithmsAcrossScale/GK`.
func BenchmarkAlgorithmsAcrossScale(b *testing.B) {
	type cfg struct {
		name string
		alg  core.Algorithm
		n, p int
	}
	var cfgs []cfg
	for _, np := range [][2]int{{32, 16}, {64, 16}, {64, 64}} {
		cfgs = append(cfgs,
			cfg{"Simple", core.Simple, np[0], np[1]},
			cfg{"Cannon", core.Cannon, np[0], np[1]},
			cfg{"Fox", core.Fox, np[0], np[1]},
		)
	}
	for _, np := range [][2]int{{32, 64}, {64, 64}, {64, 512}} {
		cfgs = append(cfgs,
			cfg{"GK", core.GK, np[0], np[1]},
			cfg{"Berntsen", core.Berntsen, np[0], np[1]},
		)
	}
	for _, c := range cfgs {
		c := c
		b.Run(fmt.Sprintf("%s/n%d/p%d", c.name, c.n, c.p), func(b *testing.B) {
			m := machine.Hypercube(c.p, 17, 3)
			x := matrix.Random(c.n, c.n, 1)
			y := matrix.Random(c.n, c.n, 2)
			var res *core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = c.alg(m, x, y)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Efficiency(), "efficiency")
		})
	}
}

// BenchmarkHostWorkerScaling measures real wall-clock scaling of the
// shared-memory kernel across worker counts.
func BenchmarkHostWorkerScaling(b *testing.B) {
	a := matrix.Random(384, 384, 1)
	c := matrix.Random(384, 384, 2)
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			b.SetBytes(int64(8 * 384 * 384 * 3))
			for i := 0; i < b.N; i++ {
				if _, err := matscale.HostMul(a, c, matscale.WithWorkers(w)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Sweep engine: serial vs parallel wall clock ---------------------------

// BenchmarkSweepGridWorkers runs a fixed clean-vs-faulted experiment
// grid through matscale.Sweep at 1, 4 and all-CPU host workers. The
// results are byte-identical across the sub-benchmarks (the engine's
// contract; see docs/SWEEP.md) — only the wall clock differs, which is
// exactly what this measures. On a single-core host the variants tie;
// the speedup appears with the cores.
func BenchmarkSweepGridWorkers(b *testing.B) {
	spec := &matscale.SweepSpec{
		Algorithms: []string{"cannon", "gk"},
		Machines:   []string{"custom"},
		Ts:         17, Tw: 3,
		Ps:     []int{16, 64},
		Ns:     []int{16, 32, 64},
		Faults: []string{"", "straggler=2@rank0,seed=42"},
		Seed:   1,
	}
	for _, w := range []int{1, 4, 0} {
		w := w
		name := fmt.Sprintf("workers%d", w)
		if w == 0 {
			name = "workersNumCPU"
		}
		b.Run(name, func(b *testing.B) {
			var res *matscale.SweepResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = matscale.Sweep(spec, matscale.WithWorkers(w))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Ran), "cells_ran")
		})
	}
}

// BenchmarkRunAllWorkers measures the full reproduction (quick=false:
// every table, figure and validation) serial versus on a 4-worker
// pool — the repository's headline serial-vs-parallel wall-clock
// comparison. The emitted bytes are identical; compare the ns/op of
// the two sub-benchmarks for the speedup.
func BenchmarkRunAllWorkers(b *testing.B) {
	for _, w := range []int{1, 4} {
		w := w
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := matscale.RunAll(io.Discard, false, matscale.WithWorkers(w)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablations -------------------------------------------------------------

// BenchmarkGKVariants ablates the GK algorithm's broadcast scheme at a
// fixed configuration: naive binomial (Eq. 7), Johnsson-Ho (§5.4.1),
// all-port (Eq. 17), and the fully connected CM-5 (Eq. 18).
func BenchmarkGKVariants(b *testing.B) {
	n, p := 64, 64
	a := matrix.Random(n, n, 1)
	c := matrix.Random(n, n, 2)
	cases := []struct {
		name string
		alg  core.Algorithm
		mk   func() *machine.Machine
	}{
		{"naive", core.GK, func() *machine.Machine { return machine.Hypercube(p, 17, 3) }},
		{"johnsson-ho", core.GKImprovedBroadcast, func() *machine.Machine { return machine.Hypercube(p, 17, 3) }},
		{"all-port", core.GKAllPort, func() *machine.Machine {
			m := machine.Hypercube(p, 17, 3)
			m.AllPort = true
			return m
		}},
		{"cm5", core.GK, func() *machine.Machine {
			m := machine.CM5(p)
			m.Ts, m.Tw = 17, 3
			return m
		}},
	}
	for _, cs := range cases {
		cs := cs
		b.Run(cs.name, func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = cs.alg(cs.mk(), a, c)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Sim.Tp, "virtual_Tp")
		})
	}
}

// BenchmarkContentionTrackingOverhead measures what the link-tracking
// mode costs in wall-clock time (its virtual-time results are
// identical for the paper's algorithms).
func BenchmarkContentionTrackingOverhead(b *testing.B) {
	a := matrix.Random(32, 32, 1)
	c := matrix.Random(32, 32, 2)
	for _, tracked := range []bool{false, true} {
		tracked := tracked
		name := "off"
		if tracked {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := machine.Hypercube(64, 17, 3)
				m.TrackContention = tracked
				if _, err := core.GK(m, a, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
