package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"matscale/internal/core"
	"matscale/internal/experiments"
	"matscale/internal/matrix"
	"matscale/internal/model"
	"matscale/internal/topology"
)

func cmdIsoVal(args []string) error {
	fs := flag.NewFlagSet("isoval", flag.ExitOnError)
	ts, tw := paramFlags(fs, 17, 3)
	e := fs.Float64("e", 0.5, "target efficiency")
	algorithm := fs.String("alg", "cannon", "formulation `key` with a Table 1 overhead and a processor grid (matscale help lists the keys)")
	fs.Parse(args)
	pr := model.Params{Ts: *ts, Tw: *tw}
	// The ladder: every power of two up to 512 with a grid of the row's shape.
	var ps []int
	if f, ok := core.Lookup(*algorithm); ok && f.NStep != nil {
		for p := 2; p <= 512; p *= 2 {
			if f.NStep(p) > 0 {
				ps = append(ps, p)
			}
		}
	}
	pts, err := experiments.IsoefficiencyValidation(pr, *e, *algorithm, ps)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderIso(*algorithm, pts))
	return nil
}

func cmdPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	ts, tw := paramFlags(fs, 17, 3)
	fs.Parse(args)
	pr := model.Params{Ts: *ts, Tw: *tw}
	outcomes, err := experiments.PredictionAccuracy(pr, []int{16, 32, 48, 64}, []int{64, 256, 512}, 0)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderPrediction(outcomes))
	return nil
}

// cmdVerify runs every formulation on its check cells and checks both
// the product (against the serial algorithm) and the simulated parallel
// time (against the exact form of the paper's equation, where the row
// has one) — the repository's end-to-end self-check.
func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	ts, tw := paramFlags(fs, 17, 3)
	fs.Parse(args)
	pr := model.Params{Ts: *ts, Tw: *tw}

	fmt.Printf("Self-check (ts=%g, tw=%g): product vs serial and Tp vs equation\n", pr.Ts, pr.Tw)
	fmt.Printf("%-25s %-10s %6s %6s %14s %14s %8s %8s\n", "algorithm", "equation", "n", "p", "Tp simulated", "Tp equation", "product", "timing")
	failures := 0
	mark := func(ok bool) string {
		if ok {
			return "ok"
		}
		failures++
		return "FAIL"
	}
	for _, f := range core.Formulations {
		for _, c := range f.Checks {
			a, b := matrix.RandomInts(c.N, c.N, 7), matrix.RandomInts(c.N, c.N, 8)
			res, err := f.Run(c.Machine(c.P, pr.Ts, pr.Tw), a, b)
			if err != nil {
				fmt.Printf("%-25s %-10s %6d %6d ERROR: %v\n", f.Name, c.Eq, c.N, c.P, err)
				failures++
				continue
			}
			prod := mark(matrix.MaxAbsDiff(res.C, matrix.Mul(a, b)) == 0)
			want, timing := "-", "-"
			if c.Tp != nil {
				tp := c.Tp(pr, c.N, c.P)
				want = fmt.Sprintf("%.1f", tp)
				timing = mark(math.Abs(res.Sim.Tp-tp) <= 1e-9*math.Max(1, tp))
			}
			fmt.Printf("%-25s %-10s %6d %6d %14.1f %14s %8s %8s\n",
				f.Name, c.Eq, c.N, c.P, res.Sim.Tp, want, prod, timing)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d self-check failures", failures)
	}
	fmt.Println("all checks passed")
	return nil
}

func cmdTsSweep(args []string) error {
	fs := flag.NewFlagSet("tssweep", flag.ExitOnError)
	tw := fs.Float64("tw", 3, "per-word transfer time")
	n := fs.Int("n", 64, "matrix dimension")
	p := fs.Int("p", 64, "processors (power of eight for GK)")
	fs.Parse(args)
	pts, err := experiments.TsSweep(*tw, *n, *p, []float64{0, 0.5, 1, 3, 10, 30, 100, 300, 1000})
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderTsSweep(*tw, *n, *p, pts))
	return nil
}

func cmdSaturation(args []string) error {
	fs := flag.NewFlagSet("saturation", flag.ExitOnError)
	ts, tw := paramFlags(fs, 150, 3)
	n := fs.Int("n", 64, "matrix dimension")
	fs.Parse(args)
	pr := model.Params{Ts: *ts, Tw: *tw}
	var ps []int
	for p := 1; p <= (*n)*(*n); p *= 4 {
		if *n%topology.IntSqrt(p) == 0 {
			ps = append(ps, p)
		}
	}
	pts, err := experiments.SpeedupSaturation(pr, *n, ps, 0)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderSpeedup(*n, pts))
	return nil
}

func cmdAll(args []string) error {
	fs := flag.NewFlagSet("all", flag.ExitOnError)
	quick := fs.Bool("quick", false, "skip the CM-5 sweeps (Figures 4 and 5)")
	jobs := fs.Int("jobs", 0, "host worker goroutines (0 = all CPUs); the output bytes do not depend on it")
	fs.Parse(args)
	return experiments.RunAll(os.Stdout, *quick, *jobs)
}
