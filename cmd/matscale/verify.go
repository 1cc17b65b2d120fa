package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"matscale/internal/core"
	"matscale/internal/experiments"
	"matscale/internal/machine"
	"matscale/internal/matrix"
	"matscale/internal/model"
	"matscale/internal/topology"
)

func cmdIsoVal(args []string) error {
	fs := flag.NewFlagSet("isoval", flag.ExitOnError)
	ts, tw := paramFlags(fs, 17, 3)
	e := fs.Float64("e", 0.5, "target efficiency")
	algorithm := fs.String("alg", "cannon", "algorithm: cannon or gk")
	fs.Parse(args)
	pr := model.Params{Ts: *ts, Tw: *tw}
	var ps []int
	switch *algorithm {
	case "cannon":
		ps = []int{4, 16, 64, 256}
	case "gk":
		ps = []int{8, 64, 512}
	default:
		return fmt.Errorf("unknown algorithm %q", *algorithm)
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

// cmdVerify runs every algorithm on small configurations and checks
// both the product (against the serial algorithm) and the simulated
// parallel time (against the paper's closed-form equation) — the
// repository's end-to-end self-check.
func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	ts, tw := paramFlags(fs, 17, 3)
	fs.Parse(args)
	pr := model.Params{Ts: *ts, Tw: *tw}

	type check struct {
		name     string
		eq       string
		n, p     int
		mach     *machine.Machine
		alg      core.Algorithm
		expected float64
	}
	hc := func(p int) *machine.Machine { return machine.Hypercube(p, pr.Ts, pr.Tw) }
	// Cost constants and the port regime are read-only after
	// construction (clockguard); derive configured copies instead.
	ap := func(p int) *machine.Machine { return hc(p).WithAllPort(true) }
	cm5 := func(p int) *machine.Machine { return machine.CM5(p).WithCost(pr.Ts, pr.Tw) }
	mesh := func(p int) *machine.Machine { return machine.Mesh(p, pr.Ts, pr.Tw) }

	checks := []check{
		{"Simple", "Eq.(2)", 16, 16, hc(16), core.Simple, model.ExactSimpleTp(pr, 16, 16)},
		{"Cannon", "Eq.(3)", 16, 16, hc(16), core.Cannon, model.ExactCannonTp(pr, 16, 16)},
		{"Fox (binomial)", "§4.3", 16, 16, hc(16), core.Fox, model.ExactFoxTp(pr, 16, 16)},
		{"Fox (pipelined)", "Eq.(4)", 16, 16, hc(16), core.FoxPipelined, model.ExactFoxPipelinedTp(pr, 16, 16)},
		{"Fox (mesh relay)", "§4.3 mesh", 16, 16, mesh(16), core.FoxMesh, model.ExactFoxMeshTp(pr, 16, 16)},
		{"Berntsen", "Eq.(5)", 16, 64, hc(64), core.Berntsen, model.ExactBerntsenTp(pr, 16, 64)},
		{"DNS", "Eq.(6)", 8, 128, hc(128), core.DNS, model.ExactDNSTp(pr, 8, 128, 8)},
		{"GK", "Eq.(7)", 16, 64, hc(64), core.GK, model.ExactGKTp(pr, 16, 64)},
		{"GK improved bcast", "§5.4.1", 16, 64, hc(64), core.GKImprovedBroadcast, model.ExactGKImprovedTp(pr, 16, 64)},
		{"Simple all-port", "Eq.(16)", 16, 16, ap(16), core.SimpleAllPort, model.ExactSimpleAllPortTp(pr, 16, 16)},
		{"[18]-style mem-eff", "§7.1", 16, 16, ap(16), core.SimpleMemEfficientAllPort, model.ExactSimpleMemEffAllPortTp(pr, 16, 16)},
		{"GK all-port", "Eq.(17)", 16, 64, ap(64), core.GKAllPort, model.ExactGKAllPortTp(pr, 16, 64)},
		{"GK on CM-5", "Eq.(18)", 16, 64, cm5(64), core.GK, model.ExactGKCM5Tp(pr, 16, 64)},
	}

	fmt.Printf("Self-check (ts=%g, tw=%g): product vs serial and Tp vs equation\n", pr.Ts, pr.Tw)
	fmt.Printf("%-20s %-10s %6s %6s %14s %14s %8s %8s\n", "algorithm", "equation", "n", "p", "Tp simulated", "Tp equation", "product", "timing")
	failures := 0
	for _, c := range checks {
		a := matrix.RandomInts(c.n, c.n, 7)
		b := matrix.RandomInts(c.n, c.n, 8)
		res, err := c.alg(c.mach, a, b)
		if err != nil {
			fmt.Printf("%-20s %-10s %6d %6d ERROR: %v\n", c.name, c.eq, c.n, c.p, err)
			failures++
			continue
		}
		prodOK := matrix.MaxAbsDiff(res.C, matrix.Mul(a, b)) == 0
		timeOK := math.Abs(res.Sim.Tp-c.expected) <= 1e-9*math.Max(1, c.expected)
		mark := func(ok bool) string {
			if ok {
				return "ok"
			}
			failures++
			return "FAIL"
		}
		fmt.Printf("%-20s %-10s %6d %6d %14.1f %14.1f %8s %8s\n",
			c.name, c.eq, c.n, c.p, res.Sim.Tp, c.expected, mark(prodOK), mark(timeOK))
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
