package experiments

import (
	"fmt"
	"strings"

	"matscale/internal/core"
	"matscale/internal/machine"
	"matscale/internal/matrix"
	"matscale/internal/model"
	"matscale/internal/sweep"
)

// SpeedupPoint is one measurement of a fixed-problem-size scaling run.
type SpeedupPoint struct {
	P          int
	Tp         float64
	Speedup    float64
	Efficiency float64
}

// SpeedupSaturation runs one algorithm at a fixed matrix size over a
// growing processor range — the Section 3 premise that speedup
// saturates and then falls for a fixed W. The algorithm must accept
// every (n, p) pair supplied. Points run on workers host goroutines
// (≤ 0: all CPUs); the points are identical for every worker count.
func SpeedupSaturation(pr model.Params, alg core.Algorithm, n int, ps []int, workers int) ([]SpeedupPoint, error) {
	a := matrix.Random(n, n, uint64(n))
	b := matrix.Random(n, n, uint64(n)+1)
	out := make([]SpeedupPoint, len(ps))
	err := sweep.ForEach(workers, len(ps), func(i int) error {
		p := ps[i]
		res, err := alg(machine.Hypercube(p, pr.Ts, pr.Tw), a, b)
		if err != nil {
			return fmt.Errorf("p=%d: %w", p, err)
		}
		out[i] = SpeedupPoint{P: p, Tp: res.Sim.Tp, Speedup: res.Speedup(), Efficiency: res.Efficiency()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PeakSpeedup returns the point with the highest speedup and whether
// any later point fell below it (the saturation signature).
func PeakSpeedup(pts []SpeedupPoint) (peak SpeedupPoint, fellAfterPeak bool) {
	for _, pt := range pts {
		if pt.Speedup > peak.Speedup {
			peak = pt
		}
	}
	for _, pt := range pts {
		if pt.P > peak.P && pt.Speedup < peak.Speedup {
			fellAfterPeak = true
		}
	}
	return peak, fellAfterPeak
}

// TsSweepPoint is one sample of a startup-time sweep.
type TsSweepPoint struct {
	Ts       float64
	TpCannon float64
	TpGK     float64
	Winner   string
}

// TsSweep runs Cannon's and the GK algorithm at a fixed (n, p) across
// a range of message startup times — the continuous version of the
// paper's three-machines comparison (Figures 1–3): the GK algorithm's
// smaller startup coefficient wins on high-latency machines, Cannon's
// smaller bandwidth coefficient wins as ts shrinks. Points run on
// workers host goroutines (≤ 0: all CPUs); the points are identical
// for every worker count.
func TsSweep(tw float64, n, p int, tsValues []float64, workers int) ([]TsSweepPoint, error) {
	a := matrix.Random(n, n, uint64(n))
	b := matrix.Random(n, n, uint64(n)+1)
	out := make([]TsSweepPoint, len(tsValues))
	err := sweep.ForEach(workers, len(tsValues), func(i int) error {
		ts := tsValues[i]
		cres, err := core.Cannon(machine.Hypercube(p, ts, tw), a, b)
		if err != nil {
			return fmt.Errorf("cannon ts=%v: %w", ts, err)
		}
		gres, err := core.GK(machine.Hypercube(p, ts, tw), a, b)
		if err != nil {
			return fmt.Errorf("gk ts=%v: %w", ts, err)
		}
		pt := TsSweepPoint{Ts: ts, TpCannon: cres.Sim.Tp, TpGK: gres.Sim.Tp, Winner: "Cannon"}
		if gres.Sim.Tp < cres.Sim.Tp {
			pt.Winner = "GK"
		}
		out[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RenderTsSweep formats a startup-time sweep.
func RenderTsSweep(tw float64, n, p int, pts []TsSweepPoint) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Startup-time sweep, n=%d p=%d tw=%g: who wins as the machine changes\n", n, p, tw)
	fmt.Fprintf(&sb, "%10s %14s %14s %10s\n", "ts", "Tp Cannon", "Tp GK", "winner")
	for _, pt := range pts {
		fmt.Fprintf(&sb, "%10.2f %14.1f %14.1f %10s\n", pt.Ts, pt.TpCannon, pt.TpGK, pt.Winner)
	}
	return sb.String()
}

// RenderSpeedup formats a saturation run.
func RenderSpeedup(n int, pts []SpeedupPoint) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fixed-size scaling, n = %d\n", n)
	fmt.Fprintf(&sb, "%8s %12s %12s %12s\n", "p", "Tp", "speedup", "efficiency")
	for _, pt := range pts {
		fmt.Fprintf(&sb, "%8d %12.0f %12.2f %12.4f\n", pt.P, pt.Tp, pt.Speedup, pt.Efficiency)
	}
	if peak, fell := PeakSpeedup(pts); fell {
		fmt.Fprintf(&sb, "speedup peaked at p = %d (S = %.2f) and then fell — Section 3's saturation\n", peak.P, peak.Speedup)
	}
	return sb.String()
}
