package experiments

import (
	"fmt"
	"strings"

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

// SpeedupSaturation runs Cannon's algorithm at a fixed matrix size
// over a growing processor range on a hypercube with pr's constants —
// the Section 3 premise that speedup saturates and then falls for a
// fixed W. Every p must be a power of four whose square root divides
// n; the first that is not fails the run with an error naming it. The
// points are the cells of one sweep, run on workers host goroutines
// (≤ 0: all CPUs), and come back in the order of ps; they are identical
// for every worker count.
func SpeedupSaturation(pr model.Params, n int, ps []int, workers int) ([]SpeedupPoint, error) {
	cells, err := runCells(sweep.Spec{
		Algorithms: []string{"cannon"}, Machines: []string{"custom"},
		Ts: pr.Ts, Tw: pr.Tw, Ps: ps, Ns: []int{n},
	}, workers)
	if err != nil {
		return nil, err
	}
	byP := make(map[int]sweep.CellResult, len(cells))
	for _, r := range cells {
		byP[r.P] = r
	}
	out := make([]SpeedupPoint, len(ps))
	for i, p := range ps {
		r := byP[p]
		out[i] = SpeedupPoint{P: p, Tp: r.Tp, Speedup: r.Speedup, Efficiency: r.Efficiency}
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
// smaller bandwidth coefficient wins as ts shrinks. Each startup time
// is one two-cell sweep on a hypercube with that ts.
func TsSweep(tw float64, n, p int, tsValues []float64) ([]TsSweepPoint, error) {
	out := make([]TsSweepPoint, len(tsValues))
	for i, ts := range tsValues {
		cells, err := runCells(sweep.Spec{
			Algorithms: []string{"cannon", "gk"}, Machines: []string{"custom"},
			Ts: ts, Tw: tw, Ps: []int{p}, Ns: []int{n},
		}, 0)
		if err != nil {
			return nil, fmt.Errorf("ts=%v: %w", ts, err)
		}
		// Cells come back in key order: cannon, then gk.
		pt := TsSweepPoint{Ts: ts, TpCannon: cells[0].Tp, TpGK: cells[1].Tp, Winner: "Cannon"}
		if pt.TpGK < pt.TpCannon {
			pt.Winner = "GK"
		}
		out[i] = pt
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
