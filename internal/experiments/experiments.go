// Package experiments regenerates every table and figure of the
// paper's evaluation:
//
//	Table 1    — Table1 (overheads, isoefficiency, applicability)
//	Figures 1–3 — RegionFigure (best-algorithm maps for three machines)
//	Figures 4–5 — EfficiencyFigure (simulated CM-5 efficiency curves)
//	Section 6  — CrossoverReport (pairwise equal-overhead analysis)
//	Section 7  — AllPortReport (all-port communication scalability)
//	Section 8  — TechnologyReport (more vs. faster processors)
//
// Each driver returns structured results plus a rendered text report;
// cmd/matscale prints them, the benchmarks in the repository root time
// them, and EXPERIMENTS.md records them against the paper's numbers.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"matscale/internal/core"
	"matscale/internal/iso"
	"matscale/internal/machine"
	"matscale/internal/model"
	"matscale/internal/plot"
	"matscale/internal/regions"
	"matscale/internal/sweep"
)

// FigureParams returns the machine constants of the paper's region
// figures: 1 → (ts=150, tw=3), 2 → (ts=10, tw=3), 3 → (ts=0.5, tw=3).
func FigureParams(fig int) (model.Params, error) {
	switch fig {
	case 1:
		return model.Params{Ts: 150, Tw: 3}, nil
	case 2:
		return model.Params{Ts: 10, Tw: 3}, nil
	case 3:
		return model.Params{Ts: 0.5, Tw: 3}, nil
	default:
		return model.Params{}, fmt.Errorf("experiments: region figures are 1, 2 and 3; got %d", fig)
	}
}

// Table1 renders the paper's Table 1 — the overhead function,
// asymptotic isoefficiency and range of applicability of each
// algorithm — and appends numerically fitted isoefficiency growth
// exponents obtained from the Equation (1) solver as a check on the
// asymptotic column.
func Table1(pr model.Params) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 1 — overheads, scalability and applicability (ts=%g, tw=%g)\n", pr.Ts, pr.Tw)
	fmt.Fprintf(&sb, "%-10s %-55s %-18s %-16s %s\n", "Algorithm", "Total overhead To", "Asymptotic isoeff.", "Fitted exponent", "Applicability")
	for _, f := range core.Formulations {
		s := f.Table1
		if s == nil {
			continue
		}
		e := 0.5
		if s.Ceiling != nil {
			// Stay below the efficiency ceiling.
			e = s.Ceiling(pr.Ts, pr.Tw) / 2
		}
		w := func(p float64) float64 {
			v, ok := iso.OverallW(func(n, q float64) float64 { return s.To(pr, n, q) }, s.Concurrency, p, e)
			if !ok {
				return math.NaN()
			}
			return v
		}
		x := iso.GrowthExponent(w, 1<<20, 1<<34, 24)
		fmt.Fprintf(&sb, "%-10s %-55s %-18s %-16.3f %s\n", f.Name, s.Overhead, s.Isoefficiency, x, s.Range)
	}
	return sb.String()
}

// RegionFigure computes the Figure 1/2/3 region map.
func RegionFigure(fig, pMaxExp, nMaxExp int) (*regions.Map, error) {
	pr, err := FigureParams(fig)
	if err != nil {
		return nil, err
	}
	return regions.Compute(pr, pMaxExp, nMaxExp), nil
}

// EfficiencyPoint is one measurement of an efficiency-vs-n curve.
type EfficiencyPoint struct {
	N  int
	E  float64 // simulated efficiency
	Tp float64 // simulated parallel time
}

// EfficiencyCurve is a simulated efficiency-vs-matrix-size curve for
// one algorithm at one processor count.
type EfficiencyCurve struct {
	Algorithm string
	P         int
	Points    []EfficiencyPoint
}

// interpolate returns the curve's efficiency at n by piecewise-linear
// interpolation (NaN outside the sampled range).
func (c *EfficiencyCurve) interpolate(n float64) float64 {
	pts := c.Points
	if len(pts) == 0 || n < float64(pts[0].N) || n > float64(pts[len(pts)-1].N) {
		return math.NaN()
	}
	for i := 1; i < len(pts); i++ {
		lo, hi := pts[i-1], pts[i]
		if n <= float64(hi.N) {
			f := (n - float64(lo.N)) / (float64(hi.N) - float64(lo.N))
			return lo.E + f*(hi.E-lo.E)
		}
	}
	return pts[len(pts)-1].E
}

// FigureEfficiency holds one of the paper's CM-5 experiments
// (Figures 4 and 5): the simulated efficiency curves of Cannon's and
// the GK algorithm and the crossover matrix size, together with the
// analytically predicted crossover from the equal-overhead condition.
type FigureEfficiency struct {
	Figure             int
	Cannon, GK         EfficiencyCurve
	CrossoverN         float64 // simulated curves cross here (0 if none)
	PredictedCrossover float64 // from equating the model overheads
}

// EfficiencyFigure reproduces Figure 4 (fig=4: both algorithms on 64
// processors) or Figure 5 (fig=5: Cannon on 484, GK on 512 — the paper
// uses the nearest perfect square to 512 for Cannon). Each curve is one
// sweep on the "cm5" preset: matrices contain the sweep's deterministic
// pseudo-random values, and the products are computed for real on the
// virtual-time CM-5. The sweep cells run on workers host goroutines
// (≤ 0: all CPUs); the figure is identical for every worker count.
func EfficiencyFigure(fig, workers int) (*FigureEfficiency, error) {
	var pCannon, pGK, stepCannon, stepGK, nMax int
	switch fig {
	case 4:
		pCannon, pGK = 64, 64
		stepCannon, stepGK = 8, 8
		nMax = 200
	case 5:
		pCannon, pGK = 484, 512
		stepCannon, stepGK = 22, 8
		nMax = 360
	default:
		return nil, fmt.Errorf("experiments: efficiency figures are 4 and 5; got %d", fig)
	}

	out := &FigureEfficiency{Figure: fig}
	var err error
	out.Cannon, err = runCurve("cannon", pCannon, stepCannon, nMax, workers)
	if err != nil {
		return nil, err
	}
	out.GK, err = runCurve("gk", pGK, stepGK, nMax, workers)
	if err != nil {
		return nil, err
	}

	out.CrossoverN = curveCrossover(&out.GK, &out.Cannon)
	out.PredictedCrossover = predictedCrossover(pCannon, pGK)
	return out, nil
}

// runCurve simulates the formulation under key on the CM-5 preset over
// a sweep of matrix sizes: one sweep whose cells fan out over workers
// host goroutines and come back in n order, so the curve is identical
// for every worker count.
func runCurve(key string, p, step, nMax, workers int) (EfficiencyCurve, error) {
	s := sweep.Spec{Algorithms: []string{key}, Machines: []string{"cm5"}, Ps: []int{p}}
	for n := step; n <= nMax; n += step {
		s.Ns = append(s.Ns, n)
	}
	cells, err := runCells(s, workers)
	if err != nil {
		return EfficiencyCurve{}, err
	}
	f, _ := core.Lookup(key)
	c := EfficiencyCurve{Algorithm: f.Name, P: p}
	for _, r := range cells {
		c.Points = append(c.Points, EfficiencyPoint{N: r.N, E: r.Efficiency, Tp: r.Tp})
	}
	return c, nil
}

// runCells runs s with workers host goroutines (≤ 0: all CPUs) and
// returns its cells in sweep order, or an error naming the first cell
// its machine or formulation rejected.
func runCells(s sweep.Spec, workers int) ([]sweep.CellResult, error) {
	res, err := sweep.Run(&s, sweep.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	for _, r := range res.Cells {
		if r.Err != "" {
			return nil, fmt.Errorf("%s n=%d p=%d: %s", r.Algorithm, r.N, r.P, r.Err)
		}
	}
	return res.Cells, nil
}

// curveCrossover finds the matrix size where the GK curve stops being
// the more efficient one, by scanning the union grid with linear
// interpolation.
func curveCrossover(gk, cannon *EfficiencyCurve) float64 {
	lo := math.Max(float64(gk.Points[0].N), float64(cannon.Points[0].N))
	hi := math.Min(float64(gk.Points[len(gk.Points)-1].N), float64(cannon.Points[len(cannon.Points)-1].N))
	prev := math.NaN()
	prevN := 0.0
	for n := lo; n <= hi; n++ {
		d := gk.interpolate(n) - cannon.interpolate(n)
		if !math.IsNaN(prev) && prev > 0 && d <= 0 {
			// Linear refinement between prevN and n.
			f := prev / (prev - d)
			return prevN + f*(n-prevN)
		}
		prev, prevN = d, n
	}
	return 0
}

// predictedCrossover equates the CM-5 overheads of Cannon's algorithm
// (Eq. 3) on pCannon processors and the GK algorithm (Eq. 18) on pGK
// processors, as Section 9 does (n = 83 for p = 64; n = 295 for
// p = 484/512).
func predictedCrossover(pCannon, pGK int) float64 {
	pr := model.Params{Ts: machine.CM5StartupMicros / machine.CM5FlopMicros, Tw: machine.CM5PerWordMicros / machine.CM5FlopMicros}
	gk, _ := core.Lookup("gk")
	cannon, _ := core.Lookup("cannon")
	to := func(f core.Formulation, n float64, p int) float64 {
		return float64(p)*f.PaperTp(pr, n, float64(p), true) - n*n*n
	}
	// Solve To_GK(n, pGK) = To_Cannon(n, pCannon) for n by bisection.
	diff := func(n float64) float64 { return to(gk, n, pGK) - to(cannon, n, pCannon) }
	lo, hi := 2.0, 1e5
	if diff(lo) >= 0 || diff(hi) <= 0 {
		return 0
	}
	for i := 0; i < 200; i++ {
		mid := math.Sqrt(lo * hi)
		if diff(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Sqrt(lo * hi)
}

// Render prints an efficiency figure the way the paper plots it.
func (f *FigureEfficiency) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure %d — efficiency vs matrix size on the CM-5 model\n", f.Figure)
	fmt.Fprintf(&sb, "Cannon on p=%d, GK on p=%d\n", f.Cannon.P, f.GK.P)
	fmt.Fprintf(&sb, "%6s %12s %12s\n", "n", "E(Cannon)", "E(GK)")
	ns, grid := f.grid()
	for _, n := range ns {
		v := grid[n]
		sb.WriteString(fmt.Sprintf("%6d %12s %12s\n", n, fmtE(v[0]), fmtE(v[1])))
	}
	fmt.Fprintf(&sb, "simulated crossover n ≈ %.0f (model-predicted %.0f)\n", f.CrossoverN, f.PredictedCrossover)
	return sb.String()
}

// CSV emits the figure's series as comma-separated values with a
// header row (empty cells where a curve was not sampled), suitable for
// external plotting.
func (f *FigureEfficiency) CSV() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "n,cannon_p%d_efficiency,gk_p%d_efficiency\n", f.Cannon.P, f.GK.P)
	ns, grid := f.grid()
	for _, n := range ns {
		v := grid[n]
		sb.WriteString(fmt.Sprintf("%d,%s,%s\n", n, csvE(v[0]), csvE(v[1])))
	}
	return sb.String()
}

func csvE(e float64) string {
	if e == 0 {
		return ""
	}
	return fmt.Sprintf("%.6f", e)
}

func fmtE(e float64) string {
	if e == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f", e)
}

// grid pairs the two curves by matrix size: (E_Cannon, E_GK) per
// sampled n, 0 where a curve has no sample, with the sizes in
// increasing order so figure rendering and CSV emission are
// deterministic.
func (f *FigureEfficiency) grid() ([]int, map[int][2]float64) {
	grid := map[int][2]float64{}
	for _, pt := range f.Cannon.Points {
		v := grid[pt.N]
		v[0] = pt.E
		grid[pt.N] = v
	}
	for _, pt := range f.GK.Points {
		v := grid[pt.N]
		v[1] = pt.E
		grid[pt.N] = v
	}
	ns := make([]int, 0, len(grid))
	for n := range grid { //nodetbreak:ordered — sorted immediately below
		ns = append(ns, n)
	}
	sort.Ints(ns)
	return ns, grid
}

// Plot renders the figure as an ASCII chart, the way the paper plots
// efficiency against matrix size.
func (f *FigureEfficiency) Plot() string {
	toSeries := func(c *EfficiencyCurve, marker byte) plot.Series {
		s := plot.Series{Name: fmt.Sprintf("%s(p=%d)", c.Algorithm, c.P), Marker: marker}
		for _, pt := range c.Points {
			s.X = append(s.X, float64(pt.N))
			s.Y = append(s.Y, pt.E)
		}
		return s
	}
	ch := plot.Chart{
		Title:  fmt.Sprintf("Figure %d — efficiency vs matrix size (simulated CM-5)", f.Figure),
		XLabel: "n",
		Series: []plot.Series{toSeries(&f.Cannon, 'c'), toSeries(&f.GK, 'g')},
	}
	return ch.Render() + fmt.Sprintf("crossover n ≈ %.0f (model-predicted %.0f)\n", f.CrossoverN, f.PredictedCrossover)
}
