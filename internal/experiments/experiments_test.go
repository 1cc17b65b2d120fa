package experiments

import (
	"math"
	"strings"
	"testing"

	"matscale/internal/model"
)

func TestFigureParams(t *testing.T) {
	for fig, ts := range map[int]float64{1: 150, 2: 10, 3: 0.5} {
		pr, err := FigureParams(fig)
		if err != nil || pr.Ts != ts || pr.Tw != 3 {
			t.Fatalf("FigureParams(%d) = %+v, %v", fig, pr, err)
		}
	}
	if _, err := FigureParams(9); err == nil {
		t.Fatal("FigureParams(9) should error")
	}
}

func TestTable1Renders(t *testing.T) {
	s := Table1(model.Params{Ts: 150, Tw: 3})
	for _, frag := range []string{"Berntsen", "Cannon", "GK", "DNS", "O(p^1.5)", "O(p log p)", "n² ≤ p ≤ n³"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Table1 missing %q", frag)
		}
	}
	// The fitted exponents must appear and be sane: look for the Cannon
	// row carrying a value close to 1.5.
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "Cannon") && !strings.Contains(line, "1.5") {
			t.Errorf("Cannon row lacks fitted 1.5 exponent: %q", line)
		}
	}
}

func TestRegionFigureMatchesDirectCompute(t *testing.T) {
	m, err := RegionFigure(2, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.PExp) != 11 || len(m.NExp) != 9 {
		t.Fatalf("map dims %dx%d", len(m.NExp), len(m.PExp))
	}
	if _, err := RegionFigure(7, 4, 4); err == nil {
		t.Fatal("bad figure accepted")
	}
}

func TestFigure4CrossoverMatchesPaper(t *testing.T) {
	f, err := EfficiencyFigure(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Section 9: predicted crossover n = 83, observed n = 96. Our
	// simulator uses the paper's constants for both programs, so the
	// simulated crossover should track the prediction closely.
	if f.PredictedCrossover < 75 || f.PredictedCrossover > 90 {
		t.Fatalf("predicted crossover = %v, want ≈83", f.PredictedCrossover)
	}
	if f.CrossoverN < 64 || f.CrossoverN > 104 {
		t.Fatalf("simulated crossover = %v, want ≈83 (paper observed 96)", f.CrossoverN)
	}
	// GK more efficient below the crossover, Cannon above.
	if gk, ca := f.GK.Points[1], f.Cannon.Points[1]; gk.E <= ca.E {
		t.Fatalf("n=%d: GK E=%v should beat Cannon E=%v", gk.N, gk.E, ca.E)
	}
	last := len(f.GK.Points) - 1
	if gk, ca := f.GK.Points[last], f.Cannon.Points[last]; gk.E >= ca.E {
		t.Fatalf("n=%d: Cannon E=%v should beat GK E=%v", gk.N, ca.E, gk.E)
	}
	// Efficiency must increase with n for both (scalable systems).
	for i := 1; i < len(f.GK.Points); i++ {
		if f.GK.Points[i].E <= f.GK.Points[i-1].E {
			t.Fatalf("GK efficiency not increasing at n=%d", f.GK.Points[i].N)
		}
	}
	if s := f.Render(); !strings.Contains(s, "Figure 4") || !strings.Contains(s, "crossover") {
		t.Errorf("Render output malformed:\n%s", s)
	}
}

func TestFigure5CrossoverMatchesPaper(t *testing.T) {
	f, err := EfficiencyFigure(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Section 9: predicted crossover n = 295 at E ≈ 0.93.
	if f.PredictedCrossover < 250 || f.PredictedCrossover > 330 {
		t.Fatalf("predicted crossover = %v, want ≈295", f.PredictedCrossover)
	}
	if f.CrossoverN < 230 || f.CrossoverN > 340 {
		t.Fatalf("simulated crossover = %v, want ≈295", f.CrossoverN)
	}
	// The paper's plot shows the crossover at E ≈ 0.93; plugging its own
	// published constants into Eq. (18) yields E ≈ 0.69 at that point
	// (the plotted efficiencies embed measured runtime constants that
	// differ from the quoted ts/tw — see EXPERIMENTS.md). The shape
	// claim — the curves cross while both are already efficient, so
	// Cannon "can not outperform the GK algorithm by a wide margin" —
	// is what we assert.
	eAtCross := f.GK.interpolate(f.CrossoverN)
	if eAtCross < 0.6 {
		t.Fatalf("efficiency at crossover = %v, want high (paper plots ≈0.93)", eAtCross)
	}
	// "The GK algorithm achieves an efficiency of 0.5 for a matrix size
	// of 112×112, whereas Cannon's algorithm operates at an efficiency
	// of only 0.28 on 484 processors on 110×110 matrices": our
	// constants give the same strong separation (the paper's absolute
	// values reflect its measured runtime constants).
	var gk112, ca110 float64
	for _, pt := range f.GK.Points {
		if pt.N == 112 {
			gk112 = pt.E
		}
	}
	for _, pt := range f.Cannon.Points {
		if pt.N == 110 {
			ca110 = pt.E
		}
	}
	if gk112 == 0 || ca110 == 0 {
		t.Fatal("sample sizes 112/110 missing from sweeps")
	}
	if gk112 < 1.5*ca110 {
		t.Fatalf("GK(112)=%v vs Cannon(110)=%v: separation lost", gk112, ca110)
	}
}

func TestCrossoverReport(t *testing.T) {
	s := CrossoverReport(model.Params{Ts: 150, Tw: 3})
	for _, frag := range []string{"Eq. 15", "1.3e8", "DNS"} {
		if !strings.Contains(s, frag) {
			t.Errorf("CrossoverReport missing %q:\n%s", frag, s)
		}
	}
}

func TestAllPortReportConclusion(t *testing.T) {
	s := AllPortReport(model.Params{Ts: 10, Tw: 3})
	if strings.Contains(s, "UNEXPECTED") {
		t.Fatalf("all-port analysis contradicts the paper:\n%s", s)
	}
	if !strings.Contains(s, "does not improve") {
		t.Fatalf("missing conclusion:\n%s", s)
	}
}

func TestTechnologyReport(t *testing.T) {
	s, err := TechnologyReport(model.Params{Ts: 0.5, Tw: 3}, 1<<14, 0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Cannon", "more processors", "faster processors"} {
		if !strings.Contains(s, frag) {
			t.Errorf("TechnologyReport missing %q:\n%s", frag, s)
		}
	}
	if _, err := TechnologyReport(model.Params{Ts: 150, Tw: 3}, 1<<14, 0.9, 10); err == nil {
		t.Fatal("expected failure above DNS ceiling")
	}
}

func TestImprovedGKReportShowsThreshold(t *testing.T) {
	s := ImprovedGKReport(model.Params{Ts: 9, Tw: 1}, 512)
	if !strings.Contains(s, "naive") || !strings.Contains(s, "improved") {
		t.Fatalf("report lacks winners:\n%s", s)
	}
}

func TestInterpolate(t *testing.T) {
	c := EfficiencyCurve{Points: []EfficiencyPoint{{N: 10, E: 0.2}, {N: 20, E: 0.4}}}
	if v := c.interpolate(15); math.Abs(v-0.3) > 1e-12 {
		t.Fatalf("interpolate(15) = %v", v)
	}
	if !math.IsNaN(c.interpolate(5)) || !math.IsNaN(c.interpolate(25)) {
		t.Fatal("out-of-range interpolation should be NaN")
	}
}

func TestFigureEfficiencyCSV(t *testing.T) {
	f := &FigureEfficiency{
		Figure: 4,
		Cannon: EfficiencyCurve{Algorithm: "Cannon", P: 64, Points: []EfficiencyPoint{{N: 8, E: 0.25}, {N: 16, E: 0.5}}},
		GK:     EfficiencyCurve{Algorithm: "GK", P: 64, Points: []EfficiencyPoint{{N: 16, E: 0.6}}},
	}
	csv := f.CSV()
	if !strings.Contains(csv, "n,cannon_p64_efficiency,gk_p64_efficiency") {
		t.Fatalf("missing header:\n%s", csv)
	}
	if !strings.Contains(csv, "8,0.250000,\n") || !strings.Contains(csv, "16,0.500000,0.600000\n") {
		t.Fatalf("rows malformed:\n%s", csv)
	}
}

func TestFigureEfficiencyPlot(t *testing.T) {
	f := &FigureEfficiency{
		Figure:     4,
		Cannon:     EfficiencyCurve{Algorithm: "Cannon", P: 64, Points: []EfficiencyPoint{{N: 8, E: 0.2}, {N: 96, E: 0.7}}},
		GK:         EfficiencyCurve{Algorithm: "GK", P: 64, Points: []EfficiencyPoint{{N: 8, E: 0.5}, {N: 96, E: 0.65}}},
		CrossoverN: 80, PredictedCrossover: 82,
	}
	s := f.Plot()
	for _, frag := range []string{"Figure 4", "c=Cannon(p=64)", "g=GK(p=64)", "crossover n ≈ 80"} {
		if !strings.Contains(s, frag) {
			t.Errorf("plot missing %q:\n%s", frag, s)
		}
	}
}
