package experiments

import (
	"math"
	"strings"
	"testing"

	"matscale/internal/core"
	"matscale/internal/model"
)

var valParams = model.Params{Ts: 17, Tw: 3}

func TestIsoefficiencyValidationCannon(t *testing.T) {
	// Growing W along Cannon's isoefficiency curve must hold the
	// simulated efficiency at the target across a 64x processor range
	// (up to the rounding of n to a runnable multiple of √p).
	pts, err := IsoefficiencyValidation(valParams, 0.5, "cannon", []int{4, 16, 64, 256}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, pt := range pts {
		if math.Abs(pt.EMeasured-pt.ETarget) > 0.08 {
			t.Errorf("p=%d n=%d: measured E=%.3f, target %.2f", pt.P, pt.N, pt.EMeasured, pt.ETarget)
		}
	}
	// The prescribed problem sizes must grow superlinearly in p
	// (W ~ p^1.5 means n ~ p^0.5).
	if pts[3].N <= pts[0].N*3 {
		t.Errorf("n barely grew: %d -> %d across 64x processors", pts[0].N, pts[3].N)
	}
}

func TestIsoefficiencyValidationGK(t *testing.T) {
	pts, err := IsoefficiencyValidation(valParams, 0.6, "gk", []int{8, 64, 512}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		if math.Abs(pt.EMeasured-pt.ETarget) > 0.08 {
			t.Errorf("p=%d n=%d: measured E=%.3f, target %.2f", pt.P, pt.N, pt.EMeasured, pt.ETarget)
		}
	}
	// GK's near-linear isoefficiency: n grows roughly like p^(1/3)·
	// polylog — much slower than Cannon's √p law.
	if float64(pts[2].N) > 12*float64(pts[0].N) {
		t.Errorf("GK problem growth implausibly fast: %d -> %d", pts[0].N, pts[2].N)
	}
	s := RenderIso("gk", pts)
	if !strings.Contains(s, "E simulated") {
		t.Errorf("render malformed:\n%s", s)
	}
}

func TestIsoefficiencyValidationUnknownAlgorithm(t *testing.T) {
	if _, err := IsoefficiencyValidation(valParams, 0.5, "nope", []int{4}, 0); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestPredictionAccuracyCrossValidation(t *testing.T) {
	// Race the four algorithms over a runnable grid and compare with
	// the Table 1 prediction. The prediction must either hit, or miss
	// with small regret (the predicted algorithm within 35% of the
	// winner) — Section 6's analysis is a coarse but sound guide.
	outcomes, err := PredictionAccuracy(valParams, []int{16, 32, 48, 64}, []int{64, 256, 512}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) < 5 {
		t.Fatalf("only %d comparable cells", len(outcomes))
	}
	hits := 0
	for _, o := range outcomes {
		if o.Predicted == o.Actual {
			hits++
			continue
		}
		if r := o.Regret(); r > 1.35 {
			t.Errorf("n=%d p=%d: predicted %s (Tp=%.0f) but %s won (Tp=%.0f), regret %.2f",
				o.N, o.P, o.Predicted, o.PredictedTp, o.Actual, o.BestTp, r)
		}
	}
	if float64(hits) < 0.5*float64(len(outcomes)) {
		t.Errorf("prediction hit rate %d/%d below 50%%", hits, len(outcomes))
	}
	s := RenderPrediction(outcomes)
	if !strings.Contains(s, "predicted correctly") {
		t.Errorf("render malformed:\n%s", s)
	}
}

func TestSpeedupSaturation(t *testing.T) {
	pr := model.Params{Ts: 150, Tw: 3}
	pts, err := SpeedupSaturation(pr, core.Cannon, 64, []int{1, 4, 16, 64, 256, 1024, 4096}, 0)
	if err != nil {
		t.Fatal(err)
	}
	peak, fell := PeakSpeedup(pts)
	if !fell {
		t.Fatal("speedup never saturated for fixed n — Section 3's premise lost")
	}
	if peak.P <= 4 || peak.P >= 4096 {
		t.Fatalf("implausible peak at p=%d", peak.P)
	}
	// Serial baseline: exactly S=1, E=1 at p=1.
	if pts[0].Speedup != 1 || pts[0].Efficiency != 1 {
		t.Fatalf("p=1 point = %+v, want S=E=1", pts[0])
	}
	s := RenderSpeedup(64, pts)
	if !strings.Contains(s, "saturation") {
		t.Errorf("render missing saturation note:\n%s", s)
	}
}

func TestSpeedupSaturationPropagatesErrors(t *testing.T) {
	pr := model.Params{Ts: 1, Tw: 1}
	if _, err := SpeedupSaturation(pr, core.Cannon, 9, []int{4}, 0); err == nil {
		t.Fatal("indivisible config accepted")
	}
}

func TestTsSweepWinnerFlips(t *testing.T) {
	// At fixed (n, p) the GK algorithm wins on high-startup machines
	// (its ts coefficient (5/3)·log p beats Cannon's 2·√p) and Cannon
	// wins as ts → 0 (its tw coefficient is smaller) — the machine-
	// dependence at the heart of Section 6.
	pts, err := TsSweep(3, 64, 64, []float64{0, 1, 10, 100, 1000}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Winner != "Cannon" {
		t.Fatalf("ts=0: winner %s, want Cannon", pts[0].Winner)
	}
	if pts[len(pts)-1].Winner != "GK" {
		t.Fatalf("ts=1000: winner %s, want GK", pts[len(pts)-1].Winner)
	}
	// The flip is monotone: once GK wins it keeps winning as ts grows.
	flipped := false
	for _, pt := range pts {
		if pt.Winner == "GK" {
			flipped = true
		} else if flipped {
			t.Fatalf("winner flipped back at ts=%v", pt.Ts)
		}
	}
	if s := RenderTsSweep(3, 64, 64, pts); !strings.Contains(s, "winner") {
		t.Errorf("render malformed:\n%s", s)
	}
}

func TestRunAllQuick(t *testing.T) {
	var sb strings.Builder
	if err := RunAll(&sb, true, 0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, frag := range []string{
		"Table 1", "Figure 1", "Figure 2", "Figure 3",
		"Section 6", "Section 7", "Section 8",
		"isoefficiency holds", "predictions vs simulated races", "saturation",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("RunAll output missing %q", frag)
		}
	}
	if strings.Contains(out, "Figure 4") {
		t.Error("quick mode should skip Figure 4")
	}
}
