package experiments

import (
	"strings"
	"testing"

	"matscale/internal/core"
	"matscale/internal/model"
)

func TestPeakSpeedupEmptyInput(t *testing.T) {
	peak, fell := PeakSpeedup(nil)
	if peak.P != 0 || peak.Speedup != 0 || fell {
		t.Fatalf("PeakSpeedup(nil) = %+v, %v; want zero point and no fall", peak, fell)
	}
}

func TestPeakSpeedupMonotoneRiseNeverFalls(t *testing.T) {
	pts := []SpeedupPoint{
		{P: 1, Speedup: 1},
		{P: 4, Speedup: 3.2},
		{P: 16, Speedup: 9.5},
	}
	peak, fell := PeakSpeedup(pts)
	if peak.P != 16 || fell {
		t.Fatalf("peak = %+v fell = %v; want peak at the last point, no fall", peak, fell)
	}
}

func TestPeakSpeedupDetectsSaturation(t *testing.T) {
	pts := []SpeedupPoint{
		{P: 1, Speedup: 1},
		{P: 16, Speedup: 8},
		{P: 64, Speedup: 5}, // fell past the peak
	}
	peak, fell := PeakSpeedup(pts)
	if peak.P != 16 || !fell {
		t.Fatalf("peak = %+v fell = %v; want peak at p=16 with a fall after", peak, fell)
	}
}

func TestTsSweepIdenticalAcrossWorkerCounts(t *testing.T) {
	tsValues := []float64{0, 10, 100, 1000}
	serial, err := TsSweep(3, 16, 64, tsValues, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := TsSweep(3, 16, 64, tsValues, 4)
	if err != nil {
		t.Fatal(err)
	}
	if RenderTsSweep(3, 16, 64, serial) != RenderTsSweep(3, 16, 64, parallel) {
		t.Fatal("TsSweep output depends on the worker count")
	}
}

func TestRenderTsSweep(t *testing.T) {
	pts := []TsSweepPoint{
		{Ts: 0, TpCannon: 100, TpGK: 150, Winner: "Cannon"},
		{Ts: 300, TpCannon: 900, TpGK: 700, Winner: "GK"},
	}
	out := RenderTsSweep(3, 64, 64, pts)
	for _, frag := range []string{"n=64 p=64 tw=3", "Tp Cannon", "Tp GK", "winner", "Cannon", "GK"} {
		if !strings.Contains(out, frag) {
			t.Errorf("RenderTsSweep missing %q:\n%s", frag, out)
		}
	}
	if got := len(strings.Split(strings.TrimSpace(out), "\n")); got != 4 {
		t.Errorf("want 2 header + 2 data lines, got %d", got)
	}
}

func TestSpeedupSaturationIdenticalAcrossWorkerCounts(t *testing.T) {
	pr := model.Params{Ts: 150, Tw: 3}
	ps := []int{1, 4, 16, 64, 256}
	serial, err := SpeedupSaturation(pr, core.Cannon, 16, ps, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := SpeedupSaturation(pr, core.Cannon, 16, ps, 4)
	if err != nil {
		t.Fatal(err)
	}
	if RenderSpeedup(16, serial) != RenderSpeedup(16, parallel) {
		t.Fatal("SpeedupSaturation output depends on the worker count")
	}
	if _, fell := PeakSpeedup(serial); !fell {
		t.Fatal("n=16 run did not show the Section 3 saturation")
	}
}

func TestSpeedupSaturationErrorNamesTheCell(t *testing.T) {
	pr := model.Params{Ts: 150, Tw: 3}
	// p=8 is not a perfect square: Cannon rejects it.
	_, err := SpeedupSaturation(pr, core.Cannon, 16, []int{1, 4, 8}, 0)
	if err == nil || !strings.Contains(err.Error(), "p=8") {
		t.Fatalf("err = %v, want the p=8 cell named", err)
	}
}
