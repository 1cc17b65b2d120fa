package model

import (
	"math"
	"testing"
)

// totalMemory returns p times the per-processor requirement.
func totalMemory(perProc func(n, p float64) float64, n, p float64) float64 {
	return p * perProc(n, p)
}

// memoryEfficient reports whether the formulation's total memory stays
// within factor of the serial algorithm's 2n² input storage at (n, p).
func memoryEfficient(perProc func(n, p float64) float64, n, p, factor float64) bool {
	return totalMemory(perProc, n, p) <= factor*2*n*n
}

func TestMemoryPerProcKnownValues(t *testing.T) {
	n, p := 64.0, 64.0 // √p=8, p^(2/3)=16
	if got, want := SimpleMemoryPerProc(n, p), 64.0+2*8*64; got != want {
		t.Errorf("Simple = %v, want %v", got, want)
	}
	if got, want := CannonMemoryPerProc(n, p), 3*64.0; got != want {
		t.Errorf("Cannon = %v, want %v", got, want)
	}
	if got, want := BerntsenMemoryPerProc(n, p), 2*64.0+4096/16.0; got != want {
		t.Errorf("Berntsen = %v, want %v", got, want)
	}
	if got, want := GKMemoryPerProc(n, p), 3*4096/16.0; got != want {
		t.Errorf("GK = %v, want %v", got, want)
	}
}

func TestMemoryEfficiencyClassification(t *testing.T) {
	// Section 4.2: Cannon is memory efficient — total stays O(n²) at
	// any p. Sections 4.1/4.4/4.6: the others are not.
	n := 1024.0
	for _, p := range []float64{64, 4096, 1 << 18} {
		if !memoryEfficient(CannonMemoryPerProc, n, p, 2) {
			t.Errorf("Cannon not memory efficient at p=%v", p)
		}
	}
	// Simple's total grows like √p: inefficient at large p.
	if memoryEfficient(SimpleMemoryPerProc, n, 1<<18, 4) {
		t.Error("Simple classified memory efficient at p=2^18")
	}
	// GK's total grows like p^(1/3).
	if memoryEfficient(GKMemoryPerProc, n, 1<<18, 4) {
		t.Error("GK classified memory efficient at p=2^18")
	}
	// Berntsen: total = 2n² + n²·p^(1/3) — also inefficient, as the
	// paper notes ("like the one in Section 4.1 is not memory
	// efficient").
	if memoryEfficient(BerntsenMemoryPerProc, n, 1<<18, 4) {
		t.Error("Berntsen classified memory efficient at p=2^18")
	}
}

func TestMemoryGrowthRates(t *testing.T) {
	// Total memory growth exponents in p at fixed n: Simple 1/2,
	// GK/Berntsen 1/3, Cannon 0.
	n := 4096.0
	rate := func(f func(n, p float64) float64) float64 {
		lo, hi := totalMemory(f, n, 1<<12), totalMemory(f, n, 1<<24)
		return math.Log2(hi/lo) / 12
	}
	if r := rate(CannonMemoryPerProc); math.Abs(r) > 1e-9 {
		t.Errorf("Cannon total-memory growth = %v, want 0", r)
	}
	if r := rate(SimpleMemoryPerProc); math.Abs(r-0.5) > 0.01 {
		t.Errorf("Simple total-memory growth = %v, want 0.5", r)
	}
	if r := rate(GKMemoryPerProc); math.Abs(r-1.0/3.0) > 1e-9 {
		t.Errorf("GK total-memory growth = %v, want 1/3", r)
	}
	if r := rate(BerntsenMemoryPerProc); r < 0.2 || r > 1.0/3.0+1e-9 {
		t.Errorf("Berntsen total-memory growth = %v, want ≤1/3 approaching it", r)
	}
}
