package matrix

import (
	"math"
	"testing"
	"testing/quick"
)

// isSymmetric reports whether m equals its transpose within eps.
func isSymmetric(m *Dense, eps float64) bool {
	if !m.IsSquare() {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.Data[i*m.Cols+j]-m.Data[j*m.Cols+i]) > eps {
				return false
			}
		}
	}
	return true
}

func TestBandedStructure(t *testing.T) {
	m := Banded(10, 2, 7)
	if bw := Bandwidth(m); bw > 2 {
		t.Fatalf("Bandwidth = %d, want ≤ 2", bw)
	}
	// The band itself is populated (deterministic generator never
	// produces an exact zero in practice for these seeds).
	if m.At(3, 3) == 0 || m.At(3, 5) == 0 {
		t.Fatal("band entries unexpectedly zero")
	}
	if m.At(0, 5) != 0 {
		t.Fatal("entry outside band is nonzero")
	}
}

func TestBandedNegativePanics(t *testing.T) {
	defer expectPanic(t, "negative bandwidth")
	Banded(4, -1, 1)
}

func TestBandwidthCases(t *testing.T) {
	if Bandwidth(New(3, 4)) != -1 {
		t.Fatal("non-square bandwidth should be -1")
	}
	if Bandwidth(Diagonal([]float64{1, 2, 3})) != 0 {
		t.Fatal("diagonal bandwidth should be 0")
	}
	if Bandwidth(Random(6, 6, 3)) != 5 {
		t.Fatal("dense random bandwidth should be n-1")
	}
}

// Band product property: multiplying band-b₁ and band-b₂ matrices
// yields bandwidth at most b₁+b₂.
func TestQuickBandProductBandwidth(t *testing.T) {
	f := func(seed uint64, b1Raw, b2Raw uint8) bool {
		n := 12
		b1, b2 := int(b1Raw)%4, int(b2Raw)%4
		a := Banded(n, b1, seed)
		b := Banded(n, b2, seed+1)
		return Bandwidth(Mul(a, b)) <= b1+b2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSymmetric(t *testing.T) {
	m := Symmetric(9, 4)
	if !isSymmetric(m, 0) {
		t.Fatal("Symmetric produced an asymmetric matrix")
	}
	asym := Random(9, 9, 5)
	if isSymmetric(asym, 0) {
		t.Fatal("random matrix misclassified as symmetric")
	}
	if isSymmetric(New(2, 3), 0) {
		t.Fatal("rectangular misclassified as symmetric")
	}
}

// A·Aᵀ is always symmetric — and its computation goes through the full
// multiply path.
func TestQuickGramSymmetric(t *testing.T) {
	f := func(seed uint64) bool {
		a := Random(7, 5, seed)
		return isSymmetric(Mul(a, a.Transpose()), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHilbertKnownEntries(t *testing.T) {
	h := Hilbert(4)
	if h.At(0, 0) != 1 || h.At(1, 2) != 0.25 || math.Abs(h.At(3, 3)-1.0/7) > 1e-15 {
		t.Fatalf("Hilbert entries wrong: %v", h)
	}
	if !isSymmetric(h, 0) {
		t.Fatal("Hilbert matrix must be symmetric")
	}
}

func TestDiagonalProduct(t *testing.T) {
	d := Diagonal([]float64{2, 3})
	a := FromRows([][]float64{{1, 1}, {1, 1}})
	got := Mul(d, a)
	want := FromRows([][]float64{{2, 2}, {3, 3}})
	if MaxAbsDiff(got, want) != 0 {
		t.Fatalf("D·A = %v", got)
	}
}
