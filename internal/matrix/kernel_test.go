package matrix

import (
	"fmt"
	"math"
	"testing"
)

// kernelSizes is the differential grid: degenerate shapes, primes that
// never divide the panel sizes, exact panel multiples, off-by-one
// around every tile boundary, and sizes larger than one panel.
var kernelSizes = []int{1, 2, 3, 4, 5, 7, 8, 13, 17, 31, 63, 64, 65, 67, 127, 128, 129, 255, 256, 257, 300}

// mulAddIntoNaive is the original i-k-j triple loop, kept as the
// reference implementation for the differential bit-identity tests and
// BenchmarkMulAddIntoNaive. MulAddInto must agree with it bit for bit on every input.
func mulAddIntoNaive(c, a, b *Dense) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("matrix: Mul inner dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: Mul output shape %dx%d, want %dx%d", c.Rows, c.Cols, a.Rows, b.Cols))
	}
	n, m, k := a.Rows, b.Cols, a.Cols
	for i := 0; i < n; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := c.Data[i*m : (i+1)*m]
		for l := 0; l < k; l++ {
			av := arow[l]
			if av == 0 {
				continue
			}
			brow := b.Data[l*m : (l+1)*m]
			for j := 0; j < m; j++ {
				crow[j] += av * brow[j]
			}
		}
	}
}

// mulBitIdentical runs both kernels against identical inputs and fails
// on the first output element whose bits differ.
func mulBitIdentical(t *testing.T, a, b *Dense) {
	t.Helper()
	got := New(a.Rows, b.Cols)
	want := New(a.Rows, b.Cols)
	MulAddInto(got, a, b)
	mulAddIntoNaive(want, a, b)
	for i := range want.Data {
		g, w := math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i])
		if g != w {
			t.Fatalf("%dx%d · %dx%d: element %d: tiled %x (%v) != naive %x (%v)",
				a.Rows, a.Cols, b.Rows, b.Cols, i, g, got.Data[i], w, want.Data[i])
		}
	}
}

// TestMulAddIntoBitIdenticalSquare proves the determinism contract: the
// tiled kernel reproduces the naive kernel bit for bit across square
// sizes including 1, primes, and non-tile multiples.
func TestMulAddIntoBitIdenticalSquare(t *testing.T) {
	for _, n := range kernelSizes {
		a := Random(n, n, uint64(n)*2+1)
		b := Random(n, n, uint64(n)*2+2)
		mulBitIdentical(t, a, b)
	}
}

// TestMulAddIntoBitIdenticalRectangular covers rectangular shapes with
// inner dimensions that straddle the depth-panel and unroll boundaries.
func TestMulAddIntoBitIdenticalRectangular(t *testing.T) {
	shapes := [][3]int{
		{1, 1, 1}, {1, 300, 1}, {300, 1, 300}, {3, 129, 5},
		{17, 4, 31}, {64, 127, 65}, {130, 128, 126}, {5, 257, 255},
		{2, 3, 259}, {259, 2, 3},
	}
	for _, s := range shapes {
		a := Random(s[0], s[1], 11)
		b := Random(s[1], s[2], 13)
		mulBitIdentical(t, a, b)
	}
}

// TestMulAddIntoBitIdenticalSpecialValues exercises the zero-skip
// semantics: a[i,l] == 0 must suppress the contribution even when the
// matching b row holds Inf or NaN (0·Inf would otherwise inject NaN),
// and nonzero contributions must propagate Inf/NaN identically.
func TestMulAddIntoBitIdenticalSpecialValues(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, n := range []int{4, 7, 64, 129} {
		a := Random(n, n, 101)
		b := Random(n, n, 103)
		// Sprinkle structured zeros into a: full zero rows, zero
		// diagonal band, and zeros placed to split the 4-deep groups.
		for l := 0; l < n; l++ {
			a.Set(0, l, 0)
			if l%4 == 2 {
				a.Set(n/2, l, 0)
			}
			if l%7 == 0 {
				a.Set(n-1, l, 0)
			}
		}
		// Poison b rows that zeroed a-entries point at, plus some live rows.
		b.Set(2%n, 0, inf)
		b.Set(2%n, n-1, nan)
		if n > 4 {
			b.Set(5, 1, inf)
			b.Set(6, 2, nan)
		}
		mulBitIdentical(t, a, b)
	}
}

// TestMulAddIntoAccumulates verifies c += a·b semantics (the output is
// accumulated into, not overwritten) identically in both kernels.
func TestMulAddIntoAccumulates(t *testing.T) {
	n := 67
	a := Random(n, n, 1)
	b := Random(n, n, 2)
	got := Random(n, n, 3)
	want := got.Clone()
	MulAddInto(got, a, b)
	mulAddIntoNaive(want, a, b)
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("accumulation differs at element %d: %v != %v", i, got.Data[i], want.Data[i])
		}
	}
}

// benchMulKernel benchmarks one kernel at one square size.
func benchMulKernel(b *testing.B, n int, kernel func(c, a, b *Dense)) {
	x := Random(n, n, 42)
	y := Random(n, n, 43)
	c := New(n, n)
	b.SetBytes(int64(n) * int64(n) * int64(n) * 16) // 2 flops/element, 8 B/word
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel(c, x, y)
	}
}

// The benchmark grid: tiled vs naive at the block sizes the
// formulations actually multiply (per-rank blocks of n=256..512 sweeps)
// up to whole-problem sizes.
func BenchmarkMulAddIntoTiled(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchMulKernel(b, n, MulAddInto) })
	}
}

func BenchmarkMulAddIntoNaive(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchMulKernel(b, n, mulAddIntoNaive) })
	}
}
