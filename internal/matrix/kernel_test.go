package matrix

import (
	"fmt"
	"math"
	"slices"
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

// blockSides is MulAddBlock's differential grid for rows, cols and k:
// every side up to two 4-wide tiles plus one, sides that leave 1–3 row
// and column edges, and the paper grid's odd block sides.
var blockSides = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 22, 33}

// wideSides extend the grid for rows and cols with sides one short of,
// at and one past 16-wide tiles.
var wideSides = []int{15, 16, 17, 31, 47}

// signedZeros gate the skip; with the nonzero kernelSpecials
// (fuzz_test.go) they make the special-value palette.
var signedZeros = [...]float64{0, math.Copysign(0, -1)}

// Operand fills for blockMatchesNaive.
const (
	fillPlain    = iota // Random values only
	fillSpecials        // any special, zeros included, in a and b: most rows of a take the scalar fallback
	fillNonzeroA        // specials but no zero in a, any special in b: the tiles see Inf and NaN
)

// sameBits reports whether x and y have the same bits or are both NaN.
// When two NaNs meet in one multiply or add, which payload survives
// depends on the instruction's operand order, and the Go compiler does
// not fix that order: the naive loop and the kernel's own scalar
// fallback, the same source shape, compile to opposite add orders. For
// every other value, IEEE multiply and add are commutative, so equal
// per-element operation sequences give equal bits.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// forEachDispatch runs f as a subtest once per tile family the host can
// dispatch to (withEachTarget), named after the family.
func forEachDispatch(t *testing.T, f func(t *testing.T)) {
	withEachTarget(t, func(name string) { t.Run(name, f) })
}

// TestMulAddBlockMatchesNaive pins the strided entry to the naive loop
// on copied blocks: every rows × cols × k of blockSides (rows and cols
// also of wideSides), blocks at
// offsets inside operands wider and taller than the block, under each
// operand fill, on every kernel the host can dispatch to. Elements of
// c outside the block must not move.
func TestMulAddBlockMatchesNaive(t *testing.T) {
	forEachDispatch(t, func(t *testing.T) {
		g := rng{state: 7}
		sides := append(slices.Clone(blockSides), wideSides...)
		for _, rows := range sides {
			for _, cols := range sides {
				for _, k := range blockSides {
					for fill := fillPlain; fill <= fillNonzeroA; fill++ {
						blockMatchesNaive(t, &g, rows, cols, k, fill)
					}
				}
			}
		}
	})
}

// blockMatchesNaive runs one MulAddBlock case: operands with a margin
// of 1–3 rows and 1–5 columns around the block, drawn from g.
func blockMatchesNaive(t *testing.T, g *rng, rows, cols, k, fill int) {
	t.Helper()
	at := func(n uint64) int { return int(g.next() % n) }
	ci, cj, ai, aj, bi, bj := at(3), at(5), at(3), at(5), at(3), at(5)
	seed := g.next()
	c := Random(ci+rows+at(3)+1, cj+cols+at(5)+1, seed)
	a := Random(ai+rows+at(3)+1, aj+k+at(5)+1, seed+1)
	b := Random(bi+k+at(3)+1, bj+cols+at(5)+1, seed+2)
	sprinkle := func(m *Dense, palette []float64) {
		for i := range m.Data {
			if g.next()%4 == 0 {
				m.Data[i] = palette[g.next()%uint64(len(palette))]
			}
		}
	}
	all := append(signedZeros[:], kernelSpecials[:]...)
	switch fill {
	case fillSpecials:
		sprinkle(a, all)
		sprinkle(b, all)
	case fillNonzeroA:
		sprinkle(a, kernelSpecials[:])
		sprinkle(b, all)
	}
	want := c.Block(ci, cj, rows, cols)
	mulAddIntoNaive(want, a.Block(ai, aj, rows, k), b.Block(bi, bj, k, cols))
	before := c.Clone()
	MulAddBlock(c, ci, cj, a, ai, aj, b, bi, bj, rows, cols, k)
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			w := before.At(i, j)
			if i >= ci && i < ci+rows && j >= cj && j < cj+cols {
				w = want.At(i-ci, j-cj)
			}
			if got := c.At(i, j); !sameBits(got, w) {
				t.Fatalf("%dx%d · %dx%d (fill %d), c at (%d,%d) in %dx%d: element (%d,%d) = %x (%v), want %x (%v)",
					rows, k, k, cols, fill, ci, cj, c.Rows, c.Cols, i, j,
					math.Float64bits(got), got, math.Float64bits(w), w)
			}
		}
	}
}

// TestHasZero pins the scan that routes rows to the scalar fallback:
// over 1–3 rows of every length up to past two 8-element steps, laid
// out with a stride wider than the row, a zero of either sign at any
// position is found, and infinities, NaN and denormals (also in the
// gap between rows) are not zeros.
func TestHasZero(t *testing.T) {
	forEachDispatch(t, func(t *testing.T) {
		nonzero := kernelSpecials[:]
		for rows := 1; rows <= 3; rows++ {
			for k := 0; k <= 19; k++ {
				lda := k + 2
				a := make([]float64, rows*lda)
				for i := range a {
					a[i] = nonzero[i%len(nonzero)]
				}
				if hasZero(a, lda, rows, k) {
					t.Fatalf("%dx%d without zeros: hasZero = true", rows, k)
				}
				for r := 0; r < rows; r++ {
					for l := 0; l < k; l++ {
						for _, z := range signedZeros {
							saved := a[r*lda+l]
							a[r*lda+l] = z
							if !hasZero(a, lda, rows, k) {
								t.Fatalf("%dx%d, %v at (%d,%d): hasZero = false", rows, k, z, r, l)
							}
							a[r*lda+l] = saved
						}
					}
				}
			}
		}
	})
}

// TestMulAddBlockPanics pins the range contract: a block reaching past
// any operand, or a negative side, panics before anything is written.
func TestMulAddBlockPanics(t *testing.T) {
	a, b, c := New(4, 5), New(5, 6), New(4, 6)
	for _, tc := range []struct {
		name                   string
		ci, cj, ai, aj, bi, bj int
		rows, cols, k          int
	}{
		{"c rows", 1, 0, 0, 0, 0, 0, 4, 6, 5},
		{"a cols", 0, 0, 0, 1, 0, 0, 4, 6, 5},
		{"b rows", 0, 0, 0, 0, 1, 0, 4, 6, 5},
		{"b cols", 0, 1, 0, 0, 0, 1, 4, 6, 5},
		{"negative offset", -1, 0, 0, 0, 0, 0, 1, 1, 1},
		{"negative side", 0, 0, 0, 0, 0, 0, 1, -1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer expectPanic(t, "MulAddBlock")
			MulAddBlock(c, tc.ci, tc.cj, a, tc.ai, tc.aj, b, tc.bi, tc.bj, tc.rows, tc.cols, tc.k)
		})
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

// The benchmark grids. tiledSizes runs tiled vs naive at the block
// sizes the formulations actually multiply (per-rank blocks of
// n=256..512 sweeps) up to whole-problem sizes. blockSizes are the
// block sides the paper grid's formulations multiply per rank (n/√p
// and n/∛p for n ≤ 352 on p ≤ 512): the sizes where the per-call cost
// of the kernel, not its inner loop, sets the speed.
var (
	tiledSizes = []int{64, 128, 256, 512}
	blockSizes = []int{4, 11, 16, 22, 44}
)

func BenchmarkMulAddIntoTiled(b *testing.B) {
	for _, n := range tiledSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchMulKernel(b, n, MulAddInto) })
	}
}

func BenchmarkMulAddIntoNaive(b *testing.B) {
	for _, n := range tiledSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchMulKernel(b, n, mulAddIntoNaive) })
	}
}

// BenchmarkMulAddIntoBlocks times one block product at each of
// blockSizes.
func BenchmarkMulAddIntoBlocks(b *testing.B) {
	for _, bs := range blockSizes {
		b.Run(fmt.Sprintf("bs=%d", bs), func(b *testing.B) { benchMulKernel(b, bs, MulAddInto) })
	}
}

// BenchmarkTileTargets runs the MulAddIntoBlocks and MulAddIntoTiled
// grids on every tile family the host can dispatch to, so one run
// compares the families side by side (docs/PERFORMANCE.md §1).
func BenchmarkTileTargets(b *testing.B) {
	withEachTarget(b, func(name string) {
		b.Run(name, func(b *testing.B) {
			for _, bs := range blockSizes {
				b.Run(fmt.Sprintf("bs=%d", bs), func(b *testing.B) { benchMulKernel(b, bs, MulAddInto) })
			}
			for _, n := range tiledSizes {
				b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchMulKernel(b, n, MulAddInto) })
			}
		})
	})
}
