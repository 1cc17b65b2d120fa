package matrix

import "fmt"

// Panel sizes for the blocked kernel. A kcBlock×ncBlock panel of b
// (kcBlock·ncBlock·8 bytes = 256 KiB) stays resident in L2 while every
// 4-row group of a streams against it; inside a panel the micro-kernel
// keeps a tile of c in registers across the whole panel depth.
const (
	ncBlock = 256 // columns of b/c per panel
	kcBlock = 128 // depth of the shared dimension per panel
)

// tileRows is the micro-kernel's tile height: rows of c that share
// every load of b.
const tileRows = 4

// MulAddBlock computes c[ci:ci+rows, cj:cj+cols] += a[ai:ai+rows,
// aj:aj+k] · b[bi:bi+k, bj:bj+cols] on the blocks in place, with no
// copy of any operand. It is the single entry of the blocked kernel:
// MulAddInto, the parallel kernel's slabs and the formulations' block
// products all run through it. The c block must not overlap the a or b
// block.
//
// Every element of the c block receives its contributions a[i,l]·b[l,j]
// in ascending l, one multiply and one add per step, with contributions
// whose a[i,l] == 0 skipped — exactly the per-element sequence of the
// naive i-k-j loop, so the result is bit-identical to it (see
// MulAddInto).
func MulAddBlock(c *Dense, ci, cj int, a *Dense, ai, aj int, b *Dense, bi, bj int, rows, cols, k int) {
	if rows < 0 || cols < 0 || k < 0 ||
		!holds(c, ci, cj, rows, cols) || !holds(a, ai, aj, rows, k) || !holds(b, bi, bj, k, cols) {
		panic(fmt.Sprintf("matrix: MulAddBlock %dx%d · %dx%d out of range: c %dx%d at (%d,%d), a %dx%d at (%d,%d), b %dx%d at (%d,%d)",
			rows, k, k, cols, c.Rows, c.Cols, ci, cj, a.Rows, a.Cols, ai, aj, b.Rows, b.Cols, bi, bj))
	}
	if rows == 0 || cols == 0 || k == 0 {
		return
	}
	for jj := 0; jj < cols; jj += ncBlock {
		w := min(ncBlock, cols-jj)
		for ll := 0; ll < k; ll += kcBlock {
			mulPanel(c.Data[ci*c.Cols+cj+jj:], c.Cols,
				a.Data[ai*a.Cols+aj+ll:], a.Cols,
				b.Data[(bi+ll)*b.Cols+bj+jj:], b.Cols,
				rows, w, min(kcBlock, k-ll))
		}
	}
}

// holds reports whether the h×w block at (r0, c0) lies inside m.
func holds(m *Dense, r0, c0, h, w int) bool {
	return r0 >= 0 && c0 >= 0 && r0+h <= m.Rows && c0+w <= m.Cols
}

// mulPanel accumulates c += a·b over one panel: rows×k of a against
// k×cols of b into rows×cols of c, each a row-major view whose row
// stride is its ld argument. Four rows whose a-slices hold no zero go
// to the micro-kernel as one tile. Otherwise the first row goes alone:
// to the 1-row micro-kernel, or, if its a-slice holds a zero, to the
// scalar loop, which skips those contributions exactly as the naive
// kernel does (the skip is observable when b holds Inf or NaN). Which
// code computes a row thus depends on that row's own a-slice only,
// never on how rows are grouped, so a row band of the parallel kernel
// runs every element through the same code as the serial traversal.
func mulPanel(c []float64, ldc int, a []float64, lda int, b []float64, ldb, rows, cols, k int) {
	for i := 0; i < rows; {
		ci, ai := c[i*ldc:], a[i*lda:]
		switch {
		case i+tileRows <= rows && !hasZero(ai, lda, tileRows, k):
			mulTile(ci, ldc, ai, lda, b, ldb, tileRows, cols, k)
			i += tileRows
			continue
		case hasZero(ai, lda, 1, k):
			mulScalar(ci[:cols], ai[:k], b, ldb)
		default:
			mulTile(ci, ldc, ai, lda, b, ldb, 1, cols, k)
		}
		i++
	}
}

// hasZeroGo reports whether the rows×k strided a-slice holds a zero
// of either sign.
func hasZeroGo(a []float64, lda, rows, k int) bool {
	for r := 0; r < rows; r++ {
		for _, v := range a[r*lda : r*lda+k] {
			if v == 0 {
				return true
			}
		}
	}
	return false
}

// mulScalar is the zero-skip fallback for one row: crow += arow·b,
// the body of the naive i-k-j kernel (the test oracle mulAddIntoNaive)
// over a strided b.
func mulScalar(crow, arow, b []float64, ldb int) {
	for l, av := range arow {
		if av == 0 {
			continue
		}
		brow := b[l*ldb : l*ldb+len(crow)]
		for j := range crow {
			crow[j] += av * brow[j]
		}
	}
}

// tileGo is the portable micro-kernel: for each row it keeps four
// elements of c in registers across the whole depth, then finishes the
// column remainder one element at a time. Every element gets the
// naive loop's per-step multiply and add in ascending l; the caller
// has already ruled out zeros in a, so nothing is skipped.
func tileGo(c []float64, ldc int, a []float64, lda int, b []float64, ldb, rows, cols, k int) {
	for r := 0; r < rows; r++ {
		crow := c[r*ldc : r*ldc+cols]
		arow := a[r*lda : r*lda+k]
		j := 0
		for ; j+4 <= cols; j += 4 {
			s0, s1, s2, s3 := crow[j], crow[j+1], crow[j+2], crow[j+3]
			for l, av := range arow {
				bl := b[l*ldb+j : l*ldb+j+4]
				s0 += av * bl[0]
				s1 += av * bl[1]
				s2 += av * bl[2]
				s3 += av * bl[3]
			}
			crow[j], crow[j+1], crow[j+2], crow[j+3] = s0, s1, s2, s3
		}
		for ; j < cols; j++ {
			s := crow[j]
			for l, av := range arow {
				s += av * b[l*ldb+j]
			}
			crow[j] = s
		}
	}
}
