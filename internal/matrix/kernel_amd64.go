//go:build amd64 && !purego

package matrix

// The AVX2 and AVX-512 micro-kernels vectorize across output columns
// only: each output element still receives its contributions in
// ascending depth order with a separate multiply and a separate add per
// step (VMULPD/VADDPD, never FMA), which is exactly the rounding
// sequence of the scalar kernel on amd64. CPU dispatch therefore cannot
// change a result value — it only changes how many elements advance per
// instruction (and, when two NaNs meet, possibly which payload
// survives; see docs/PERFORMANCE.md).

// tileTarget is a family of tile kernels.
type tileTarget int

const (
	portable tileTarget = iota // tileGo
	avx2                       // tile4AVX2, tile1AVX2
	avx512                     // tile4AVX512, tile1AVX512
)

// tiles is the tile family this host runs.
var tiles = detectTarget()

// detectTarget picks the widest tile family the CPU and OS support.
// The AVX-512 family still runs hasZeroAVX2, so it requires AVX2 too.
func detectTarget() tileTarget {
	switch {
	case !cpuHasAVX2():
		return portable
	case cpuHasAVX512():
		return avx512
	}
	return avx2
}

// cpuHasAVX2 reports AVX2 availability, including OS XMM/YMM state
// support (OSXSAVE + XCR0). Implemented in kernel_amd64.s.
func cpuHasAVX2() bool

// cpuHasAVX512 reports AVX-512F availability, including OS opmask and
// ZMM state support (OSXSAVE + XCR0). Implemented in kernel_amd64.s.
func cpuHasAVX512() bool

// tile4AVX2 is the 4-row micro-kernel. Implemented in kernel_amd64.s;
// the caller guarantees k ≥ 1 and that every row and column it touches
// lies inside the slices.
//
//go:noescape
func tile4AVX2(c []float64, ldc int, a []float64, lda int, b []float64, ldb, cols, k int)

// tile1AVX2 is the 1-row micro-kernel, under tile4AVX2's contract.
//
//go:noescape
func tile1AVX2(c, a, b []float64, ldb, cols, k int)

// tile4AVX512 is tile4AVX2 on 512-bit vectors, under its contract.
//
//go:noescape
func tile4AVX512(c []float64, ldc int, a []float64, lda int, b []float64, ldb, cols, k int)

// tile1AVX512 is tile1AVX2 on 512-bit vectors, under its contract.
//
//go:noescape
func tile1AVX512(c, a, b []float64, ldb, cols, k int)

// hasZeroAVX2 is hasZero four lanes at a time. Implemented in
// kernel_amd64.s; rows ≥ 1.
//
//go:noescape
func hasZeroAVX2(a []float64, lda, rows, k int) bool

// hasZero reports whether the rows×k strided a-slice holds a zero of
// either sign.
func hasZero(a []float64, lda, rows, k int) bool {
	if tiles == portable {
		return hasZeroGo(a, lda, rows, k)
	}
	return hasZeroAVX2(a, lda, rows, k)
}

// mulTile runs the micro-kernel on rows (1 or tileRows) rows of c.
func mulTile(c []float64, ldc int, a []float64, lda int, b []float64, ldb, rows, cols, k int) {
	switch {
	case tiles == portable:
		tileGo(c, ldc, a, lda, b, ldb, rows, cols, k)
	case tiles == avx2 && rows == tileRows:
		tile4AVX2(c, ldc, a, lda, b, ldb, cols, k)
	case tiles == avx2:
		tile1AVX2(c, a, b, ldb, cols, k)
	case rows == tileRows:
		tile4AVX512(c, ldc, a, lda, b, ldb, cols, k)
	default:
		tile1AVX512(c, a, b, ldb, cols, k)
	}
}
