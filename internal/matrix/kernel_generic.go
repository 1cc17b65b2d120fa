//go:build !amd64 || purego

package matrix

// mulTile runs the portable micro-kernel. On platforms where the
// compiler contracts x += a*b into a fused multiply-add (arm64, ppc64),
// the test oracle mulAddIntoNaive (kernel_test.go) contracts the same
// expression shape identically, preserving the differential contract.
func mulTile(c []float64, ldc int, a []float64, lda int, b []float64, ldb, rows, cols, k int) {
	tileGo(c, ldc, a, lda, b, ldb, rows, cols, k)
}

// hasZero reports whether the rows×k strided a-slice holds a zero of
// either sign.
func hasZero(a []float64, lda, rows, k int) bool { return hasZeroGo(a, lda, rows, k) }
