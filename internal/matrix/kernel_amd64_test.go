//go:build amd64 && !purego

package matrix

import "testing"

// forEachDispatch runs f once per kernel the host can dispatch to: the
// portable tileGo, and the AVX2 tiles where the CPU has them.
func forEachDispatch(t *testing.T, f func(t *testing.T)) {
	saved := useAVX2
	defer func() { useAVX2 = saved }()
	useAVX2 = false
	t.Run("portable", f)
	if cpuHasAVX2() {
		useAVX2 = true
		t.Run("avx2", f)
	}
}

// TestMulAddIntoBitIdenticalSSE2 forces the portable tile kernel, which
// amd64 compiles to scalar SSE2, and re-runs the differential grid, so
// both amd64 dispatch targets are proven bit-identical to the naive
// kernel regardless of which one the benchmark host selects.
func TestMulAddIntoBitIdenticalSSE2(t *testing.T) {
	if !useAVX2 {
		t.Skip("host already runs the portable path; covered by the main differential tests")
	}
	useAVX2 = false
	defer func() { useAVX2 = true }()
	for _, n := range kernelSizes {
		a := Random(n, n, uint64(n)*2+1)
		b := Random(n, n, uint64(n)*2+2)
		mulBitIdentical(t, a, b)
	}
}
