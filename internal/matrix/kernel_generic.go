//go:build !amd64 || purego

package matrix

// mulSpan4 accumulates cs[j] += av0·b0[j] + av1·b1[j] + av2·b2[j] +
// av3·b3[j] with one rounding per step, in that order. This is the
// portable implementation; amd64 provides a SIMD version with the same
// per-element operation sequence, so results are bit-identical across
// the two. On platforms where the compiler contracts x += a*b into a
// fused multiply-add (arm64, ppc64), the test oracle mulAddIntoNaive
// (kernel_test.go) contracts the same expression shape identically,
// preserving the differential contract.
func mulSpan4(cs, b0, b1, b2, b3 []float64, av0, av1, av2, av3 float64) {
	for j := range cs {
		s := cs[j]
		s += av0 * b0[j]
		s += av1 * b1[j]
		s += av2 * b2[j]
		s += av3 * b3[j]
		cs[j] = s
	}
}
