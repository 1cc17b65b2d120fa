package model

import "math"

// Per-processor memory requirements, in matrix elements (words), of
// each formulation — the memory-efficiency dimension the paper weighs
// against speed (Sections 4.1, 4.4 and 7.1). An algorithm is "memory
// efficient" when its total memory across processors stays O(n²), like
// the serial algorithm's.

// SimpleMemoryPerProc is the per-processor memory in matrix words,
// O(n²/√p): each processor stores a full block
// row of A and block column of B after the all-to-all broadcast
// (Section 4.1), so the total is O(n²·√p) — memory inefficient.
func SimpleMemoryPerProc(n, p float64) float64 {
	// Own C block + √p blocks of A + √p blocks of B.
	return n*n/p + 2*math.Sqrt(p)*(n*n/p)
}

// CannonMemoryPerProc is the per-processor memory in matrix words,
// O(n²/p): one block of each of A, B and C —
// the memory-efficient baseline (Section 4.2).
func CannonMemoryPerProc(n, p float64) float64 {
	return 3 * n * n / p
}

// BerntsenMemoryPerProc is the paper's 2·n²/p + n²/p^(2/3) matrix
// words per processor
// (Section 4.4): the A and B sub-blocks plus the full partial-product
// block accumulated before the cross-subcube summation.
func BerntsenMemoryPerProc(n, p float64) float64 {
	return 2*n*n/p + n*n/math.Pow(p, 2.0/3.0)
}

// GKMemoryPerProc is 3·n²/p^(2/3) matrix words per processor: every
// processor of the p^(1/3)-deep
// cube holds whole n/p^(1/3)-sided blocks of A, B and its C partial,
// so the total is O(n²·p^(1/3)) — the GK algorithm trades memory for
// communication exactly like the DNS algorithm it generalizes.
func GKMemoryPerProc(n, p float64) float64 {
	return 3 * n * n / math.Pow(p, 2.0/3.0)
}
