package matrix

// Structured test workloads. The paper's experiments multiply dense
// random matrices, but structured inputs catch indexing bugs random
// data can mask (a transposed block produces the same norm but a very
// different Hilbert product), and banded inputs exercise the zero-skip
// fast path of the kernels.

// Banded returns an n×n matrix with deterministic pseudo-random
// entries within the given bandwidth of the diagonal and zeros
// elsewhere (bandwidth 0 is diagonal).
func Banded(n, bandwidth int, seed uint64) *Dense {
	if bandwidth < 0 {
		panic("matrix: negative bandwidth")
	}
	m := New(n, n)
	g := rng{state: seed}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if abs(i-j) <= bandwidth {
				m.Data[i*n+j] = 2*g.float64() - 1
			}
		}
	}
	return m
}

// Bandwidth returns the smallest b such that every nonzero of m lies
// within b of the diagonal, or -1 for a non-square matrix.
func Bandwidth(m *Dense) int {
	if !m.IsSquare() {
		return -1
	}
	b := 0
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.Data[i*m.Cols+j] != 0 && abs(i-j) > b {
				b = abs(i - j)
			}
		}
	}
	return b
}

// Symmetric returns an n×n symmetric matrix with deterministic
// pseudo-random entries.
func Symmetric(n int, seed uint64) *Dense {
	m := New(n, n)
	g := rng{state: seed}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := 2*g.float64() - 1
			m.Data[i*n+j] = v
			m.Data[j*n+i] = v
		}
	}
	return m
}

// Hilbert returns the n×n Hilbert matrix H[i][j] = 1/(i+j+1) — a
// deterministic, highly structured workload whose products are very
// sensitive to index mistakes.
func Hilbert(n int) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Data[i*n+j] = 1 / float64(i+j+1)
		}
	}
	return m
}

// Diagonal returns the n×n matrix with the given diagonal entries.
func Diagonal(diag []float64) *Dense {
	n := len(diag)
	m := New(n, n)
	for i, v := range diag {
		m.Data[i*n+i] = v
	}
	return m
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
