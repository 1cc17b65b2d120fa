package topology

import "fmt"

// Torus2D is a wraparound two-dimensional processor mesh — the logical
// structure of the simple algorithm (Section 4.1), Cannon's algorithm
// (Section 4.2) and Fox's algorithm (Section 4.3). When both sides are
// powers of two the torus embeds in a hypercube with every torus
// neighbor a hypercube neighbor (Gray-code embedding), which is why the
// paper treats Cannon's algorithm identically on meshes and hypercubes.
type Torus2D struct{ R, C int }

// NewTorus2D returns an r×c wraparound mesh.
func NewTorus2D(r, c int) Torus2D {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("topology: torus %dx%d must be positive", r, c))
	}
	return Torus2D{R: r, C: c}
}

// NewSquareTorus returns a √p × √p wraparound mesh; p must be a perfect
// square.
func NewSquareTorus(p int) Torus2D {
	q := IntSqrt(p)
	if q*q != p {
		panic(fmt.Sprintf("topology: %d processors do not form a square mesh", p))
	}
	return NewTorus2D(q, q)
}

func (t Torus2D) Size() int    { return t.R * t.C }
func (t Torus2D) Name() string { return fmt.Sprintf("torus(%dx%d)", t.R, t.C) }

// RankAt returns the rank of the processor at mesh coordinates (i, j),
// wrapping both indices.
func (t Torus2D) RankAt(i, j int) int {
	i = mod(i, t.R)
	j = mod(j, t.C)
	return i*t.C + j
}

// Coords returns the mesh coordinates of rank r.
func (t Torus2D) Coords(r int) (i, j int) {
	t.checkRank(r)
	return r / t.C, r % t.C
}

// Distance returns the wraparound Manhattan hop distance.
func (t Torus2D) Distance(a, b int) int {
	ai, aj := t.Coords(a)
	bi, bj := t.Coords(b)
	return wrapDist(ai, bi, t.R) + wrapDist(aj, bj, t.C)
}

func (t Torus2D) Neighbors(r int) []int {
	i, j := t.Coords(r)
	set := map[int]bool{}
	var out []int
	for _, n := range []int{t.RankAt(i-1, j), t.RankAt(i+1, j), t.RankAt(i, j-1), t.RankAt(i, j+1)} {
		if n != r && !set[n] {
			set[n] = true
			out = append(out, n)
		}
	}
	return out
}

// Left, Right, Up and Down return the wraparound neighbor ranks used by
// the shift steps of Cannon's and Fox's algorithms: RankAt(i, j∓1) and
// RankAt(i∓1, j) for rank r at (i, j). They wrap by comparison, so a
// row shift divides once, for the column, and a column shift not at
// all.
func (t Torus2D) Left(r int) int {
	t.checkRank(r)
	if r%t.C == 0 {
		return r + t.C - 1
	}
	return r - 1
}

func (t Torus2D) Right(r int) int {
	t.checkRank(r)
	if r%t.C == t.C-1 {
		return r - t.C + 1
	}
	return r + 1
}

func (t Torus2D) Up(r int) int {
	t.checkRank(r)
	if r < t.C {
		return r + t.Size() - t.C
	}
	return r - t.C
}

func (t Torus2D) Down(r int) int {
	t.checkRank(r)
	if r >= t.Size()-t.C {
		return r + t.C - t.Size()
	}
	return r + t.C
}

// RowRanks returns the ranks of mesh row i in column order.
func (t Torus2D) RowRanks(i int) []int {
	if i < 0 || i >= t.R {
		panic(fmt.Sprintf("topology: row %d out of range for %s", i, t.Name()))
	}
	out := make([]int, t.C)
	for j := range out {
		out[j] = t.RankAt(i, j)
	}
	return out
}

// ColRanks returns the ranks of mesh column j in row order.
func (t Torus2D) ColRanks(j int) []int {
	if j < 0 || j >= t.C {
		panic(fmt.Sprintf("topology: column %d out of range for %s", j, t.Name()))
	}
	out := make([]int, t.R)
	for i := range out {
		out[i] = t.RankAt(i, j)
	}
	return out
}

func (t Torus2D) checkRank(r int) {
	if r < 0 || r >= t.Size() {
		panic(fmt.Sprintf("topology: rank %d out of range for %s", r, t.Name()))
	}
}

func wrapDist(a, b, n int) int {
	d := mod(a-b, n)
	if n-d < d {
		d = n - d
	}
	return d
}

func mod(a, n int) int {
	m := a % n
	if m < 0 {
		m += n
	}
	return m
}

// IntSqrt returns floor(sqrt(n)) for n ≥ 0 using integer Newton
// iteration (exact, unlike a float round-trip for large n).
func IntSqrt(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("topology: IntSqrt of negative %d", n))
	}
	if n < 2 {
		return n
	}
	x := n
	y := (x + 1) / 2
	for y < x {
		x = y
		y = (x + n/x) / 2
	}
	return x
}
