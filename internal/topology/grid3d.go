package topology

import "fmt"

// Grid3D is the logical three-dimensional processor arrangement of the
// DNS and GK algorithms (Sections 4.5–4.6): p = q³ processors where
// processor r occupies position (i, j, k) with r = i·q² + j·q + k.
// When q is a power of two the grid is a hypercube whose address bits
// split into three fields of log q bits each — every axis line is a
// subcube, which is what makes the tree broadcasts and reductions of
// the DNS/GK algorithms possible in log q steps.
type Grid3D struct{ Q int }

// NewGrid3D returns a q×q×q grid; p = q³.
func NewGrid3D(q int) Grid3D {
	if q <= 0 {
		panic(fmt.Sprintf("topology: grid3d side %d must be positive", q))
	}
	return Grid3D{Q: q}
}

func (g Grid3D) Size() int    { return g.Q * g.Q * g.Q }
func (g Grid3D) Name() string { return fmt.Sprintf("grid3d(%d^3)", g.Q) }

// RankOf returns the rank of position (i, j, k) using the paper's
// numbering r = i·q² + j·q + k.
func (g Grid3D) RankOf(i, j, k int) int {
	g.checkCoord(i)
	g.checkCoord(j)
	g.checkCoord(k)
	return i*g.Q*g.Q + j*g.Q + k
}

// Coords returns the (i, j, k) position of rank r.
func (g Grid3D) Coords(r int) (i, j, k int) {
	if r < 0 || r >= g.Size() {
		panic(fmt.Sprintf("topology: rank %d out of range for %s", r, g.Name()))
	}
	return r / (g.Q * g.Q), (r / g.Q) % g.Q, r % g.Q
}

// Distance is the hop count on the underlying hypercube when q is a
// power of two (Hamming distance of the concatenated coordinate
// fields); otherwise it falls back to the 3-D wraparound Manhattan
// distance.
func (g Grid3D) Distance(a, b int) int {
	if _, ok := Log2(g.Q); ok {
		ai, aj, ak := g.Coords(a)
		bi, bj, bk := g.Coords(b)
		return popcount(uint(ai^bi)) + popcount(uint(aj^bj)) + popcount(uint(ak^bk))
	}
	ai, aj, ak := g.Coords(a)
	bi, bj, bk := g.Coords(b)
	return wrapDist(ai, bi, g.Q) + wrapDist(aj, bj, g.Q) + wrapDist(ak, bk, g.Q)
}

// Neighbors returns hypercube neighbors when q is a power of two (each
// coordinate field flips one bit), otherwise the six grid neighbors.
func (g Grid3D) Neighbors(r int) []int {
	i, j, k := g.Coords(r)
	if d, ok := Log2(g.Q); ok {
		out := make([]int, 0, 3*d)
		for b := 0; b < d; b++ {
			out = append(out,
				g.RankOf(i^(1<<b), j, k),
				g.RankOf(i, j^(1<<b), k),
				g.RankOf(i, j, k^(1<<b)))
		}
		return out
	}
	set := map[int]bool{}
	var out []int
	for _, n := range []int{
		g.RankOf(mod(i-1, g.Q), j, k), g.RankOf(mod(i+1, g.Q), j, k),
		g.RankOf(i, mod(j-1, g.Q), k), g.RankOf(i, mod(j+1, g.Q), k),
		g.RankOf(i, j, mod(k-1, g.Q)), g.RankOf(i, j, mod(k+1, g.Q)),
	} {
		if n != r && !set[n] {
			set[n] = true
			out = append(out, n)
		}
	}
	return out
}

// AxisLine returns the ranks along one axis with the other two
// coordinates fixed. axis 0 varies i, 1 varies j, 2 varies k.
func (g Grid3D) AxisLine(axis, c1, c2 int) []int {
	out := make([]int, g.Q)
	for v := 0; v < g.Q; v++ {
		switch axis {
		case 0:
			out[v] = g.RankOf(v, c1, c2)
		case 1:
			out[v] = g.RankOf(c1, v, c2)
		case 2:
			out[v] = g.RankOf(c1, c2, v)
		default:
			panic(fmt.Sprintf("topology: axis %d out of range [0,3)", axis))
		}
	}
	return out
}

func (g Grid3D) checkCoord(c int) {
	if c < 0 || c >= g.Q {
		panic(fmt.Sprintf("topology: coordinate %d out of range for %s", c, g.Name()))
	}
}

// IntCbrt returns floor(cbrt(n)) for n ≥ 0.
func IntCbrt(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("topology: IntCbrt of negative %d", n))
	}
	x := 0
	for (x+1)*(x+1)*(x+1) <= n {
		x++
	}
	return x
}
