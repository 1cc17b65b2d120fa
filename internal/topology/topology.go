// Package topology models the interconnection networks of the paper:
// hypercubes, two-dimensional wraparound meshes (tori), the logical
// three-dimensional processor grid used by the DNS and GK algorithms,
// and a fully connected network standing in for the CM-5's fat tree
// (Section 9 of the paper treats the CM-5 as fully connected).
//
// A Topology provides structure (coordinates, neighbors) and the hop
// distance used by the communication cost model. All power-of-two
// logical structures (mesh rows/columns, 3-D grid lines) embed in the
// hypercube via binary-reflected Gray codes so that logical neighbors
// are physical hypercube neighbors, exactly as the paper assumes.
package topology

import "fmt"

// Topology is an interconnection network over ranks 0..Size()-1.
type Topology interface {
	// Size returns the number of processors.
	Size() int
	// Name identifies the topology for reports.
	Name() string
	// Distance returns the number of hops a message travels from a to b
	// under the topology's routing. Distance(a, a) == 0.
	Distance(a, b int) int
	// Neighbors returns the directly connected ranks of r.
	Neighbors(r int) []int
}

// Hypercube is a d-dimensional binary hypercube with 2^d processors.
// Routing is e-cube (dimension order); the hop count between two ranks
// is the Hamming distance of their binary representations.
type Hypercube struct{ Dim int }

// NewHypercube returns a hypercube with p = 2^k processors. It panics
// if p is not a positive power of two.
func NewHypercube(p int) Hypercube {
	d, ok := Log2(p)
	if !ok {
		panic(fmt.Sprintf("topology: hypercube size %d is not a power of two", p))
	}
	return Hypercube{Dim: d}
}

func (h Hypercube) Size() int    { return 1 << h.Dim }
func (h Hypercube) Name() string { return fmt.Sprintf("hypercube(d=%d)", h.Dim) }

func (h Hypercube) Distance(a, b int) int {
	h.checkRank(a)
	h.checkRank(b)
	return popcount(uint(a ^ b))
}

func (h Hypercube) Neighbors(r int) []int {
	h.checkRank(r)
	out := make([]int, h.Dim)
	for d := 0; d < h.Dim; d++ {
		out[d] = r ^ (1 << d)
	}
	return out
}

func (h Hypercube) checkRank(r int) {
	if r < 0 || r >= h.Size() {
		panic(fmt.Sprintf("topology: rank %d out of range for %s", r, h.Name()))
	}
}

// FullyConnected is a complete graph: every pair of processors is one
// hop apart. The paper models the CM-5 this way (Section 9).
type FullyConnected struct{ N int }

// NewFullyConnected returns a fully connected network of p processors.
func NewFullyConnected(p int) FullyConnected {
	if p <= 0 {
		panic(fmt.Sprintf("topology: fully connected size %d must be positive", p))
	}
	return FullyConnected{N: p}
}

func (f FullyConnected) Size() int    { return f.N }
func (f FullyConnected) Name() string { return fmt.Sprintf("fully-connected(p=%d)", f.N) }

func (f FullyConnected) Distance(a, b int) int {
	f.checkRank(a)
	f.checkRank(b)
	if a == b {
		return 0
	}
	return 1
}

func (f FullyConnected) Neighbors(r int) []int {
	f.checkRank(r)
	out := make([]int, 0, f.N-1)
	for i := 0; i < f.N; i++ {
		if i != r {
			out = append(out, i)
		}
	}
	return out
}

func (f FullyConnected) checkRank(r int) {
	if r < 0 || r >= f.N {
		panic(fmt.Sprintf("topology: rank %d out of range for %s", r, f.Name()))
	}
}

// Log2 returns k with 2^k == p, and whether p is a positive power of
// two.
func Log2(p int) (int, bool) {
	if p <= 0 || p&(p-1) != 0 {
		return 0, false
	}
	k := 0
	for 1<<k < p {
		k++
	}
	return k, true
}

func popcount(x uint) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
