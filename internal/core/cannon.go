package core

import (
	"matscale/internal/machine"
	"matscale/internal/matrix"
	"matscale/internal/simulator"
	"matscale/internal/topology"
)

const (
	tagCannonAlignA = 300
	tagCannonAlignB = 301
	tagCannonShiftA = 302
	tagCannonShiftB = 303
)

// Cannon implements Cannon's memory-efficient algorithm (Section 4.2)
// on a √p × √p wraparound mesh: an initial alignment (block A_ij to
// processor (i, j−i), block B_ij to processor (i−j, j)) followed by √p
// steps of multiply-and-roll, A rolling left and B rolling up.
//
// The alignment is a one-to-one permutation along non-conflicting
// paths; the paper ignores its cost on a cut-through hypercube, so it
// moves at zero virtual cost here. Measured parallel time is exactly
// the paper's Eq. (3):
//
//	Tp = n³/p + 2·ts·√p + 2·tw·n²/√p
func Cannon(m *machine.Machine, a, b *matrix.Dense) (*Result, error) {
	res, ok, err := onWave(m, a, b, "Cannon", cannonSkeleton, func(q int) *matrix.Dense {
		return cannonProduct(a, b, q, cannonSkew)
	})
	if ok || err != nil {
		return res, err
	}
	n, q := a.Rows, topology.IntSqrt(m.P())
	identity := func(r int) int { return r }
	tags := cannonTags{alignA: tagCannonAlignA, alignB: tagCannonAlignB, shiftA: tagCannonShiftA, shiftB: tagCannonShiftB}
	return onMesh(m, a, b, n, q, "Cannon", func(r meshRank, myA, myB *matrix.Dense) *matrix.Dense {
		return cannonRoll(r.pr, r.mesh, identity, r.i, r.j, myA, myB, tags)
	})
}

// cannonSkeleton is Cannon's timed skeleton on the √p × √p mesh: the
// alignment as two zero-cost permutation sends, then q steps of
// compute + roll-A-left + roll-B-up, then the zero-cost gather. The
// wave tier simulates it as synchronous waves with no goroutine per
// rank, which reaches p = 2^20 ranks in seconds; Cannon then computes
// the product directly in the multiply-accumulate order the rolled
// blocks would visit. Byte-identical to the other engine paths
// (asserted by the simulator's native differential suite).
func cannonSkeleton(m *machine.Machine, n int) (simulator.Skeleton, int, error) {
	q, err := squareSide(n, m.P(), "")
	if err != nil {
		return simulator.Skeleton{}, 0, err
	}
	blk := n / q
	words := blk * blk
	mesh := topology.NewTorus2D(q, q)
	free := simulator.Charged(0)
	return simulator.Skeleton{P: q * q, Steps: []simulator.Step{
		// Skew: A_ij to (i, j−i), B_ij to (i−j, j). Every clock is still
		// zero, so sending both before receiving either is immaterial.
		// Each divides once for (i, j) and wraps by comparison.
		simulator.Send{Words: words, Cost: free, Dst: func(r int) int {
			i := r / q
			col := r - i*q - i // j − i, in (−q, q)
			if col < 0 {
				col += q
			}
			return i*q + col
		}},
		simulator.Send{Words: words, Cost: free, Dst: func(r int) int {
			i := r / q
			j := r - i*q
			row := i - j
			if row < 0 {
				row += q
			}
			return row*q + j
		}},
		simulator.Repeat{Times: q, Body: []simulator.Step{
			simulator.Compute{Flops: float64(blk) * float64(blk) * float64(blk)},
			simulator.Shift{Words: words, Dst: mesh.Left},
			simulator.Shift{Words: words, Dst: mesh.Up},
		}},
		simulator.Gather{Words: words},
	}}, q, nil
}

// cannonSkew and foxSkew name the depth block at which the rolled
// blocks start to pass processor (i, j): i+j after Cannon's skewing
// alignment, i in Fox's iteration t = 0 (the row root (i+t) mod q).
func cannonSkew(i, j int) int { return i + j }
func foxSkew(i, _ int) int    { return i }

// cannonProduct multiplies a and b in the accumulation order of a
// rolled formulation on a q×q mesh: block (i, j) accumulates
// A_{i,w}·B_{w,j} for w = skew(i, j), skew(i, j)+1, … wrapping modulo q
// — the order the blocks pass processor (i, j) in Cannon's algorithm
// (cannonSkew) or Fox's (foxSkew). The element values equal what the
// message-passing run gathers, bit for bit, because the per-element
// addition sequence is the same.
func cannonProduct(a, b *matrix.Dense, q int, skew func(i, j int) int) *matrix.Dense {
	n := a.Rows
	if q == n {
		// One element per processor: c_ij is a rotated dot product of
		// row i of A and column j of B. Walk the transposed B row-wise
		// so both operands stream sequentially.
		bt := make([]float64, n*n)
		for w := 0; w < n; w++ {
			for j := 0; j < n; j++ {
				bt[j*n+w] = b.Data[w*n+j]
			}
		}
		c := matrix.New(n, n)
		for i := 0; i < n; i++ {
			arow := a.Data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				brow := bt[j*n : (j+1)*n]
				w := skew(i, j) % n
				var s float64
				for t := w; t < n; t++ {
					s += arow[t] * brow[t]
				}
				for t := 0; t < w; t++ {
					s += arow[t] * brow[t]
				}
				c.Data[i*n+j] = s
			}
		}
		return c
	}
	blk := n / q
	c := matrix.New(n, n)
	for i := 0; i < q; i++ {
		for j := 0; j < q; j++ {
			// Blocks w = skew … q−1 then 0 … skew−1 pass (i, j): depth
			// [s, n) then [0, s), each one in-place block product.
			ci, cj, s := i*blk, j*blk, skew(i, j)%q*blk
			matrix.MulAddBlock(c, ci, cj, a, ci, s, b, s, cj, blk, blk, n-s)
			matrix.MulAddBlock(c, ci, cj, a, ci, 0, b, 0, cj, blk, blk, s)
		}
	}
	return c
}
