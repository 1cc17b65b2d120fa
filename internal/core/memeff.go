package core

import (
	"matscale/internal/collective"
	"matscale/internal/machine"
	"matscale/internal/matrix"
	"matscale/internal/topology"
)

const (
	tagMemEffBcastA  = 800
	tagMemEffBcastB  = 850
	tagMemEffBarrier = 880
)

// SimpleMemEfficientAllPort is the memory-efficient counterpart of the
// all-port simple algorithm, in the spirit of Ho, Johnsson and Edelman
// [18], which Section 7.1 cites as using full bandwidth with constant
// storage at "somewhat higher execution time" than Eq. (16). Instead
// of gathering a whole block row and block column on every processor
// (O(n²/√p) memory each), the multiplication streams: in step k of √p,
// the owners of A_ik and B_kj broadcast them along mesh row i and mesh
// column j, every processor multiplies and accumulates, and the blocks
// are discarded — O(n²/p) storage, like Cannon's algorithm.
//
// Each step's pair of one-to-all broadcasts proceeds simultaneously on
// the all-port hardware, charged the all-port one-to-all cost
// ts·log₂√p + tw·(n²/p)/log₂√p (the message splits across the log √p
// ports). Measured time with lockstep steps:
//
//	Tp = n³/p + √p·(ts·log₂√p + tw·(n²/p)/log₂√p)
//
// which is higher than Eq. (16) — the memory saving costs a log factor
// of bandwidth, exactly the "somewhat higher execution time" trade the
// paper describes.
func SimpleMemEfficientAllPort(m *machine.Machine, a, b *matrix.Dense) (*Result, error) {
	n, q, err := meshSide(m, a, b, "core: all-port broadcasts need a power-of-two mesh side, got %d")
	if err != nil {
		return nil, err
	}
	return onMesh(m, a, b, n, q, "SimpleMemEfficientAllPort", func(r meshRank, blkA, blkB *matrix.Dense) *matrix.Dense {
		pr, i, j, bs := r.pr, r.i, r.j, r.bs
		myA, myB := blockData(blkA), blockData(blkB)
		cost := allPortBcastCost(m, bs*bs, r.q)

		c := matrix.New(bs, bs)
		for k := 0; k < r.q; k++ {
			var aPayload, bPayload []float64
			if j == k {
				aPayload = myA
			}
			if i == k {
				bPayload = myB
			}
			// A's broadcast is charged; B's proceeds simultaneously on
			// the remaining ports (Section 7.1's simultaneity).
			ablk := collective.BroadcastCharged(pr, r.row, k, tagMemEffBcastA+k, aPayload, cost)
			bblk := collective.BroadcastCharged(pr, r.col, k, tagMemEffBcastB+k, bPayload, 0)
			matrix.MulAddInto(c, blockFrom(ablk, bs, bs), blockFrom(bblk, bs, bs))
			pr.Compute(float64(bs) * float64(bs) * float64(bs))
			// Streaming is the point of this variant: received blocks are
			// discarded — recycled — as soon as they are consumed (roots
			// keep their resident blocks).
			if j != k {
				pr.Recycle(ablk)
			}
			if i != k {
				pr.Recycle(bblk)
			}
			collective.BarrierFree(pr, r.everyone, tagMemEffBarrier+k)
		}
		return c
	})
}

// allPortBcastCost is the all-port one-to-all broadcast cost for m
// words among g processors: ts·log₂g + tw·m/log₂g.
func allPortBcastCost(mach *machine.Machine, m, g int) float64 {
	d, _ := topology.Log2(g)
	if d == 0 {
		return 0
	}
	return mach.Ts*float64(d) + mach.Tw*float64(m)/float64(d)
}
