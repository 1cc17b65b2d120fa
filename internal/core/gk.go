package core

import (
	"math"

	"matscale/internal/collective"
	"matscale/internal/machine"
	"matscale/internal/matrix"
	"matscale/internal/simulator"
	"matscale/internal/topology"
)

const (
	tagGKRouteA  = 600
	tagGKBcastA  = 610
	tagGKRouteB  = 630
	tagGKBcastB  = 640
	tagGKReduce  = 660
	tagGKBarrier = 680
)

// gkVariant is one row of the GK family: its name and the scheme of
// its five communication stages.
type gkVariant struct {
	name string
	// stageCost is the closed-form charge of each stage on a q3-sided
	// cube; nil runs the stages as plain binomial trees (Eq. 7 /
	// Eq. 18).
	stageCost func(m *machine.Machine, n, q3 int) float64
}

// GK implements the paper's own contribution (Section 4.6): the
// Gupta–Kumar variant of the DNS algorithm that works for any
// p = 2^(3q) ≤ n³ processors. The p processors form a p^(1/3)-sided
// logical cube; matrix sub-blocks of n/p^(1/3) × n/p^(1/3) elements
// replace the single elements of the one-element-per-processor DNS
// algorithm.
//
// Stages (with q₃ = p^(1/3), block word count m = n²/p^(2/3)):
//
//  1. A blocks route (0,j,k)→(k,j,k) and broadcast along the third
//     axis; B blocks route (0,j,k)→(j,j,k) and broadcast along the
//     second axis — 4·log₂q₃ message steps.
//  2. Every processor multiplies its A and B blocks: n³/p unit ops.
//  3. The p^(1/3) partial products along the first axis are summed by a
//     binomial tree into the i=0 face — log₂q₃ message steps.
//
// On a store-and-forward hypercube the measured time is exactly Eq. (7):
//
//	Tp = n³/p + (5/3)·ts·log₂p + (5/3)·tw·(n²/p^(2/3))·log₂p
//
// and on a fully connected machine (the CM-5 of Section 9, where each
// routing step is a single hop) exactly Eq. (18):
//
//	Tp = n³/p + ts·(log₂p + 2) + tw·(n²/p^(2/3))·(log₂p + 2)
func GK(m *machine.Machine, a, b *matrix.Dense) (*Result, error) {
	return gkImpl(m, a, b, gkVariant{name: "GK"})
}

// GKImprovedBroadcast is the Section 5.4.1 variant: all five
// communication stages use the optimized one-to-all broadcast of
// Johnsson and Ho, giving total communication 5·JH(m, p^(1/3)) — the
// closed form the paper writes as
//
//	5·tw·n²/p^(2/3) + (5/3)·ts·log₂p + 10·(n/p^(1/3))·sqrt((1/3)·ts·tw·log₂p)
//
// (transport 4/5 of it, gather/sum the rest).
func GKImprovedBroadcast(m *machine.Machine, a, b *matrix.Dense) (*Result, error) {
	return gkImpl(m, a, b, gkVariant{
		name: "GKImprovedBroadcast",
		stageCost: func(m *machine.Machine, n, q3 int) float64 {
			bs := n / q3
			return collective.JohnssonHoTime(m.Ts, m.Tw, bs*bs, q3)
		},
	})
}

// GKAllPort is the Section 7.2 variant on a hypercube with simultaneous
// communication on all ports; its five stages are charged one fifth of
// the Eq. (17) communication total each:
//
//	Tp = n³/p + ts·log₂p + 9·tw·n²/(p^(2/3)·log₂p) + 6·(n/p^(1/3))·sqrt(ts·tw)
func GKAllPort(m *machine.Machine, a, b *matrix.Dense) (*Result, error) {
	return gkImpl(m, a, b, gkVariant{
		name: "GKAllPort",
		stageCost: func(m *machine.Machine, n, q3 int) float64 {
			return gkAllPortComm(m.Ts, m.Tw, n, q3*q3*q3) / 5
		},
	})
}

// gkImpl runs the GK algorithm with variant v's stage scheme.
func gkImpl(m *machine.Machine, a, b *matrix.Dense, v gkVariant) (*Result, error) {
	n, err := checkInputs(m, a, b)
	if err != nil {
		return nil, err
	}
	p := m.P()
	q3, err := cubeSide(n, p)
	if err != nil {
		return nil, err
	}
	bs := n / q3
	grid := topology.NewGrid3D(q3)
	ga := matrix.Partition(a, q3, q3)
	gb := matrix.Partition(b, q3, q3)
	everyone := allRanks(p)

	// The stage primitives: binomial trees, or each stage charged the
	// variant's closed form.
	bcast, reduce := collective.Broadcast, collective.Reduce
	route := func(pr *simulator.Proc, dst, tag int, data []float64) {
		// Each grid block is routed by exactly one face rank, so it is
		// given away on the zero-copy send path.
		pr.SendOwned(dst, tag, data)
	}
	if v.stageCost != nil {
		cost := v.stageCost(m, n, q3)
		bcast = func(pr *simulator.Proc, group []int, rootIdx, tag int, data []float64) []float64 {
			return collective.BroadcastCharged(pr, group, rootIdx, tag, data, cost)
		}
		reduce = func(pr *simulator.Proc, group []int, rootIdx, tag int, data []float64) []float64 {
			return collective.ReduceCharged(pr, group, rootIdx, tag, data, cost)
		}
		route = func(pr *simulator.Proc, dst, tag int, data []float64) {
			if dst == pr.Rank() {
				pr.SendFree(dst, tag, data)
			} else {
				pr.ChargedSend(dst, tag, data, cost)
			}
		}
	}

	var product *matrix.Dense
	sim, err := simulator.Run(m, func(pr *simulator.Proc) {
		i, j, k := grid.Coords(pr.Rank())
		barrier := 0
		sync := func() {
			collective.BarrierFree(pr, everyone, tagGKBarrier+barrier)
			barrier++
		}

		// Stage 1a: route A(j,k) from the i=0 face to (k,j,k).
		var aBuf []float64
		if i == 0 {
			route(pr, grid.RankOf(k, j, k), tagGKRouteA, blockData(ga.Block(j, k)))
		}
		if i == k {
			aBuf = pr.Recv(grid.RankOf(0, j, k), tagGKRouteA)
		}
		sync()

		// Stage 1b: broadcast A along the third axis: (k,j,k) → (k,j,*).
		aBuf = bcast(pr, grid.AxisLine(2, i, j), i, tagGKBcastA, aBuf)
		sync()

		// Stage 1c: route B(j,k) from the i=0 face to (j,j,k).
		var bBuf []float64
		if i == 0 {
			route(pr, grid.RankOf(j, j, k), tagGKRouteB, blockData(gb.Block(j, k)))
		}
		if i == j {
			bBuf = pr.Recv(grid.RankOf(0, j, k), tagGKRouteB)
		}
		sync()

		// Stage 1d: broadcast B along the second axis: (j,j,k) → (j,*,k).
		bBuf = bcast(pr, grid.AxisLine(1, i, k), i, tagGKBcastB, bBuf)
		sync()

		// Stage 2: every processor multiplies its blocks. Processor
		// (i,j,k) holds A(j,i) and B(i,k).
		c := matrix.Mul(blockFrom(aBuf, bs, bs), blockFrom(bBuf, bs, bs))
		pr.Compute(float64(bs) * float64(bs) * float64(bs))
		pr.Recycle(aBuf)
		pr.Recycle(bBuf)
		sync()

		// Stage 3: sum the q₃ partials along the first axis into i=0.
		sum := reduce(pr, grid.AxisLine(0, j, k), 0, tagGKReduce, blockData(c))
		releaseBlock(pr, c) // the reduction copied it; the partial is dead

		// Verification gather from the i=0 face.
		holders := make([]int, q3*q3)
		for jj := 0; jj < q3; jj++ {
			for kk := 0; kk < q3; kk++ {
				holders[jj*q3+kk] = grid.RankOf(0, jj, kk)
			}
		}
		if i == 0 {
			gatherGrid(pr, holders, q3, q3, tagGatherC, blockFrom(sum, bs, bs), &product)
		}
	})
	if err != nil {
		return nil, err
	}
	return newResult(v.name, product, sim, n, p), nil
}

// gkAllPortComm is the communication total of Eq. (17):
// ts·log₂p + 9·tw·n²/(p^(2/3)·log₂p) + 6·(n/p^(1/3))·sqrt(ts·tw).
func gkAllPortComm(ts, tw float64, n, p int) float64 {
	if p == 1 {
		return 0
	}
	logp := math.Log2(float64(p))
	m := float64(n) * float64(n) / math.Pow(float64(p), 2.0/3.0)
	bs := float64(n) / math.Cbrt(float64(p))
	return ts*logp + 9*tw*m/logp + 6*bs*math.Sqrt(ts*tw)
}
