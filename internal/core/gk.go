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
	return gkImpl(m, a, b, gkBinomial)
}

// gkBinomial is GK's variant: plain binomial trees.
var gkBinomial = gkVariant{name: "GK"}

// GKImprovedBroadcast is the Section 5.4.1 variant: all five
// communication stages use the optimized one-to-all broadcast of
// Johnsson and Ho, giving total communication 5·JH(m, p^(1/3)) — the
// closed form the paper writes as
//
//	5·tw·n²/p^(2/3) + (5/3)·ts·log₂p + 10·(n/p^(1/3))·sqrt((1/3)·ts·tw·log₂p)
//
// (transport 4/5 of it, gather/sum the rest).
func GKImprovedBroadcast(m *machine.Machine, a, b *matrix.Dense) (*Result, error) {
	return gkImpl(m, a, b, gkImproved)
}

// gkImproved is GKImprovedBroadcast's variant: every stage charged the
// Johnsson–Ho broadcast time.
var gkImproved = gkVariant{
	name: "GKImprovedBroadcast",
	stageCost: func(m *machine.Machine, n, q3 int) float64 {
		bs := n / q3
		return collective.JohnssonHoTime(m.Ts, m.Tw, bs*bs, q3)
	},
}

// GKAllPort is the Section 7.2 variant on a hypercube with simultaneous
// communication on all ports; its five stages are charged one fifth of
// the Eq. (17) communication total each:
//
//	Tp = n³/p + ts·log₂p + 9·tw·n²/(p^(2/3)·log₂p) + 6·(n/p^(1/3))·sqrt(ts·tw)
func GKAllPort(m *machine.Machine, a, b *matrix.Dense) (*Result, error) {
	return gkImpl(m, a, b, gkAllPort)
}

// gkAllPort is GKAllPort's variant: every stage charged a fifth of the
// Eq. (17) communication total.
var gkAllPort = gkVariant{
	name: "GKAllPort",
	stageCost: func(m *machine.Machine, n, q3 int) float64 {
		return gkAllPortComm(m.Ts, m.Tw, n, q3*q3*q3) / 5
	},
}

// gkImpl runs the GK algorithm with variant v's stage scheme: on the
// event engine's wave tier when the simulator takes its skeleton, as a
// rank program otherwise.
func gkImpl(m *machine.Machine, a, b *matrix.Dense, v gkVariant) (*Result, error) {
	res, ok, err := onWave(m, a, b, v.name, v.skeleton, func(q3 int) *matrix.Dense {
		return gkProduct(a, b, q3, v.stageCost == nil)
	})
	if ok || err != nil {
		return res, err
	}
	n, p := a.Rows, m.P()
	q3 := topology.IntCbrt(p)
	bs := n / q3
	grid := topology.NewGrid3D(q3)
	holders := gkHolders(grid)
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
		if i == 0 {
			gatherGrid(pr, holders, q3, q3, tagGatherC, blockFrom(sum, bs, bs), &product)
		}
	})
	if err != nil {
		return nil, err
	}
	return newResult(v.name, product, sim, n, p), nil
}

// gkHolders returns the verification gather's holders on grid: the
// i=0 face, block (j,k) at index j·q₃+k.
func gkHolders(grid topology.Grid3D) []int {
	q3 := grid.Q
	holders := make([]int, q3*q3)
	for j := 0; j < q3; j++ {
		for k := 0; k < q3; k++ {
			holders[j*q3+k] = grid.RankOf(0, j, k)
		}
	}
	return holders
}

// skeleton is the timed skeleton of gkImpl's rank program for n×n
// operands on the p^(1/3)-sided cube: the four transport stages, each
// followed by a barrier, the multiplication and its barrier, the
// reduction along the first axis, and the verification gather from
// the i=0 face. Every route, broadcast and reduction charges the
// variant's stage cost, or the machine's message time and binomial
// trees when it has none.
func (v gkVariant) skeleton(m *machine.Machine, n int) (simulator.Skeleton, int, error) {
	q3, err := cubeSide(n, m.P())
	if err != nil {
		return simulator.Skeleton{}, 0, err
	}
	var cost simulator.Cost // zero: MsgTime routes and binomial trees
	if v.stageCost != nil {
		cost = simulator.Charged(v.stageCost(m, n, q3))
	}
	bs := n / q3
	grid := topology.NewGrid3D(q3)
	words := bs * bs
	// lines returns every line of the grid along axis, indexed by its
	// two fixed coordinates (c1, c2) at c1·q₃+c2, and the index within
	// each line of its root: the line's c1-th member, or member 0. A
	// line is an arithmetic progression of ranks (Grid3D.AxisLine's),
	// so all of them fill one backing array by stride.
	lines := func(axis int, rootAtC1 bool) ([][]int, []int) {
		stride, s1, s2 := q3*q3, q3, 1 // axis 0: (*, c1, c2)
		switch axis {
		case 1: // (c1, *, c2)
			stride, s1, s2 = q3, q3*q3, 1
		case 2: // (c1, c2, *)
			stride, s1, s2 = 1, q3*q3, q3
		}
		ranks := make([]int, q3*q3*q3)
		groups := make([][]int, q3*q3)
		roots := make([]int, q3*q3)
		for c1 := 0; c1 < q3; c1++ {
			for c2 := 0; c2 < q3; c2++ {
				g := c1*q3 + c2
				line := ranks[g*q3 : (g+1)*q3 : (g+1)*q3]
				for v := range line {
					line[v] = c1*s1 + c2*s2 + v*stride
				}
				groups[g] = line
				if rootAtC1 {
					roots[g] = c1
				}
			}
		}
		return groups, roots
	}
	// route sends each i=0 face block (j,k) to the rank dst(j,k) names:
	// the face is the first q₃² ranks, so one division finds (j,k).
	face := q3 * q3
	route := func(dst func(j, k int) int) simulator.Send {
		return simulator.Send{Words: words, Cost: cost, Dst: func(r int) int {
			if r >= face {
				return -1
			}
			j := r / q3
			return dst(j, r-j*q3)
		}}
	}
	aLines, aRoots := lines(2, true)  // (i,j,*) rooted at (i,j,i)
	bLines, bRoots := lines(1, true)  // (i,*,k) rooted at (i,i,k)
	cLines, cRoots := lines(0, false) // (*,j,k) rooted at (0,j,k)
	return simulator.Skeleton{P: grid.Size(), Steps: []simulator.Step{
		route(func(j, k int) int { return grid.RankOf(k, j, k) }),
		simulator.Barrier{},
		simulator.Broadcast{Words: words, Groups: aLines, Roots: aRoots, Cost: cost},
		simulator.Barrier{},
		route(func(j, k int) int { return grid.RankOf(j, j, k) }),
		simulator.Barrier{},
		simulator.Broadcast{Words: words, Groups: bLines, Roots: bRoots, Cost: cost},
		simulator.Barrier{},
		simulator.Compute{Flops: float64(bs) * float64(bs) * float64(bs)},
		simulator.Barrier{},
		simulator.Reduce{Words: words, Groups: cLines, Roots: cRoots, Cost: cost},
		simulator.Gather{Words: words, Holders: gkHolders(grid)},
	}}, q3, nil
}

// gkProduct multiplies a and b in GK's own addition order on a q3-sided
// cube: block (j,k) of the product is Σᵢ A(j,i)·B(i,k), each partial a
// fresh product of the blocks read in place (processor (i,j,k)'s stage
// 2), summed along the first axis in the rounds of the binomial
// Reduce's tree rooted at i = 0 (pairwise), or left to right as
// ReduceCharged's root adds them. The element values equal what the
// message-passing run gathers, bit for bit.
func gkProduct(a, b *matrix.Dense, q3 int, pairwise bool) *matrix.Dense {
	bs := a.Rows / q3
	c := matrix.New(a.Rows, a.Rows)
	partial := make([]*matrix.Dense, q3)
	for i := range partial {
		partial[i] = matrix.New(bs, bs)
	}
	tree := topology.ReduceTree(q3, 0)
	for j := 0; j < q3; j++ {
		for k := 0; k < q3; k++ {
			for i, part := range partial {
				clear(part.Data)
				matrix.MulAddBlock(part, 0, 0, a, j*bs, i*bs, b, i*bs, k*bs, bs, bs, bs)
			}
			if pairwise {
				for round := 0; round < tree.Rounds(); round++ {
					tree.Links(round, func(src, dst int) { partial[dst].AddInPlace(partial[src]) })
				}
			} else {
				for _, part := range partial[1:] {
					partial[0].AddInPlace(part)
				}
			}
			c.SetBlock(j*bs, k*bs, partial[0])
		}
	}
	return c
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
