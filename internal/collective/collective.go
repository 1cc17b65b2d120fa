// Package collective implements the group communication operations the
// paper's algorithms are built from: one-to-all broadcast (binomial
// tree and the Johnsson–Ho optimized scheme of reference [20]),
// all-to-all broadcast (recursive doubling, plus the all-port variant
// of Section 7), tree reduction, and reduce-scatter by recursive
// halving (the summation step of Berntsen's algorithm).
//
// Every operation is a *symmetric* routine: all members of the group
// must call it with the same group slice and tag, exactly like an MPI
// collective. Groups for the tree-structured operations must have
// power-of-two size; on a hypercube a group enumerated in subcube index
// order communicates only between physical neighbors.
//
// Broadcast and Reduce take their rounds from topology.BinomialTree,
// the one binomial-tree schedule the simulator's wave tier and GK's
// host-side sum read too. Each operation has a companion *Time function
// giving its virtual-time cost on the critical path as a closed form
// written independently of that schedule. The collective tests verify
// that the measured simulator time equals the companion formula
// exactly — that correspondence is what makes the algorithm-level
// equation tests (Eqs. 2–7 of the paper) meaningful.
//
// Concurrent collectives on overlapping groups must use distinct tags;
// messages are matched by (source, tag).
//
// The operations follow the simulator's buffer ownership contract:
// caller-supplied payloads are only ever sent with copy semantics (a
// caller keeps its slice), received buffers that an operation consumes
// internally are recycled into the processor's buffer pool, and
// buffers an operation returns are owned by its caller. Transient
// tree/ring buffers created inside an operation travel on the
// ownership-transfer fast path where the data flow allows it.
package collective

import (
	"fmt"
	"math"

	"matscale/internal/simulator"
	"matscale/internal/topology"
)

// indexIn returns the position of rank in group, panicking if absent.
func indexIn(group []int, rank int) int {
	for i, r := range group {
		if r == rank {
			return i
		}
	}
	panic(fmt.Sprintf("collective: rank %d is not a member of group %v", rank, group))
}

// rootedIndex returns pr's position in group, panicking if pr is
// absent or rootIdx is not a position in group.
func rootedIndex(pr *simulator.Proc, group []int, rootIdx int) int {
	idx := indexIn(group, pr.Rank())
	if rootIdx < 0 || rootIdx >= len(group) {
		panic(fmt.Sprintf("collective: root index %d out of range for group of %d", rootIdx, len(group)))
	}
	return idx
}

// sendAll sends data from the member at idx to every other member in
// group order, charging the first send cost and moving the rest free.
func sendAll(pr *simulator.Proc, group []int, idx, tag int, data []float64, cost float64) {
	for i, r := range group {
		if i != idx {
			pr.ChargedSend(r, tag, data, cost)
			cost = 0
		}
	}
}

// recvAll receives every other member's contribution, each as long as
// mine, and returns the contributions concatenated in group order,
// mine at idx.
func recvAll(pr *simulator.Proc, group []int, idx, tag int, mine []float64) []float64 {
	m := len(mine)
	buf := make([]float64, m*len(group))
	copy(buf[idx*m:(idx+1)*m], mine)
	for i, r := range group {
		if i != idx {
			got := pr.Recv(r, tag)
			copy(buf[i*m:(i+1)*m], got)
			pr.Recycle(got)
		}
	}
	return buf
}

// log2Size validates that a group of g members has power-of-two size
// and returns log2(g).
func log2Size(g int) int {
	d, ok := topology.Log2(g)
	if !ok {
		panic(fmt.Sprintf("collective: group size %d is not a power of two", g))
	}
	return d
}

// Broadcast distributes data from the group member at rootIdx to every
// member using a binomial tree and returns the data on every member.
// Critical-path cost: log2(g) · (ts + tw·m) on neighbor-ordered groups.
func Broadcast(pr *simulator.Proc, group []int, rootIdx, tag int, data []float64) []float64 {
	log2Size(len(group))
	idx := rootedIndex(pr, group, rootIdx)
	tree := topology.BroadcastTree(len(group), rootIdx)
	buf := data
	for k := 0; k < tree.Rounds(); k++ {
		peer, sends, ok := tree.Link(idx, k)
		switch {
		case ok && sends:
			pr.SendNeighbor(group[peer], tag, buf)
		case ok:
			buf = pr.Recv(group[peer], tag)
		}
	}
	return buf
}

// BroadcastTime is the critical-path cost of Broadcast.
func BroadcastTime(ts, tw float64, m, g int) float64 {
	d := log2Size(g)
	return float64(d) * (ts + tw*float64(m))
}

// JohnssonHoTime is the cost of the optimized one-to-all broadcast of
// Johnsson and Ho ([20], used in Section 5.4.1 of the paper):
//
//	ts·log g + tw·m + 2·tw·log g·ceil(sqrt(ts·m / (tw·log g)))
//
// with the packet-count term clamped to at least one word per packet,
// following the paper's convention that the square root is "considered
// equal to 1" when the message is too small to fill the channels.
func JohnssonHoTime(ts, tw float64, m, g int) float64 {
	d := log2Size(g)
	if d == 0 {
		return 0
	}
	l := float64(d)
	t := ts*l + tw*float64(m)
	if tw > 0 && m > 0 {
		pkt := math.Ceil(math.Sqrt(ts * float64(m) / (tw * l)))
		if pkt < 1 {
			pkt = 1
		}
		t += 2 * tw * l * pkt
	}
	return t
}

// BroadcastCharged distributes data from rootIdx to every group member,
// charging the root exactly cost virtual time units. It models
// communication operations whose aggregate cost the paper takes as a
// closed form (the Johnsson–Ho broadcast, the pipelined Fox broadcast,
// the all-port schemes); the data movement is performed in one logical
// step, which changes no measured time relative to the packetized
// schedule (see DESIGN.md).
func BroadcastCharged(pr *simulator.Proc, group []int, rootIdx, tag int, data []float64, cost float64) []float64 {
	if idx := rootedIndex(pr, group, rootIdx); idx == rootIdx {
		sendAll(pr, group, idx, tag, data, cost)
		return data
	}
	return pr.Recv(group[rootIdx], tag)
}

// ReduceCharged sums the members' equal-length vectors at the member at
// rootIdx, charging each contributor exactly cost virtual time units
// (the root's completion is the latest contribution's arrival). It is
// the reduction counterpart of BroadcastCharged for closed-form-cost
// schemes; the elementwise additions are pre-paid under the unit-cost
// convention (see Reduce). Returns the sum at the root, nil elsewhere.
func ReduceCharged(pr *simulator.Proc, group []int, rootIdx, tag int, data []float64, cost float64) []float64 {
	if idx := rootedIndex(pr, group, rootIdx); idx != rootIdx {
		pr.ChargedSend(group[rootIdx], tag, data, cost)
		return nil
	}
	acc := make([]float64, len(data))
	copy(acc, data)
	for i, r := range group {
		if i == rootIdx {
			continue
		}
		got := pr.Recv(r, tag)
		if len(got) != len(acc) {
			panic(fmt.Sprintf("collective: ReduceCharged length mismatch %d vs %d", len(got), len(acc)))
		}
		for k, v := range got {
			acc[k] += v
		}
		pr.Recycle(got)
	}
	return acc
}

// AllGather performs an all-to-all broadcast by recursive doubling:
// every member contributes mine (all contributions must have equal
// length m) and receives the concatenation ordered by group index.
// Critical-path cost: ts·log g + tw·m·(g−1).
func AllGather(pr *simulator.Proc, group []int, tag int, mine []float64) []float64 {
	d := log2Size(len(group))
	idx := indexIn(group, pr.Rank())
	g := len(group)
	m := len(mine)
	buf := make([]float64, m*g)
	copy(buf[idx*m:(idx+1)*m], mine)
	for s := 0; s < d; s++ {
		partner := idx ^ (1 << s)
		// Segments owned so far: those sharing the index bits above s.
		lo := (idx >> s) << s
		plo := (partner >> s) << s
		got := exchangeLiveSegment(pr, group[partner], tag+s, buf[lo*m:(lo+1<<s)*m])
		copy(buf[plo*m:(plo+1<<s)*m], got)
		pr.Recycle(got)
	}
	return buf
}

// exchangeLiveSegment exchanges a segment that aliases a buffer the
// caller keeps using (an AllGather accumulation window, a
// ReduceScatter half) with a hypercube neighbor. Such a segment must
// never ride the ownership-transfer fast path: the pooled runtime
// would hold a slice still backing caller-visible memory, and a later
// delivery into the recycled buffer would overwrite it — the aliasing
// ownflow rejects. This helper is the one place that argument lives;
// it pins the exchange to the copying ExchangeNeighbor. The returned
// buffer is caller-owned and must be recycled after consumption.
func exchangeLiveSegment(pr *simulator.Proc, partner, tag int, segment []float64) []float64 {
	return pr.ExchangeNeighbor(partner, tag, segment)
}

// AllGatherTime is the critical-path cost of AllGather for per-member
// message size m and group size g.
func AllGatherTime(ts, tw float64, m, g int) float64 {
	d := log2Size(g)
	return ts*float64(d) + tw*float64(m)*float64(g-1)
}

// AllPortAllGatherTime is the cost of an all-to-all broadcast on a
// hypercube with simultaneous communication on all ports (Section 7.1):
// ts·log g + tw·m·g/log g.
func AllPortAllGatherTime(ts, tw float64, m, g int) float64 {
	d := log2Size(g)
	if d == 0 {
		return 0
	}
	return ts*float64(d) + tw*float64(m)*float64(g)/float64(d)
}

// AllGatherAllPort performs the all-to-all broadcast charging the
// all-port closed form of Section 7.1. All members must call it; the
// result is the concatenation ordered by group index.
func AllGatherAllPort(pr *simulator.Proc, group []int, tag int, mine []float64) []float64 {
	log2Size(len(group))
	idx := indexIn(group, pr.Rank())
	sendAll(pr, group, idx, tag, mine, AllPortAllGatherTime(pr.Machine().Ts, pr.Machine().Tw, len(mine), len(group)))
	return recvAll(pr, group, idx, tag, mine)
}

// Reduce sums the members' equal-length vectors into the member at
// rootIdx using a binomial tree, returning the sum at the root and nil
// elsewhere. Communication cost on the critical path:
// log2(g)·(ts + tw·m). The elementwise additions advance no virtual
// time: under the paper's unit-cost convention one "basic operation"
// is a multiply–add pair, so the additions that complete each inner
// product are pre-paid by the multiplication stage that produced the
// partial products (this is exactly how Eq. (7) charges the GK
// algorithm's third stage: t_add·n³/p is folded into the n³/p term).
func Reduce(pr *simulator.Proc, group []int, rootIdx, tag int, data []float64) []float64 {
	log2Size(len(group))
	idx := rootedIndex(pr, group, rootIdx)
	tree := topology.ReduceTree(len(group), rootIdx)
	acc := make([]float64, len(data))
	copy(acc, data)
	for k := 0; k < tree.Rounds(); k++ {
		peer, sends, ok := tree.Link(idx, k)
		switch {
		case ok && sends:
			// acc is this member's private accumulator and dies here,
			// so it rides the ownership-transfer fast path.
			pr.SendNeighborOwned(group[peer], tag, acc)
			return nil
		case ok:
			got := pr.Recv(group[peer], tag)
			if len(got) != len(acc) {
				panic(fmt.Sprintf("collective: Reduce length mismatch %d vs %d", len(got), len(acc)))
			}
			for i, v := range got {
				acc[i] += v
			}
			pr.Recycle(got)
		}
	}
	return acc
}

// ReduceTime is the critical-path communication cost of Reduce.
func ReduceTime(ts, tw float64, m, g int) float64 { return BroadcastTime(ts, tw, m, g) }

// ReduceScatter sums the members' equal-length vectors and leaves each
// member with one distinct 1/g slice of the sum, using recursive
// halving (the summation step of Berntsen's algorithm, Section 4.4).
// It returns the local slice and its starting offset in the full
// vector. The vector length must be divisible by the group size.
// Critical-path cost: ts·log g + tw·m·(1 − 1/g). Additions are
// pre-paid under the unit-cost convention (see Reduce).
func ReduceScatter(pr *simulator.Proc, group []int, tag int, data []float64) ([]float64, int) {
	d := log2Size(len(group))
	idx := indexIn(group, pr.Rank())
	g := len(group)
	if len(data)%g != 0 {
		panic(fmt.Sprintf("collective: ReduceScatter length %d not divisible by group size %d", len(data), g))
	}
	acc := make([]float64, len(data))
	copy(acc, data)
	lo, hi := 0, len(acc) // current active range
	for s := d - 1; s >= 0; s-- {
		partner := idx ^ (1 << s)
		mid := lo + (hi-lo)/2
		var keepLo, keepHi, sendLo, sendHi int
		if idx&(1<<s) == 0 {
			keepLo, keepHi, sendLo, sendHi = lo, mid, mid, hi
		} else {
			keepLo, keepHi, sendLo, sendHi = mid, hi, lo, mid
		}
		got := exchangeLiveSegment(pr, group[partner], tag+s, acc[sendLo:sendHi])
		for i, v := range got {
			acc[keepLo+i] += v
		}
		pr.Recycle(got)
		lo, hi = keepLo, keepHi
	}
	out := make([]float64, hi-lo)
	copy(out, acc[lo:hi])
	return out, lo
}

// ReduceScatterTime is the critical-path cost of ReduceScatter.
func ReduceScatterTime(ts, tw float64, m, g int) float64 {
	d := log2Size(g)
	return ts*float64(d) + tw*float64(m)*(1-1/float64(g))
}

// BarrierFree synchronizes the virtual clocks of all group members to
// their maximum at zero cost. The paper's stage-by-stage accounting
// charges every processor the worst-case duration of each stage
// (phases execute in lockstep); algorithms insert this barrier between
// stages so that the simulated Tp equals the paper's equations exactly.
func BarrierFree(pr *simulator.Proc, group []int, tag int) {
	idx := indexIn(group, pr.Rank())
	if len(group) == 1 {
		return
	}
	if idx == 0 {
		for _, r := range group[1:] {
			pr.Recv(r, tag) //ownflow:reviewed nil barrier payload; the clock rises to the latest sender
		}
		sendAll(pr, group, 0, tag, nil, 0) // release at the synchronized time
		return
	}
	pr.SendFree(group[0], tag, nil)
	pr.Recv(group[0], tag) //ownflow:reviewed nil release payload; only the synchronized time matters
}

// AllGatherFree performs the all-to-all broadcast at zero virtual cost.
// It models a transfer that proceeds simultaneously with another,
// already-charged transfer on an all-port machine (Section 7.1 notes
// that the broadcasts of A and B proceed simultaneously, so only one is
// charged).
func AllGatherFree(pr *simulator.Proc, group []int, tag int, mine []float64) []float64 {
	idx := indexIn(group, pr.Rank())
	sendAll(pr, group, idx, tag, mine, 0)
	return recvAll(pr, group, idx, tag, mine)
}
