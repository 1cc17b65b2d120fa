package topology

import "math/bits"

// BinomialTree is the schedule of one tree collective over a group of
// a power-of-two size: the log₂size rounds of one-hop transfers the
// paper prices every tree broadcast and reduction at (Sections 4.3 and
// 4.6). Members are labeled relative to the root, rel = member ^ root.
// In round b, the member whose rel has bits 0..b clear is the parent
// of rel|1<<b. A broadcast walks the rounds from high to low, each
// parent sending to its child; a reduce walks them from low to high,
// each child sending to its parent. Link is one member's view of a
// round, for rank programs; Links is the whole round, for schedules
// over all ranks.
type BinomialTree struct {
	size, root int
	reduce     bool
}

// BroadcastTree returns the schedule of a broadcast from member root.
func BroadcastTree(size, root int) BinomialTree { return BinomialTree{size, root, false} }

// ReduceTree returns the schedule of a reduction into member root.
func ReduceTree(size, root int) BinomialTree { return BinomialTree{size, root, true} }

// Rounds returns the number of rounds the collective walks.
func (t BinomialTree) Rounds() int { return bits.Len(uint(t.size - 1)) }

// Link returns member's transfer in the k-th round the collective
// walks, 0 ≤ k < Rounds(): its partner, and whether member sends or
// receives. ok is false when member is idle in that round.
func (t BinomialTree) Link(member, k int) (peer int, sends, ok bool) {
	b := t.bit(k)
	rel := member ^ t.root
	switch parent, child := edge(rel>>(b+1), b); rel {
	case parent:
		return child ^ t.root, !t.reduce, true
	case child:
		return parent ^ t.root, t.reduce, true
	}
	return 0, false, false
}

// Links calls fn(src, dst) for every transfer of the k-th round the
// collective walks, in root-relative order of their parents; it calls
// nothing when k is not a round.
func (t BinomialTree) Links(k int, fn func(src, dst int)) {
	if k < 0 || k >= t.Rounds() {
		return
	}
	b := t.bit(k)
	for j := 0; j < t.size>>(b+1); j++ {
		src, dst := edge(j, b)
		if t.reduce {
			src, dst = dst, src
		}
		fn(src^t.root, dst^t.root)
	}
}

// bit returns the round the collective walks k-th: a broadcast walks
// them from high to low, a reduce from low to high.
func (t BinomialTree) bit(k int) int {
	if t.reduce {
		return k
	}
	return t.Rounds() - 1 - k
}

// edge returns the j-th link of round b: the parent is the j-th rel
// whose bits 0..b are clear, and its child differs from it in bit b.
func edge(j, b int) (parent, child int) {
	parent = j << (b + 1)
	return parent, parent | 1<<b
}
