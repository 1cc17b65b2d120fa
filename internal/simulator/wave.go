// The wave tier of the event engine: a scheduler for timed skeletons —
// programs whose every program point is the same for all ranks up to
// data (compute, a shift, a permutation send, a broadcast or reduction
// over fixed groups, a barrier, a gather) — that needs no coroutine, no
// mailbox and no per-message event at all. Such a program point is one
// synchronous wave: the arrival time of every message is a pure
// function of its sender's clock after the send, so the event loop's
// least-time ordering collapses into array passes over the ranks. The
// charging below replays, add for add and in the same order, exactly
// what Proc charges the fiber tier (fiber.go) for the rank program the
// skeleton describes, so the Result is byte-identical to both other
// engine paths — the native differential suite (wave_test.go) asserts
// this for Cannon, the GK family, Fox and FoxPipelined.
//
// One validating pass checks every step before anything is charged and
// evaluates each Shift and Send rank map once per rank: the per-rank
// path stores the destinations and link costs it resolves, so a
// Repeat's body pays its rank maps and link-fault hashes once however
// often it runs. The per-rank path then walks the skeleton's steps in
// place, in program order, re-walking a Repeat's body each time, and
// reads each transfer's resolved links. Collectives are fixed
// sequences of transfer rounds, the way the hyper-systolic formulations
// write broadcasts and reductions as fixed shift sequences: a binomial
// broadcast or reduction over g ranks is the log₂g rounds of
// topology.BinomialTree, the schedule the rank programs of package
// collective walk too, and a closed-form-charged collective is one
// round. A barrier and a gather move no charged data, so each is only a
// maximum over clocks.
//
// On a healthy machine (no fault configuration) a skeleton made only of
// compute, shifts whose ranks are all alike (all self or all
// non-self), zero-cost sends, barriers and gathers charges every rank
// identically, all clocks stay equal by induction, and the wave
// degenerates to a single representative clock. The step kinds decide
// this before the validating pass, which then keeps only the
// representative rank 0's link of each transfer step, no per-rank
// table — the million-rank regime: simulating Cannon at p = 2^20 costs
// the O(p) validating pass over each of its four distinct transfer
// steps, then O(√p) clock arithmetic, plus the real block arithmetic
// the caller performs. Anything else runs the full per-rank wave
// passes.

package simulator

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"matscale/internal/machine"
	"matscale/internal/topology"
)

// Skeleton is the timed skeleton of a rank program on P ranks: the
// steps every rank passes through, in program order. It carries no
// payload. The caller performs the real data movement and arithmetic
// itself (it is independent of virtual time), and RunSkeleton
// reproduces the virtual-time accounting the fiber tier measures
// running the equivalent rank bodies.
type Skeleton struct {
	P     int
	Steps []Step
}

// Step is one program point of a Skeleton: a Compute, Shift, Send,
// Broadcast, Reduce, Barrier, Gather or Repeat.
type Step interface{ isStep() }

// Compute charges every rank Flops unit operations (Proc.Compute).
type Compute struct{ Flops float64 }

// Shift is a nearest-neighbor exchange: every rank sends Words words to
// Dst(rank), charging one hop (Proc.SendNeighbor), and then receives
// the message addressed to it. Dst must be a permutation; a rank whose
// Dst is itself moves its message at zero cost.
type Shift struct {
	Words int
	Dst   func(r int) int
}

// Send is a permutation send: every rank whose Dst is not negative
// sends Words words to Dst(rank), and every addressed rank then
// receives. The zero Cost charges the routed transfer time
// (Proc.Send); Charged(c) charges exactly c (Proc.ChargedSend), with a
// send to self free.
type Send struct {
	Words int
	Dst   func(r int) int
	Cost  Cost
}

// Broadcast distributes Words words from member Roots[g] of each group
// Groups[g] to the whole group. Groups must be disjoint. The zero Cost
// runs a binomial tree of one-hop transfers over a power-of-two group
// (collective.Broadcast): every tree link is charged one hop, whatever
// the distance between its members on the machine's topology.
// Charged(c) charges the root c once and moves the data in one step
// (collective.BroadcastCharged).
type Broadcast struct {
	Words  int
	Groups [][]int
	Roots  []int
	Cost   Cost
}

// Reduce sums Words-word vectors of each group Groups[g] into its
// member Roots[g]. Groups must be disjoint. The zero Cost runs a
// binomial tree of one-hop transfers over a power-of-two group
// (collective.Reduce), every link charged one hop as in Broadcast;
// Charged(c) charges every contributor c (collective.ReduceCharged).
type Reduce struct {
	Words  int
	Groups [][]int
	Roots  []int
	Cost   Cost
}

// Barrier synchronizes every rank's clock to the maximum at zero cost
// (collective.BarrierFree over all ranks): it sets every clock to the
// latest one. It counts as the 2(P−1) messages BarrierFree sends.
type Barrier struct{}

// Gather collects Words words from every holder at Holders[0] at zero
// cost, in holder order — the verification gather. Nil Holders means
// every rank in rank order; empty Holders gathers nothing. Only the
// collector's clock moves, to the latest clock among the holders; the
// other holders send free and go on.
type Gather struct {
	Words   int
	Holders []int
}

// Repeat runs Body Times times.
type Repeat struct {
	Times int
	Body  []Step
}

func (Compute) isStep()   {}
func (Shift) isStep()     {}
func (Send) isStep()      {}
func (Broadcast) isStep() {}
func (Reduce) isStep()    {}
func (Barrier) isStep()   {}
func (Gather) isStep()    {}
func (Repeat) isStep()    {}

// Cost selects how a Send, Broadcast or Reduce charges its transfers:
// the zero Cost charges the machine's message time, Charged a closed
// form.
type Cost struct {
	charged bool
	c       float64
}

// Charged returns the Cost charging exactly c virtual time units per
// charged transfer. Charged(0) moves data for free (Proc.SendFree).
func Charged(c float64) Cost { return Cost{charged: true, c: c} }

// waveRuns counts the runs RunSkeleton takes, so a test can tell a
// wave-tier run from a silent fallback to the fiber tier.
var waveRuns atomic.Int64

// RunSkeleton simulates sk on m on the wave tier and returns the same
// Result the fiber tier measures for the equivalent rank program. ok is
// false, with no error, when m's run must take another tier (see
// tierOf); the caller then runs the rank program through Run. m must
// already be valid.
func RunSkeleton(m *machine.Machine, sk Skeleton) (res *Result, ok bool, err error) {
	if tierOf(m) != tierWave {
		return nil, false, nil
	}
	p := sk.P
	if p != m.P() {
		return nil, false, fmt.Errorf("simulator: skeleton for %d ranks on a %d-processor machine", p, m.P())
	}
	transfers, lock := census(sk.Steps)
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	v := newResolver(m, p, lock && m.Faults == nil, transfers, sc)
	msgs, words, err := v.resolve(sk.Steps, true)
	if errors.Is(err, errUneven) {
		// A shift that is self for only some ranks ends the lockstep
		// attempt, and the pass starts over on the per-rank path, paying
		// the rank maps before it twice. No formulation builds one.
		v = newResolver(m, p, false, transfers, sc)
		msgs, words, err = v.resolve(sk.Steps, true)
	}
	if err != nil {
		return nil, false, err
	}
	waveRuns.Add(1)
	w := &wave{
		m:       m,
		clock:   make([]float64, p),
		compT:   make([]float64, p),
		commT:   make([]float64, p),
		scratch: sc,
	}
	if v.lock {
		// One representative clock carries every rank: compute, then
		// each send advances it by the hop cost; every matching receive's
		// arrival equals the local clock (all senders are at the same
		// time), so the max is a no-op — exactly the lockstep wavefront
		// of the paper's model. Gathers and barriers see equal clocks.
		rep := lockstep{links: v.links}
		rep.walk(sk.Steps, 0)
		for r := 0; r < p; r++ {
			w.clock[r], w.compT[r], w.commT[r] = rep.clock, rep.compT, rep.commT
		}
	} else {
		if m.Faults != nil {
			w.sx = make([]float64, p)
			w.factor = make([]float64, p)
			for r := range w.factor {
				w.factor[r] = m.Faults.ComputeFactor(r)
			}
		}
		w.round = slices.Grow(w.round[:0], p)
		w.walk(sk.Steps, 0)
	}
	return w.result(msgs, words), true, nil
}

// census counts the Shift and Send steps the validating pass stores,
// a Repeat body once and a body no iteration runs not at all, and
// reports whether their kinds charge every rank alike on a healthy
// machine: compute, shifts, zero-cost sends, barriers and gathers.
func census(steps []Step) (transfers int, lock bool) {
	lock = true
	for _, s := range steps {
		switch s := s.(type) {
		case Shift:
			transfers++
		case Send:
			transfers++
			lock = lock && s.Cost.charged && s.Cost.c == 0
		case Broadcast, Reduce:
			lock = false
		case Repeat:
			if s.Times > 0 {
				n, ok := census(s.Body)
				transfers += n
				lock = lock && ok
			}
		}
	}
	return transfers, lock
}

// errUneven ends a lockstep attempt at a shift that is self for some
// ranks and not for others, which charges ranks differently.
var errUneven = errors.New("simulator: uneven shift")

// scratch is the working memory of one RunSkeleton call that its
// Result does not keep: the resolver's stored links, step after step,
// and its member marks, and the wave's round in flight. RunSkeleton
// takes it from scratchPool and returns it when the Result is built,
// so concurrent runs each hold their own and a repeated run reuses
// the arrays of an earlier one. Every slot is written before it is
// read, so what a previous run left in it never reaches a Result.
type scratch struct {
	links []link
	seen  []bool
	round []stamp
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }} //nodetbreak:pooled — scratch only, every slot written before read

// resolver is the validating pass of one RunSkeleton call. It checks
// the steps in program order before anything is charged, counts the
// messages and words they send, the totals Proc's deliver counts, and
// evaluates every Shift and Send rank map once per rank. It stores the
// links of each Shift or Send in its scratch: every rank's on the
// per-rank path, only the representative rank 0's on the lockstep
// path. A Repeat body is resolved once, and one that no iteration runs
// is validated but not stored.
type resolver struct {
	m     *machine.Machine
	p     int
	lock  bool
	width int // links stored per Shift or Send: p, or 1 on the lockstep path
	*scratch
}

// link is one rank's resolved transfer in a Shift or Send: its
// receiver, or −1 when its message moves no clock, and its cost.
type link struct {
	dst  int
	cost float64
}

// newResolver returns the pass for p ranks on the lockstep path or the
// per-rank one, storing into sc, whose links it empties and sizes for
// transfers stored Shift and Send steps.
func newResolver(m *machine.Machine, p int, lock bool, transfers int, sc *scratch) *resolver {
	width := p
	if lock {
		width = 1
	}
	sc.links = slices.Grow(sc.links[:0], transfers*width)
	return &resolver{m: m, p: p, lock: lock, width: width, scratch: sc}
}

// resolve validates and resolves steps, storing what the charging
// passes read when store is set, and returns their message and word
// counts.
func (v *resolver) resolve(steps []Step, store bool) (msgs, words int, err error) {
	p := v.p
	for _, s := range steps {
		n := 0 // messages of this step
		w := 0 // words per message
		switch s := s.(type) {
		case Compute:
			if s.Flops < 0 {
				return 0, 0, fmt.Errorf("simulator: negative compute time %v", s.Flops)
			}
		case Shift:
			if err := v.shift(s, store); err != nil {
				return 0, 0, err
			}
			n, w = p, s.Words
		case Send:
			if s.Cost.c < 0 {
				return 0, 0, fmt.Errorf("simulator: negative send cost %v", s.Cost.c)
			}
			if n, err = v.send(s, store); err != nil {
				return 0, 0, err
			}
			w = s.Words
		case Broadcast:
			if n, err = v.checkGroups(s.Groups, s.Roots, s.Cost); err != nil {
				return 0, 0, err
			}
			w = s.Words
		case Reduce:
			if n, err = v.checkGroups(s.Groups, s.Roots, s.Cost); err != nil {
				return 0, 0, err
			}
			w = s.Words
		case Barrier:
			n = 2 * (p - 1)
		case Gather:
			h := p
			for _, r := range s.Holders {
				if err := v.inRange(r); err != nil {
					return 0, 0, err
				}
			}
			if s.Holders != nil {
				h = len(s.Holders)
			}
			n, w = max(h-1, 0), s.Words
		case Repeat:
			if s.Times < 0 {
				return 0, 0, fmt.Errorf("simulator: negative repeat count %d", s.Times)
			}
			bm, bw, err := v.resolve(s.Body, store && s.Times > 0)
			if err != nil {
				return 0, 0, err
			}
			msgs += s.Times * bm
			words += s.Times * bw
		}
		msgs += n
		words += n * w
	}
	return msgs, words, nil
}

func (v *resolver) inRange(r int) error {
	if r < 0 || r >= v.p {
		return fmt.Errorf("simulator: skeleton names rank %d outside [0,%d)", r, v.p)
	}
	return nil
}

// table returns the next width links to store, or nil when nothing is
// stored.
func (v *resolver) table(store bool) []link {
	if !store {
		return nil
	}
	n := len(v.links)
	v.links = v.links[:n+v.width]
	return v.links[n:]
}

// shift resolves a Shift, storing each rank's link, a self-send moving
// nothing. On the lockstep path its ranks must be all self or none
// (errUneven otherwise).
func (v *resolver) shift(s Shift, store bool) error {
	tab := v.table(store)
	self0, uneven := false, false
	for r := 0; r < v.p; r++ {
		d := s.Dst(r)
		if err := v.inRange(d); err != nil {
			return err
		}
		if r == 0 {
			self0 = d == 0
		}
		uneven = uneven || (d == r) != self0
		if r < len(tab) {
			tab[r] = link{dst: -1}
			if d != r {
				tab[r] = link{d, v.m.MsgTimeOn(s.Words, 1, r, d)}
			}
		}
	}
	if v.lock && store && uneven {
		return errUneven
	}
	return nil
}

// send resolves a Send and returns the number of messages it sends. It
// stores each rank's link: none for a negative or self destination,
// otherwise the charged cost or the routed transfer time.
func (v *resolver) send(s Send, store bool) (msgs int, err error) {
	tab := v.table(store)
	for r := 0; r < v.p; r++ {
		d := s.Dst(r)
		if d >= 0 {
			if err := v.inRange(d); err != nil {
				return 0, err
			}
			msgs++
		}
		switch {
		case r >= len(tab):
		case d < 0 || d == r:
			tab[r] = link{dst: -1}
		case s.Cost.charged:
			tab[r] = link{d, s.Cost.c}
		default:
			tab[r] = link{d, v.m.MsgTime(s.Words, r, d)}
		}
	}
	return msgs, nil
}

// checkGroups validates the groups of a Broadcast or Reduce — disjoint,
// in range, roots in range, power-of-two sizes for binomial trees — and
// returns the number of messages the collective sends.
func (v *resolver) checkGroups(groups [][]int, roots []int, cost Cost) (msgs int, err error) {
	if len(roots) != len(groups) {
		return 0, fmt.Errorf("simulator: %d roots for %d groups", len(roots), len(groups))
	}
	if cost.c < 0 {
		return 0, fmt.Errorf("simulator: negative send cost %v", cost.c)
	}
	v.seen = slices.Grow(v.seen[:0], v.p)[:v.p]
	clear(v.seen)
	for g, group := range groups {
		if _, ok := topology.Log2(len(group)); !ok && !cost.charged {
			return 0, fmt.Errorf("simulator: group size %d is not a power of two", len(group))
		}
		if roots[g] < 0 || roots[g] >= len(group) {
			return 0, fmt.Errorf("simulator: root index %d out of range for group of %d", roots[g], len(group))
		}
		for _, r := range group {
			if r < 0 || r >= v.p || v.seen[r] {
				return 0, fmt.Errorf("simulator: rank %d is outside [0,%d) or in two groups", r, v.p)
			}
			v.seen[r] = true
		}
		msgs += len(group) - 1
	}
	return msgs, nil
}

// lockstep is the representative rank of the lockstep path: its clock,
// compute and comm totals, and its link in each stored Shift or Send.
type lockstep struct {
	clock, compT, commT float64
	links               []link
}

// walk charges steps to the representative rank in program order,
// reading its links from links[next:], and returns the index past the
// last one it read. A self-shift's link and a free send's cost
// nothing, and barriers and gathers see equal clocks.
func (l *lockstep) walk(steps []Step, next int) int {
	for _, s := range steps {
		switch s := s.(type) {
		case Compute:
			l.clock += s.Flops
			l.compT += s.Flops
		case Shift, Send:
			l.clock += l.links[next].cost
			l.commT += l.links[next].cost
			next++
		case Repeat:
			start := next
			for t := 0; t < s.Times; t++ {
				next = l.walk(s.Body, start)
			}
		}
	}
	return next
}

// wave is the per-rank state of one wave-tier run: the accumulators
// Proc keeps for each rank, each rank's straggler factor, and the
// run's scratch, which holds the resolved links of every Shift and
// Send and the round in flight. The lockstep path fills only the
// clock, compute and comm totals. On a healthy machine every factor is
// 1 and no compute is straggler extra, so sx and factor stay nil.
type wave struct {
	m                       *machine.Machine
	clock, compT, commT, sx []float64
	factor                  []float64
	*scratch
}

// stamp is one message of a round: its receiver and its sender's clock
// after the send.
type stamp struct {
	dst int
	at  float64
}

// walk runs steps in program order, adding each rank's charges in the
// order Proc adds them for the rank program, and returns the offset in
// links past the last table it read, starting at next. A transfer step
// is one or more rounds: every sender pays its transfers and stamps
// each with its clock after the send (send), then every receiver
// advances to the stamps addressed to it (deliver), as a rank program
// completes its sends of a program point before its receives. A Shift
// or Send reads the links the validating pass resolved for it, so a
// Repeat body's rank maps and link costs are evaluated once however
// often it runs. A send to self moves no clock, so no round carries
// one; a barrier or gather charges nothing and only raises clocks to a
// maximum.
func (w *wave) walk(steps []Step, next int) int {
	p := len(w.clock)
	for _, s := range steps {
		switch s := s.(type) {
		case Compute:
			for r := range w.clock {
				charged := s.Flops
				if w.factor != nil {
					charged *= w.factor[r]
					w.sx[r] += charged - s.Flops
				}
				w.clock[r] += charged
				w.compT[r] += charged
			}
		case Shift, Send:
			for r, l := range w.links[next : next+p] {
				if l.dst >= 0 {
					w.send(r, l.dst, l.cost)
				}
			}
			w.deliver()
			next += p
		case Broadcast:
			w.collective(s.Words, s.Groups, s.Roots, s.Cost, false)
		case Reduce:
			w.collective(s.Words, s.Groups, s.Roots, s.Cost, true)
		case Barrier:
			top := slices.Max(w.clock)
			for r := range w.clock {
				w.clock[r] = top
			}
		case Gather:
			switch {
			case s.Holders == nil:
				w.clock[0] = slices.Max(w.clock)
			case len(s.Holders) > 0:
				c := s.Holders[0]
				for _, r := range s.Holders[1:] {
					w.clock[c] = max(w.clock[c], w.clock[r])
				}
			}
		case Repeat:
			start := next
			for t := 0; t < s.Times; t++ {
				next = w.walk(s.Body, start)
			}
		}
	}
	return next
}

// collective runs a Broadcast, or a Reduce when up. Charged, it is one
// round between each root and its other members, in member order: a
// broadcast's root charges its first send and moves the rest free, and
// every reduce contributor charges c. Otherwise round k of every
// group's binomial tree (topology.BinomialTree) is one round of one-hop
// transfers, until no group's tree has a round k.
func (w *wave) collective(words int, groups [][]int, roots []int, cost Cost, up bool) {
	if cost.charged {
		for g, group := range groups {
			root, c := group[roots[g]], cost.c
			for i, r := range group {
				switch {
				case i == roots[g]:
				case up:
					w.send(r, root, c)
				default:
					w.send(root, r, c)
					c = 0
				}
			}
		}
		w.deliver()
		return
	}
	tree := topology.BroadcastTree
	if up {
		tree = topology.ReduceTree
	}
	for k := 0; ; k++ {
		for g, group := range groups {
			tree(len(group), roots[g]).Links(k, func(src, dst int) {
				src, dst = group[src], group[dst]
				w.send(src, dst, w.m.MsgTimeOn(words, 1, src, dst))
			})
		}
		if !w.deliver() {
			return
		}
	}
}

// send charges src cost for a message to dst and stamps the message
// with src's clock after the send.
func (w *wave) send(src, dst int, cost float64) {
	w.clock[src] += cost
	w.commT[src] += cost
	w.round = append(w.round, stamp{dst, w.clock[src]})
}

// deliver is the receive pass of the round in flight: every receiver
// advances to the stamps addressed to it. It empties the round and
// reports whether it carried any message.
func (w *wave) deliver() bool {
	for _, s := range w.round {
		if s.at > w.clock[s.dst] {
			w.clock[s.dst] = s.at
		}
	}
	n := len(w.round)
	w.round = w.round[:0]
	return n > 0
}

// result folds the per-rank accumulators into a Result exactly as
// buildResult folds Proc's: rank-ascending float summation (the
// byte-identity contract) and the skeleton's message and word totals.
func (w *wave) result(msgs, words int) *Result {
	res := &Result{
		P:           len(w.clock),
		ProcClocks:  w.clock,
		ProcCompute: w.compT,
		ProcComm:    w.commT,
		Messages:    msgs,
		Words:       words,
	}
	for r := range w.clock {
		if w.clock[r] > res.Tp {
			res.Tp = w.clock[r]
		}
		res.TotalCompute += w.compT[r]
		res.TotalComm += w.commT[r]
	}
	for _, x := range w.sx { // nil on the lockstep path
		res.StragglerExtra += x
	}
	return res
}
