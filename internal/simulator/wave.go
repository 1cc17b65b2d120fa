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
// Collectives are written as fixed sequences of transfer rounds, the
// way the hyper-systolic formulations write broadcasts and reductions
// as fixed shift sequences. A binomial broadcast or reduction over g
// ranks is the log₂g rounds of topology.BinomialTree, the schedule the
// rank programs of package collective walk too; a closed-form-charged
// collective and a gather are one round, a barrier two.
//
// On a healthy machine (no fault configuration) a skeleton made only of
// compute, shifts whose ranks are all alike (all self or all
// non-self), zero-cost sends, barriers and gathers charges every rank
// identically, all clocks stay equal by induction, and the wave
// degenerates to a single representative clock — the million-rank
// regime: simulating Cannon at p = 2^20 costs O(√p) clock arithmetic
// plus the real block arithmetic the caller performs. Anything else
// runs the full per-rank wave passes.

package simulator

import (
	"fmt"
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
// (collective.Broadcast); Charged(c) charges the root c once and moves
// the data in one step (collective.BroadcastCharged).
type Broadcast struct {
	Words  int
	Groups [][]int
	Roots  []int
	Cost   Cost
}

// Reduce sums Words-word vectors of each group Groups[g] into its
// member Roots[g]. Groups must be disjoint. The zero Cost runs a
// binomial tree of one-hop transfers over a power-of-two group
// (collective.Reduce); Charged(c) charges every contributor c
// (collective.ReduceCharged).
type Reduce struct {
	Words  int
	Groups [][]int
	Roots  []int
	Cost   Cost
}

// Barrier synchronizes every rank's clock to the maximum at zero cost
// (collective.BarrierFree over all ranks).
type Barrier struct{}

// Gather collects Words words from every holder at Holders[0] at zero
// cost, in holder order — the verification gather. Nil Holders means
// every rank in rank order.
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
	msgs, words, err := tally(p, sk.Steps)
	if err != nil {
		return nil, false, err
	}
	waveRuns.Add(1)
	w := &wave{
		m:     m,
		clock: make([]float64, p),
		compT: make([]float64, p),
		commT: make([]float64, p),
		sx:    make([]float64, p),
	}
	if lock, ok := lockstepCharges(m, p, sk.Steps); ok {
		// One representative clock carries every rank: compute, then
		// each send advances it by the hop cost; every matching receive's
		// arrival equals the local clock (all senders are at the same
		// time), so the max is a no-op — exactly the lockstep wavefront
		// of the paper's model. Gathers and barriers see equal clocks.
		var clock, compT, commT float64
		for _, c := range lock {
			clock += c.flops
			compT += c.flops
			clock += c.cost
			commT += c.cost
		}
		for r := 0; r < p; r++ {
			w.clock[r], w.compT[r], w.commT[r] = clock, compT, commT
		}
	} else {
		w.run(compile(m, p, sk.Steps))
	}
	return w.result(msgs, words), true, nil
}

// tally validates steps on p ranks and counts the messages and words
// they send, the totals Proc's deliver counts.
func tally(p int, steps []Step) (msgs, words int, err error) {
	inRange := func(r int) error {
		if r < 0 || r >= p {
			return fmt.Errorf("simulator: skeleton names rank %d outside [0,%d)", r, p)
		}
		return nil
	}
	for _, s := range steps {
		n := 0 // messages of this step
		w := 0 // words per message
		switch s := s.(type) {
		case Compute:
			if s.Flops < 0 {
				return 0, 0, fmt.Errorf("simulator: negative compute time %v", s.Flops)
			}
		case Shift:
			for r := 0; r < p; r++ {
				if err := inRange(s.Dst(r)); err != nil {
					return 0, 0, err
				}
			}
			n, w = p, s.Words
		case Send:
			if s.Cost.c < 0 {
				return 0, 0, fmt.Errorf("simulator: negative send cost %v", s.Cost.c)
			}
			for r := 0; r < p; r++ {
				if d := s.Dst(r); d >= 0 {
					if err := inRange(d); err != nil {
						return 0, 0, err
					}
					n++
				}
			}
			w = s.Words
		case Broadcast:
			if n, err = checkGroups(p, s.Groups, s.Roots, s.Cost); err != nil {
				return 0, 0, err
			}
			w = s.Words
		case Reduce:
			if n, err = checkGroups(p, s.Groups, s.Roots, s.Cost); err != nil {
				return 0, 0, err
			}
			w = s.Words
		case Barrier:
			n = 2 * (p - 1)
		case Gather:
			h := p
			for _, r := range s.Holders {
				if err := inRange(r); err != nil {
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
			bm, bw, err := tally(p, s.Body)
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

// checkGroups validates the groups of a Broadcast or Reduce — disjoint,
// in range, roots in range, power-of-two sizes for binomial trees — and
// returns the number of messages the collective sends.
func checkGroups(p int, groups [][]int, roots []int, cost Cost) (msgs int, err error) {
	if len(roots) != len(groups) {
		return 0, fmt.Errorf("simulator: %d roots for %d groups", len(roots), len(groups))
	}
	if cost.c < 0 {
		return 0, fmt.Errorf("simulator: negative send cost %v", cost.c)
	}
	seen := make([]bool, p)
	for g, group := range groups {
		if _, ok := topology.Log2(len(group)); !ok && !cost.charged {
			return 0, fmt.Errorf("simulator: group size %d is not a power of two", len(group))
		}
		if roots[g] < 0 || roots[g] >= len(group) {
			return 0, fmt.Errorf("simulator: root index %d out of range for group of %d", roots[g], len(group))
		}
		for _, r := range group {
			if r < 0 || r >= p || seen[r] {
				return 0, fmt.Errorf("simulator: rank %d is outside [0,%d) or in two groups", r, p)
			}
			seen[r] = true
		}
		msgs += len(group) - 1
	}
	return msgs, nil
}

// charge is one program point of the representative rank on the
// lockstep path: a compute charge or a send charge.
type charge struct{ flops, cost float64 }

// lockstepCharges returns the representative rank's charges for steps
// when every rank is charged alike: on a healthy machine, a program of
// compute, shifts that are self for all ranks or for none, zero-cost
// sends, barriers and gathers.
func lockstepCharges(m *machine.Machine, p int, steps []Step) ([]charge, bool) {
	if m.Faults != nil {
		return nil, false
	}
	return lockstep(m, p, steps)
}

// lockstep returns the representative rank's charges for steps, or
// false at the first step that charges ranks differently.
func lockstep(m *machine.Machine, p int, steps []Step) ([]charge, bool) {
	var out []charge
	for _, s := range steps {
		switch s := s.(type) {
		case Compute:
			out = append(out, charge{flops: s.Flops})
		case Shift:
			self := s.Dst(0) == 0
			for r := 1; r < p; r++ {
				if (s.Dst(r) == r) != self {
					return nil, false
				}
			}
			var c float64
			if !self {
				c = m.MsgTimeOn(s.Words, 1, 0, s.Dst(0))
			}
			out = append(out, charge{cost: c})
		case Send:
			if !s.Cost.charged || s.Cost.c != 0 {
				return nil, false
			}
		case Barrier, Gather:
		case Repeat:
			body, ok := lockstep(m, p, s.Body)
			if !ok {
				return nil, false
			}
			for t := 0; t < s.Times; t++ {
				out = append(out, body...)
			}
		default:
			return nil, false
		}
	}
	return out, true
}

// transfer is one message of a round: its sender, its receiver and the
// sender's charge.
type transfer struct {
	src, dst int32
	cost     float64
}

// op is one compiled program point of the per-rank wave: a compute
// charge (xfers nil) or a round of transfers, in which every sender
// pays its transfers in order, stamping each with its clock after the
// send, and every receiver then advances to the stamps addressed to it.
type op struct {
	flops float64
	xfers []transfer
}

// compile returns the wave ops of steps on m's p ranks. The rounds of
// a collective are the order its binomial tree (topology.BinomialTree)
// or charged scheme sends in; a rank always completes its sends of a
// round before its receives, as every rank program does within one
// program point.
func compile(m *machine.Machine, p int, steps []Step) []op {
	var out []op
	round := func(xs []transfer) {
		if len(xs) > 0 {
			out = append(out, op{xfers: xs})
		}
	}
	hop := func(words, src, dst int) transfer {
		return transfer{int32(src), int32(dst), m.MsgTimeOn(words, 1, src, dst)}
	}
	// collective compiles a Broadcast, or a Reduce when up. Charged, it
	// is one round between each root and its other members, in member
	// order: a broadcast's root charges its first send and moves the
	// rest free, and every reduce contributor charges c. Otherwise round
	// k of every group's tree is one round of one-hop transfers, until
	// no group's tree has a round k.
	collective := func(words int, groups [][]int, roots []int, cost Cost, up bool) {
		if cost.charged {
			n := 0
			for _, group := range groups {
				n += max(len(group)-1, 0)
			}
			xs := make([]transfer, 0, n)
			for g, group := range groups {
				if len(group) == 0 {
					continue // a Gather with no holders
				}
				root, c := group[roots[g]], cost.c
				for i, r := range group {
					if i == roots[g] {
						continue
					}
					if up {
						xs = append(xs, transfer{int32(r), int32(root), c})
					} else {
						xs = append(xs, transfer{int32(root), int32(r), c})
						c = 0
					}
				}
			}
			round(xs)
			return
		}
		tree := topology.BroadcastTree
		if up {
			tree = topology.ReduceTree
		}
		for k := 0; ; k++ {
			var xs []transfer
			for g, group := range groups {
				tree(len(group), roots[g]).Links(k, func(src, dst int) {
					xs = append(xs, hop(words, group[src], group[dst]))
				})
			}
			if len(xs) == 0 {
				return
			}
			round(xs)
		}
	}
	var everyone [][]int
	all := func() [][]int { // the one group of every rank, in rank order
		if everyone == nil {
			everyone = [][]int{make([]int, p)}
			for r := range everyone[0] {
				everyone[0][r] = r
			}
		}
		return everyone
	}
	for _, s := range steps {
		switch s := s.(type) {
		case Compute:
			out = append(out, op{flops: s.Flops})
		case Shift:
			xs := make([]transfer, p)
			for r := range xs {
				if d := s.Dst(r); d != r {
					xs[r] = hop(s.Words, r, d)
				} else {
					xs[r] = transfer{int32(r), int32(r), 0}
				}
			}
			round(xs)
		case Send:
			var xs []transfer
			for r := 0; r < p; r++ {
				d := s.Dst(r)
				if d < 0 {
					continue
				}
				c := s.Cost.c
				if !s.Cost.charged {
					c = m.MsgTime(s.Words, r, d)
				} else if d == r {
					c = 0
				}
				xs = append(xs, transfer{int32(r), int32(d), c})
			}
			round(xs)
		case Broadcast:
			collective(s.Words, s.Groups, s.Roots, s.Cost, false)
		case Reduce:
			collective(s.Words, s.Groups, s.Roots, s.Cost, true)
		case Barrier:
			// Every rank reports to rank 0, which then releases them all.
			collective(0, all(), []int{0}, Charged(0), true)
			collective(0, all(), []int{0}, Charged(0), false)
		case Gather:
			holders := all()
			if s.Holders != nil {
				holders = [][]int{s.Holders}
			}
			collective(0, holders, []int{0}, Charged(0), true)
		case Repeat:
			body := compile(m, p, s.Body)
			for t := 0; t < s.Times; t++ {
				out = append(out, body...)
			}
		}
	}
	return out
}

// wave is the per-rank state of one wave-tier run: the accumulators
// Proc keeps for each rank.
type wave struct {
	m                       *machine.Machine
	clock, compT, commT, sx []float64
}

// run executes compiled ops: a compute op charges every rank its
// straggler-scaled flops as Proc.Compute does; a round runs its send
// pass and then its receive pass.
func (w *wave) run(ops []op) {
	p := len(w.clock)
	factor := make([]float64, p)
	for r := range factor {
		factor[r] = w.m.Faults.ComputeFactor(r)
	}
	arr := make([]float64, 0, p)
	for _, o := range ops {
		if o.xfers == nil {
			for r := 0; r < p; r++ {
				charged := o.flops * factor[r]
				w.clock[r] += charged
				w.compT[r] += charged
				w.sx[r] += charged - o.flops
			}
			continue
		}
		arr = arr[:0]
		for _, x := range o.xfers {
			w.clock[x.src] += x.cost
			w.commT[x.src] += x.cost
			arr = append(arr, w.clock[x.src])
		}
		for k, x := range o.xfers {
			if a := arr[k]; a > w.clock[x.dst] {
				w.clock[x.dst] = a
			}
		}
	}
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
		res.StragglerExtra += w.sx[r]
	}
	return res
}
