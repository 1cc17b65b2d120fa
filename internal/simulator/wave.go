// The wave tier of the event engine: a scheduler for systolic
// programs — the regular compute/shift/shift structure of Cannon's
// algorithm — that needs no coroutine, no mailbox and no per-message
// event at all. In a systolic step every rank performs the same
// sequence (compute, then for each shift send to a fixed partner and
// receive from the opposite one), so the whole step is one synchronous
// wave: arrival times for a shift are a pure function of the senders'
// clocks after their send, and the event loop's least-time ordering
// collapses into array passes over the ranks. The charging below
// replays, add for add and in the same order, exactly what Proc
// charges the fiber tier (fiber.go) for the same program, so the
// Result is byte-identical to both other engine paths — the native
// differential suite (wave_test.go) asserts this.
//
// On a healthy machine (no fault configuration) every rank's per-step
// charges are identical, all clocks stay equal by induction, and the
// wave degenerates to a single representative clock advanced Steps
// times — the million-rank regime: simulating Cannon at p = 2^20
// costs O(√p) clock arithmetic plus the real block arithmetic the
// caller performs. Under stragglers or link jitter the engine runs the
// full per-rank wave passes instead.

package simulator

import (
	"fmt"

	"matscale/internal/machine"
)

// Shift is one nearest-neighbor exchange within a systolic step: every
// rank sends to Dst(rank) and then receives from Src(rank). The two
// must be inverse views of the same permutation (Dst(Src(r)) == r);
// a rank whose Dst is itself moves its message at zero cost, exactly
// as Proc.SendNeighbor charges a self-send.
type Shift struct {
	Dst func(r int) int
	Src func(r int) int
}

// SystolicSpec describes the timed skeleton of a systolic program, the
// subclass RunSystolic accepts:
//
//	prologue: PrologueMsgs zero-cost sends and receives per rank (an
//	          alignment permutation with arrival time zero)
//	Steps ×:  Compute(Flops), then each Shift in order — send Words
//	          words to Dst charging one hop, receive from Src
//	epilogue: when GatherRoot ≥ 0, every other rank sends Words words
//	          to GatherRoot at zero cost and the root receives them in
//	          rank order (the verification gather)
//
// The spec carries no payload: the caller performs the real data
// movement and arithmetic itself (it is independent of virtual time),
// and the wave tier reproduces the virtual-time accounting the fiber
// tier or the goroutine engine would measure running the equivalent
// rank bodies.
type SystolicSpec struct {
	P      int
	Steps  int
	Flops  float64 // compute charged per rank per step (pre-straggler)
	Words  int     // words per shift message (and per gathered block)
	Shifts []Shift

	PrologueMsgs  int
	PrologueWords int // total words of the prologue sends, per rank
	GatherRoot    int // -1 for no gather
}

// RunSystolic simulates spec on m on the wave tier and returns the
// same Result the fiber tier measures for the equivalent rank program.
// ok is false, with no error, when m's run must take another tier
// (see tierOf); the caller then runs the rank program through Run. m
// must already be valid.
func RunSystolic(m *machine.Machine, spec SystolicSpec) (res *Result, ok bool, err error) {
	if tierOf(m) != tierWave {
		return nil, false, nil
	}
	if spec.P != m.P() {
		return nil, false, fmt.Errorf("simulator: systolic spec for %d ranks on a %d-processor machine", spec.P, m.P())
	}
	if m.Faults == nil && uniformShifts(spec) {
		return runSystolicUniform(m, spec), true, nil
	}
	return runSystolicWave(m, spec), true, nil
}

// uniformShifts reports whether every shift is homogeneously self or
// non-self across ranks — the condition (with a fault-free machine)
// under which all per-rank charges are identical and a single
// representative clock carries the whole wave.
func uniformShifts(spec SystolicSpec) bool {
	for _, s := range spec.Shifts {
		self := s.Dst(0) == 0
		for r := 1; r < spec.P; r++ {
			if (s.Dst(r) == r) != self {
				return false
			}
		}
	}
	return true
}

// runSystolicUniform is the million-rank path: on a healthy machine
// all ranks charge identically, so one representative clock replays
// the per-step sequence and the per-rank arrays are filled with it.
func runSystolicUniform(m *machine.Machine, spec SystolicSpec) *Result {
	costs := make([]float64, len(spec.Shifts))
	for k, s := range spec.Shifts {
		if dst := s.Dst(0); dst != 0 {
			costs[k] = m.MsgTimeOn(spec.Words, 1, 0, dst)
		}
	}
	var clock, compT, commT float64
	for t := 0; t < spec.Steps; t++ {
		// Compute, then each shift: the send advances the clock by the
		// hop cost; the matching receive's arrival equals the local
		// clock (every sender is at the same time), so the max is a
		// no-op — exactly the lockstep wavefront of the paper's model.
		clock += spec.Flops
		compT += spec.Flops
		for _, c := range costs {
			clock += c
			commT += c
		}
	}
	// The zero-cost gather arrivals all equal the common final clock.
	return assembleSystolic(spec,
		func(r int) float64 { return clock },
		func(r int) float64 { return compT },
		func(r int) float64 { return commT },
		func(r int) float64 { return 0 })
}

// runSystolicWave is the general tier: per-rank clock arrays advanced
// in synchronous passes, one per program point of the step, supporting
// per-rank straggler factors and per-link cost perturbations.
func runSystolicWave(m *machine.Machine, spec SystolicSpec) *Result {
	p := spec.P
	nsh := len(spec.Shifts)
	// Precompute the per-rank coefficients: the charged compute, each
	// shift's send cost on the rank's outgoing link, and the rank each
	// arrival comes from. All are time-invariant.
	comp := make([]float64, p)
	for r := 0; r < p; r++ {
		comp[r] = spec.Flops
		if m.Faults != nil {
			comp[r] = spec.Flops * m.Faults.ComputeFactor(r)
		}
	}
	cost := make([][]float64, nsh)
	from := make([][]int32, nsh)
	for k, s := range spec.Shifts {
		cost[k] = make([]float64, p)
		from[k] = make([]int32, p)
		for r := 0; r < p; r++ {
			if dst := s.Dst(r); dst != r {
				cost[k][r] = m.MsgTimeOn(spec.Words, 1, r, dst)
			}
			from[k][r] = int32(s.Src(r))
		}
	}

	clock := make([]float64, p)
	compT := make([]float64, p)
	commT := make([]float64, p)
	sx := make([]float64, p)
	arr := make([]float64, p)
	for t := 0; t < spec.Steps; t++ {
		for r := 0; r < p; r++ {
			charged := comp[r]
			clock[r] += charged
			compT[r] += charged
			sx[r] += charged - spec.Flops
		}
		for k := 0; k < nsh; k++ {
			ck, fk := cost[k], from[k]
			// Send pass: every rank pays its hop and stamps the
			// arrival; receive pass: every rank advances to the
			// stamp of the rank it receives from, if later.
			for r := 0; r < p; r++ {
				clock[r] += ck[r]
				commT[r] += ck[r]
				arr[r] = clock[r]
			}
			for r := 0; r < p; r++ {
				if a := arr[fk[r]]; a > clock[r] {
					clock[r] = a
				}
			}
		}
	}
	if root := spec.GatherRoot; root >= 0 {
		// The root consumes every other rank's zero-cost final block in
		// rank order; each arrival is the sender's final clock.
		for r := 0; r < p; r++ {
			if r != root && clock[r] > clock[root] {
				clock[root] = clock[r]
			}
		}
	}
	return assembleSystolic(spec,
		func(r int) float64 { return clock[r] },
		func(r int) float64 { return compT[r] },
		func(r int) float64 { return commT[r] },
		func(r int) float64 { return sx[r] })
}

// assembleSystolic folds per-rank quantities into a Result exactly as
// buildResult folds Proc accumulators: rank-ascending float
// summation (the byte-identity contract) and integer message counts
// derived from the spec's shape.
func assembleSystolic(spec SystolicSpec, clock, compT, commT, sx func(int) float64) *Result {
	p := spec.P
	res := &Result{
		P:           p,
		ProcClocks:  make([]float64, p),
		ProcCompute: make([]float64, p),
		ProcComm:    make([]float64, p),
	}
	msgsPer := spec.PrologueMsgs + spec.Steps*len(spec.Shifts)
	wordsPer := spec.PrologueWords + spec.Steps*len(spec.Shifts)*spec.Words
	for r := 0; r < p; r++ {
		res.ProcClocks[r] = clock(r)
		res.ProcCompute[r] = compT(r)
		res.ProcComm[r] = commT(r)
		if res.ProcClocks[r] > res.Tp {
			res.Tp = res.ProcClocks[r]
		}
		res.TotalCompute += res.ProcCompute[r]
		res.TotalComm += res.ProcComm[r]
		res.StragglerExtra += sx(r)
		res.Messages += msgsPer
		res.Words += wordsPer
		if spec.GatherRoot >= 0 && r != spec.GatherRoot {
			res.Messages++
			res.Words += spec.Words
		}
	}
	return res
}
