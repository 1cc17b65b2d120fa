package simulator

import (
	"bytes"
	"fmt"

	"matscale/internal/machine"
)

// This file is the discrete-event engine, the default: a central
// priority queue of rank-becomes-runnable events, ordered by virtual
// time, drives the rank programs without a free-running goroutine per
// rank.
//
// Each rank is a coroutine (a fiber) under strict handoff: exactly one
// of the event loop and the rank bodies is ever runnable, so the
// entire engine state is accessed single-threadedly and needs no
// locks. A rank runs until it blocks in Recv on a message that does
// not exist yet; the matching Deliver schedules a resume event at the
// virtual time the receiver continues, max(receiver clock, arrival).
// The event loop then always resumes the runnable rank with the least
// virtual time — classic discrete-event simulation in the spirit of a
// sequential logical-process simulator.
//
// Because every virtual-time quantity is charged by the shared Proc
// code and message matching is FIFO per (source, tag), the simulated
// results are independent of the order ready ranks are resumed in; the
// event loop's least-time order is the canonical one. The differential
// suite (diff_test.go) asserts byte-identical Result, Metrics, CSV
// and Chrome-trace output against the goroutine engine for every
// formulation. See docs/BACKENDS.md for the event model, the
// determinism argument, and guidance on choosing an engine.
//
// Strict handoff means a rank body must not block on anything but
// Recv: a body waiting on a host channel or WaitGroup that another
// rank releases hangs, because the other rank never runs meanwhile.

// Fiber states. A fiber is parked whenever the event loop holds
// control; parked-and-blocked means it sits inside Await.
const (
	stateParked = iota
	stateRunning
	stateExited
)

// fiber is one rank's coroutine: the goroutine that executes the rank
// body, parked on resume between turns, plus the rank's mailbox and
// scheduling state. All fields are owned by whichever side currently
// holds control — strict handoff makes that exclusive.
type fiber struct {
	rank   int
	eng    *eventRun
	proc   *Proc
	resume chan struct{}
	queues map[srcTag]*msgQueue

	state    int
	blocked  bool   // parked inside Await
	want     srcTag // key blocked on (valid while blocked)
	ready    bool   // resume event is on the heap
	panicked any    // recover() value at exit, nil on clean return
}

// eventRun is the shared state of one discrete-event simulation. It
// implements Engine. No locks anywhere: strict handoff means at most
// one goroutine touches it at a time.
type eventRun struct {
	m      *machine.Machine
	fibers []*fiber
	heap   eventHeap
	seq    uint64
	// popped counts event-loop dispatches (heap pops). It is the
	// coordinate of the checkpoint cut: "suspend after N events" and
	// "this snapshot was cut at event N" both count in it.
	popped uint64
	// yield carries control from a fiber back to the event loop; the
	// value is the yielding rank. A fiber yields when it blocks in
	// Await or exits, never in between.
	yield chan int

	failed  error
	aborted bool
	alive   int

	// links tracks per-directed-link busy-until virtual times when the
	// machine has TrackContention set.
	links map[[2]int]float64
	// free is the run-wide overflow tier of the payload buffer pool.
	// Unlike the goroutine engine's sync.Pool it is deterministic:
	// LIFO order, single-threaded.
	free [][]float64
}

// schedule pushes a resume event for rank at virtual time t.
func (e *eventRun) schedule(t float64, rank int) {
	e.heap.push(resumeEvent{t: t, seq: e.seq, rank: int32(rank)})
	e.seq++
}

// Deliver implements Engine: it enqueues msg in dst's mailbox and, if
// dst is blocked on exactly this (src, tag) stream, schedules its
// resume at the virtual time it will continue.
func (e *eventRun) Deliver(src, dst, tag int, msg Message) {
	f := e.fibers[dst]
	k := srcTag{src: src, tag: tag}
	q := f.queues[k]
	if q == nil {
		q = &msgQueue{}
		f.queues[k] = q
	}
	q.push(msg)
	if f.blocked && f.want == k && !f.ready {
		f.ready = true
		t := f.proc.clock
		if msg.Arrival > t {
			t = msg.Arrival
		}
		e.schedule(t, dst)
	}
}

// Await implements Engine: it returns the next (src, tag) message
// addressed to rank, yielding control to the event loop until one
// exists. Mirroring the goroutine engine, an available message is
// consumed even after a failure; the abort only unwinds a rank that
// would otherwise block forever.
func (e *eventRun) Await(rank, src, tag int) Message {
	f := e.fibers[rank]
	k := srcTag{src: src, tag: tag}
	for {
		if q := f.queues[k]; q != nil && q.n > 0 {
			return q.pop()
		}
		if e.aborted {
			abortPanic(e.failed)
		}
		f.blocked, f.want = true, k
		f.park()
		f.blocked = false
	}
}

// park hands control to the event loop and waits to be resumed.
func (f *fiber) park() {
	f.state = stateParked
	f.eng.yield <- f.rank
	<-f.resume
	f.state = stateRunning
}

// ContendedArrival implements Engine via the shared link-traversal
// computation; single-threaded, so no lock.
func (e *eventRun) ContendedArrival(src int, route []int, start float64, words int) float64 {
	return advanceRoute(e.m, e.links, src, route, start, words)
}

// Abort implements Engine: it records the first failure and unwinds
// the calling rank. Parked ranks are poison-resumed by the event
// loop's drain, each unwinding through Await when it next finds
// nothing to consume.
func (e *eventRun) Abort(err error) {
	if e.failed == nil {
		e.failed = err
		e.aborted = true
	}
	abortPanic(e.failed)
}

// GetBuf implements Engine: LIFO pop from the run-wide free list. A
// buffer of insufficient capacity is dropped rather than put back,
// mirroring the goroutine engine's pool tier.
func (e *eventRun) GetBuf(n int) []float64 {
	if len(e.free) == 0 {
		return nil
	}
	b := e.free[len(e.free)-1]
	e.free[len(e.free)-1] = nil
	e.free = e.free[:len(e.free)-1]
	if cap(b) < n {
		return nil
	}
	return b[:n]
}

// PutBuf implements Engine.
func (e *eventRun) PutBuf(b []float64) {
	e.free = append(e.free, b)
}

// runEvents is the discrete-event engine: m is already validated. The
// machine's CheckpointControl (nil for plain runs) selects suspension
// and resume behavior; see checkpoint.go for the cut and its encoding.
func runEvents(m *machine.Machine, body func(*Proc)) (*Result, error) {
	ck := m.Checkpoint
	var snap *eventSnapshot
	if ck != nil && ck.Resume != nil {
		var err error
		snap, err = decodeSnapshot(ck.Resume, m)
		if err != nil {
			return nil, err
		}
		if ck.StopAfter > 0 && ck.StopAfter <= snap.events {
			return nil, &ResumeMismatchError{Reason: fmt.Sprintf(
				"StopAfter=%d is not beyond the snapshot cut at event %d", ck.StopAfter, snap.events)}
		}
	}
	p := m.P()
	e := &eventRun{m: m, yield: make(chan int), alive: p}
	if m.TrackContention {
		e.links = make(map[[2]int]float64)
	}
	e.fibers = make([]*fiber, p)
	procs := make([]*Proc, p)
	for i := 0; i < p; i++ {
		f := &fiber{
			rank:   i,
			eng:    e,
			proc:   newProc(e, i, m),
			resume: make(chan struct{}),
			queues: make(map[srcTag]*msgQueue),
			state:  stateParked,
			ready:  true,
		}
		e.fibers[i] = f
		procs[i] = f.proc
		// Every rank is runnable at virtual time zero.
		e.schedule(0, i)
	}
	for _, f := range e.fibers {
		go func(f *fiber) {
			<-f.resume
			f.state = stateRunning
			defer func() {
				f.panicked = recover()
				f.state = stateExited
				e.yield <- f.rank
			}()
			if e.aborted {
				// First resumed by a drain (suspension or failure):
				// unwind immediately instead of executing the body
				// against an engine that has stopped simulating.
				abortPanic(e.failed)
			}
			body(f.proc)
		}(f)
	}

	// resumeAndWait hands control to f until it parks or exits,
	// folding an exit into the engine's failure bookkeeping.
	resumeAndWait := func(f *fiber) {
		f.resume <- struct{}{}
		r := <-e.yield
		y := e.fibers[r]
		if y.state != stateExited {
			return
		}
		e.alive--
		if pv := y.panicked; pv != nil && !isAbort(pv) && e.failed == nil {
			e.failed = errPanicked(y.rank, pv)
			e.aborted = true
		}
	}

	// drain poison-resumes every remaining fiber so each unwinds (or
	// aborts immediately, if never started) and its goroutine exits —
	// the event engine must never leak parked coroutines. It is used
	// both after a failure and to dismantle a suspended engine, whose
	// snapshot is captured before the drain mutates anything.
	drain := func() {
		for e.alive > 0 {
			for _, f := range e.fibers {
				if f.state != stateExited {
					resumeAndWait(f)
					break
				}
			}
		}
	}

	// The event loop: always resume the least-virtual-time runnable
	// rank. The loop ends when no rank is runnable — completion when
	// none is left alive, deadlock when blocked ranks remain — or on
	// the first failure. Whenever the loop holds control every fiber is
	// parked and every in-flight message sits in a mailbox FIFO or on
	// the heap, so the top of the loop is a consistent cut: the place
	// a resume is verified and a suspension is taken.
	for e.failed == nil && e.heap.len() > 0 {
		if snap != nil && e.popped == snap.events {
			// Replay reached the snapshot's cut: the re-encoded state
			// must reproduce the snapshot byte for byte, or the
			// snapshot belongs to a different program or build.
			if !bytes.Equal(encodeState(e, procs), snap.state) {
				e.aborted = true
				e.failed = errSuspendDrain
				drain()
				return nil, &ResumeMismatchError{Reason: fmt.Sprintf(
					"replayed state at event %d does not match the snapshot: same machine fingerprint, different program or build", snap.events)}
			}
			snap = nil
		}
		if ck != nil && ck.StopAfter > 0 && e.popped == ck.StopAfter {
			data := encodeSnapshot(e, procs, m)
			e.aborted = true
			e.failed = errSuspendDrain
			drain()
			if ck.Sink != nil {
				if err := ck.Sink(data, ck.StopAfter); err != nil {
					return nil, fmt.Errorf("simulator: checkpoint sink: %w", err)
				}
			}
			return nil, &SuspendedError{Events: ck.StopAfter, Snapshot: data}
		}
		ev := e.heap.pop()
		e.popped++
		f := e.fibers[ev.rank]
		f.ready = false
		if f.state == stateExited {
			continue
		}
		resumeAndWait(f)
	}

	if e.failed == nil && e.alive > 0 {
		for _, f := range e.fibers {
			if f.blocked {
				e.failed = errDeadlock(e.alive, f.rank, f.want)
				e.aborted = true
				break
			}
		}
	}

	// Drain after a failure (and after clean completion, where it is a
	// no-op: alive is already zero).
	drain()

	if e.failed != nil {
		if snap != nil {
			return nil, &ResumeMismatchError{Reason: fmt.Sprintf(
				"replay failed before reaching the snapshot cut at event %d: %v", snap.events, e.failed)}
		}
		return nil, e.failed
	}
	if snap != nil {
		return nil, &ResumeMismatchError{Reason: fmt.Sprintf(
			"run completed after %d events, before reaching the snapshot cut at event %d", e.popped, snap.events)}
	}
	unconsumed := 0
	for _, f := range e.fibers {
		for _, q := range f.queues {
			unconsumed += q.n
		}
	}
	if unconsumed != 0 {
		return nil, errUnconsumed(unconsumed)
	}
	return buildResult(m, procs), nil
}
