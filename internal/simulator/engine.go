package simulator

import (
	"fmt"
	"sort"

	"matscale/internal/machine"
)

// Message is one delivered payload with its virtual arrival time — the
// unit of exchange between a Proc and the Engine that carries its
// messages.
type Message struct {
	Data    []float64
	Arrival float64
}

// Engine is the messaging and scheduling substrate a Proc runs on. The
// charging, fault, metrics and trace logic all live in Proc and are
// shared by every engine; an Engine only moves payloads, suspends
// receivers until their message exists, and arbitrates link contention.
//
// Two engines implement it, both in this package: the discrete-event
// engine (fiber.go, the default — a central virtual-time event loop
// resuming rank coroutines one at a time) and the goroutine engine
// (simulator.go — one free-running goroutine per rank, blocking
// mailboxes). Because every virtual-time quantity is computed by the
// shared Proc code, the two produce byte-identical results for a fixed
// configuration; the differential suite (internal/des/diff_test.go)
// asserts this for all formulations (see docs/BACKENDS.md). The event engine's wave
// tier (wave.go) runs timed skeletons without a Proc at all.
type Engine interface {
	// Deliver enqueues msg from src under the matching key (dst, tag).
	// Ownership of msg.Data passes to the engine and ultimately to the
	// receiver. Matching is FIFO per (src, tag) pair.
	Deliver(src, dst, tag int, msg Message)
	// Await returns the next message from (src, tag) addressed to rank,
	// suspending the calling processor until one is available. When the
	// run has failed it does not return: it panics with the package's
	// abort value (see abortPanic), unwinding the processor body.
	Await(rank, src, tag int) Message
	// ContendedArrival advances a transfer of words over route
	// (starting at src at virtual time start), serializing on busy
	// links, and returns the arrival time. Only called when the machine
	// has TrackContention set.
	ContendedArrival(src int, route []int, start float64, words int) float64
	// Abort fails the run with err, releases every other processor, and
	// unwinds the caller by panicking with the package's abort value.
	// It does not return.
	Abort(err error)
	// GetBuf returns a pooled buffer of capacity at least n from the
	// run-wide overflow tier, or nil when none is available; PutBuf
	// parks a consumed buffer there. The rank-private pool tier lives
	// in the Proc.
	GetBuf(n int) []float64
	PutBuf(b []float64)
}

// srcTag matches a message within one destination's mailbox.
type srcTag struct {
	src, tag int
}

// msgQueue is a growable FIFO ring of messages for one (src, tag) key,
// the mailbox unit of both engines. The ring never shrinks and the
// key's entry is never deleted, so a steady-state send/recv cycle
// pushes and pops with zero allocation.
type msgQueue struct {
	buf  []Message
	head int // index of the oldest message
	n    int // live messages
}

func (q *msgQueue) push(m Message) {
	if q.n == len(q.buf) {
		grown := make([]Message, max(4, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = m
	q.n++
}

func (q *msgQueue) pop() Message {
	m := q.buf[q.head]
	q.buf[q.head] = Message{} // release the payload reference
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return m
}

// errDeadlock, errPanicked and errUnconsumed are the failure texts both
// engines report, so an error reads the same whichever engine ran the
// program.
func errDeadlock(alive, rank int, want srcTag) error {
	return fmt.Errorf("simulator: deadlock: all %d live processors blocked in Recv (rank %d waiting for src=%d tag=%d)", alive, rank, want.src, want.tag)
}

func errPanicked(rank int, v any) error {
	return fmt.Errorf("simulator: processor %d panicked: %v", rank, v)
}

func errUnconsumed(n int) error {
	return fmt.Errorf("simulator: %d messages left unconsumed at exit", n)
}

// tier is the engine path a run takes.
type tier int

const (
	tierFiber      tier = iota // the event engine's coroutine tier (fiber.go)
	tierWave                   // the event engine's wave tier (wave.go), skeletons only
	tierGoroutines             // the goroutine reference engine (simulator.go)
)

// tierOf is the one decision of which tier runs on m. The wave tier
// takes a skeleton when nothing needs per-event bookkeeping:
// observability off (metrics and traces record every event), no
// link-contention tracking, no message loss (the retry layer draws per
// individual send) and no checkpoint control (a wave has no event
// count to cut at). Stragglers and link ts/tw perturbations are
// supported — they only vary the per-rank wave coefficients. A rank
// program without a skeleton runs on the fiber tier wherever the wave
// tier would take it.
func tierOf(m *machine.Machine) tier {
	switch {
	case m.Backend == machine.BackendGoroutines:
		return tierGoroutines
	case m.Checkpoint != nil, m.CollectMetrics, m.CollectTrace, m.TrackContention,
		m.Faults != nil && m.Faults.Loss > 0:
		return tierFiber
	}
	return tierWave
}

// dispatch routes a validated rank program to the engine the machine
// selects. The goroutine engine has no deterministic consistent cut, so
// a machine carrying a CheckpointControl is rejected there with a typed
// error rather than silently ignoring the control.
func dispatch(m *machine.Machine, body func(*Proc)) (*Result, error) {
	if tierOf(m) != tierGoroutines {
		return runEvents(m, body)
	}
	if m.Checkpoint != nil {
		return nil, &UnsupportedCapabilityError{
			Backend:    m.Backend,
			Capability: "checkpoint/resume",
			Reason:     "its state has no deterministic consistent cut; use the events backend, or checkpoint at sweep-cell granularity",
		}
	}
	return runGoroutines(m, body)
}

// advanceRoute advances a transfer of words over route (starting at
// src at virtual time t), serializing on links recorded busy in links,
// and returns the arrival time, updating links in place. Under
// store-and-forward routing each hop is charged and claimed
// individually; under cut-through the whole path is claimed for one
// transfer time. It is the one contention-tracking computation, shared
// by both engines so that TrackContention runs are engine-identical.
// Callers own the synchronization of links.
func advanceRoute(m *machine.Machine, links map[[2]int]float64, src int, route []int, t float64, words int) float64 {
	if len(route) == 0 {
		return t
	}
	dst := route[len(route)-1]
	if m.Routing == machine.CutThrough {
		per := m.MsgTimeOn(words, len(route), src, dst)
		start := t
		prev := src
		for _, node := range route {
			l := [2]int{prev, node}
			if links[l] > start {
				start = links[l]
			}
			prev = node
		}
		finish := start + per
		prev = src
		for _, node := range route {
			links[[2]int{prev, node}] = finish
			prev = node
		}
		return finish
	}
	hop := m.MsgTimeOn(words, 1, src, dst)
	prev := src
	for _, node := range route {
		l := [2]int{prev, node}
		if links[l] > t {
			t = links[l]
		}
		t += hop
		links[l] = t
		prev = node
	}
	return t
}

// newProc builds the processor handle for one rank running on eng,
// wiring the rank's straggler factor, link metrics aggregation and
// tracing.
func newProc(eng Engine, rank int, m *machine.Machine) *Proc {
	pr := &Proc{rank: rank, eng: eng, mach: m, np: m.P(), tracing: m.CollectTrace, computeFactor: 1}
	if m.Faults != nil {
		pr.computeFactor = m.Faults.ComputeFactor(rank)
	}
	if m.CollectMetrics {
		pr.links = make(map[int]*linkAgg)
	}
	return pr
}

// abortPanic unwinds the calling processor body with the package's
// abort value wrapping err. Engines use it to implement Abort and to
// release suspended receivers after a failure; the value is recognized
// by the engines' recover handlers (see isAbort) so an unwinding
// processor is not misreported as a fresh panic.
func abortPanic(err error) {
	panic(abort{err})
}

// isAbort reports whether a recovered panic value v is the
// simulator's abort value.
func isAbort(v any) bool {
	_, ok := v.(abort)
	return ok
}

// buildResult assembles the Result of a finished run from the per-rank
// processor handles, in rank order — the float64 summation order is
// part of the byte-identity contract between engines. procs must be
// indexed by rank.
func buildResult(m *machine.Machine, procs []*Proc) *Result {
	p := len(procs)
	res := &Result{
		P:           p,
		ProcClocks:  make([]float64, p),
		ProcCompute: make([]float64, p),
		ProcComm:    make([]float64, p),
	}
	for i, pr := range procs {
		res.ProcClocks[i] = pr.clock
		res.ProcCompute[i] = pr.computeTime
		res.ProcComm[i] = pr.commTime
		if pr.clock > res.Tp {
			res.Tp = pr.clock
		}
		res.TotalCompute += pr.computeTime
		res.TotalComm += pr.commTime
		res.ContentionWait += pr.contentionWait
		res.Messages += pr.msgsSent
		res.Words += pr.wordsSent
		res.Retries += pr.retries
		res.RetryTime += pr.retryTime
		res.StragglerExtra += pr.stragglerExtra
	}
	if m.CollectMetrics {
		res.Metrics = buildMetrics(procs, res.Tp, m)
	}
	if m.CollectTrace {
		events := make([]Event, 0)
		for _, pr := range procs {
			events = append(events, pr.trace...)
		}
		sort.SliceStable(events, func(i, j int) bool {
			if events[i].Rank != events[j].Rank {
				return events[i].Rank < events[j].Rank
			}
			return events[i].Start < events[j].Start
		})
		res.Trace = &Trace{P: p, Tp: res.Tp, Events: events}
	}
	return res
}
