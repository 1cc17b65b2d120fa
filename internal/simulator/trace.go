package simulator

import (
	"fmt"
	"sort"
	"strings"
)

// EventKind classifies a traced processor event.
type EventKind int

const (
	// EventCompute is local arithmetic.
	EventCompute EventKind = iota
	// EventSend is a charged outgoing transfer.
	EventSend
	// EventIdle is time spent blocked waiting for a message.
	EventIdle
	// EventRecv marks a message consumption (zero duration; the wait,
	// if any, is the preceding EventIdle).
	EventRecv
	// EventRetry is the reliable-delivery overhead of a lossy send:
	// the lost transmissions and timeout waits preceding the EventSend
	// that finally delivered.
	EventRetry
)

func (k EventKind) String() string {
	switch k {
	case EventCompute:
		return "compute"
	case EventSend:
		return "send"
	case EventIdle:
		return "idle"
	case EventRecv:
		return "recv"
	case EventRetry:
		return "retry"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one interval in a processor's virtual-time history.
type Event struct {
	Rank  int
	Kind  EventKind
	Peer  int // counterpart rank for send/recv, -1 otherwise
	Tag   int // message tag for send/recv
	Words int
	Start float64
	End   float64
}

// Trace is the ordered event history of a simulation.
type Trace struct {
	P      int
	Tp     float64
	Events []Event // ordered by (Rank, Start)
}

// sortedEvents returns t.Events in (Rank, Start) order. buildResult
// already builds the trace sorted, in which case this is a no-copy
// pass-through; the stable sort exists so the exporters stay
// byte-deterministic even for a Trace assembled by some future call
// site that forgets the ordering contract.
func (t *Trace) sortedEvents() []Event {
	less := func(a, b Event) bool {
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		return a.Start < b.Start
	}
	if sort.SliceIsSorted(t.Events, func(i, j int) bool { return less(t.Events[i], t.Events[j]) }) {
		return t.Events
	}
	es := append([]Event(nil), t.Events...)
	sort.SliceStable(es, func(i, j int) bool { return less(es[i], es[j]) })
	return es
}

// PerRank returns rank r's events in time order.
func (t *Trace) PerRank(r int) []Event {
	var out []Event
	for _, e := range t.Events {
		if e.Rank == r {
			out = append(out, e)
		}
	}
	return out
}

// Timeline renders a coarse per-processor Gantt chart: one lane per
// processor, time scaled to width columns; C = compute, S = send,
// . = idle/waiting, space = finished.
func (t *Trace) Timeline(width int) string {
	if width <= 0 || t.Tp <= 0 {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "virtual-time timeline (Tp = %.1f, one column ≈ %.1f units)\n", t.Tp, t.Tp/float64(width))
	scale := float64(width) / t.Tp
	for r := 0; r < t.P; r++ {
		lane := make([]byte, width)
		for i := range lane {
			lane[i] = ' '
		}
		for _, e := range t.PerRank(r) {
			var ch byte
			switch e.Kind {
			case EventCompute:
				ch = 'C'
			case EventSend:
				ch = 'S'
			case EventIdle:
				ch = '.'
			case EventRetry:
				ch = 'R'
			default:
				continue
			}
			lo := int(e.Start * scale)
			hi := int(e.End * scale)
			if hi >= width {
				hi = width - 1
			}
			for i := lo; i <= hi && i < width; i++ {
				lane[i] = ch
			}
		}
		fmt.Fprintf(&sb, "p%-4d |%s|\n", r, lane)
	}
	return sb.String()
}
