package simulator

// resumeEvent is one entry of the central virtual-time priority queue: rank
// becomes runnable at virtual time t. seq breaks ties in insertion
// order, so the pop sequence — and with it every simulated quantity —
// is a pure function of the program, never of host scheduling. (The
// cost model is schedule-independent, so the tie-break is about
// reproducible *host* behavior: identical allocation and pool reuse
// patterns across runs.)
type resumeEvent struct {
	t    float64
	seq  uint64
	rank int32
}

func eventLess(a, b resumeEvent) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of events ordered by (t, seq). It is
// hand-rolled rather than wrapping container/heap: the event loop pops
// one entry per rank resume, and the interface-based heap costs an
// allocation and two indirect calls per operation on that hot path.
type eventHeap struct {
	a []resumeEvent
}

func (h *eventHeap) len() int { return len(h.a) }

func (h *eventHeap) push(ev resumeEvent) {
	h.a = append(h.a, ev)
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(h.a[i], h.a[parent]) {
			break
		}
		h.a[i], h.a[parent] = h.a[parent], h.a[i]
		i = parent
	}
}

func (h *eventHeap) pop() resumeEvent {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && eventLess(h.a[l], h.a[small]) {
			small = l
		}
		if r < last && eventLess(h.a[r], h.a[small]) {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return top
}
