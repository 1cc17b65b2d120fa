package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the enclosing span's
// ID (0 at the root) and Op the benchmark op the call belongs to (0 for
// layer probes outside any op).
type span struct {
	ID, Parent, Op int64
	Name, Detail   string
	Lane           int // display track: the client or worker that made the call
	Start, End     time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer records spans in memory; they are written once, when the run
// ends. A nil *tracer records nothing, so untraced code paths pass nil.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span // spans[id-1]
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID, 0 on a nil tracer.
func (t *tracer) begin(name, detail string, parent, op int64, lane int) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: int64(len(t.spans) + 1), Parent: parent, Op: op,
		Name: name, Detail: detail, Lane: lane, Start: now, End: -1,
	})
	return int64(len(t.spans))
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the closed spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// its child spans cover. Overlapping children (cells on parallel
// workers) count once, and child time outside the parent is ignored.
func selfTimes(spans []span) map[int64]time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := map[int64][]iv{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
		covered, reach := time.Duration(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.lo, reach), min(c.hi, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace_event
// format, the format the simulator's virtual-time traces use, so both
// open in Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // µs
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes spans as Chrome trace_event JSON, with the run's
// environment stamp and metrics under otherData.
func writeChrome(w io.Writer, spans []span, otherData map[string]any) error {
	evs := []chromeEvent{{Name: "process_name", Ph: "M", Args: map[string]any{"name": "perfbench host time"}}}
	for _, s := range spans {
		args := map[string]any{"span": s.ID, "parent": s.Parent, "op": s.Op}
		if s.Detail != "" {
			args["detail"] = s.Detail
		}
		evs = append(evs, chromeEvent{
			Name: s.Name, Ph: "X", Tid: s.Lane, Args: args,
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.dur()) / float64(time.Microsecond),
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ms",
		"otherData":       otherData,
	})
}
