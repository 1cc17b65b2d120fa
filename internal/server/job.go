package server

import (
	"sync"

	"matscale/internal/machine"
	"matscale/internal/sweep"
)

// State is a job's position in its lifecycle. The machine is
//
//	queued → running → {suspended, done, failed, cancelled}
//	suspended → {queued, cancelled}
//
// plus the shortcuts queued → suspended (suspend before a worker
// claims the job) and queued → cancelled. Done, failed and cancelled
// are terminal; suspended is not — a suspended job holds a checkpoint
// and resumes through the queue. See docs/SERVER.md for the diagram.
type State int

const (
	// StateQueued: admitted, waiting for a worker.
	StateQueued State = iota
	// StateRunning: executing on the sweep engine.
	StateRunning
	// StateDone: finished with a result.
	StateDone
	// StateFailed: finished with an error (sweep failure or timeout).
	StateFailed
	// StateSuspended: stopped at a cell boundary with a checkpoint;
	// resumable. Not terminal — subscribers stay attached.
	StateSuspended
	// StateCancelled: terminated by the cancel verb.
	StateCancelled
)

// String renders the state for status payloads.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateSuspended:
		return "suspended"
	case StateCancelled:
		return "cancelled"
	default:
		return "unknown"
	}
}

// Terminal reports whether the state is final. Suspended is not: the
// job can resume.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Event is one message on a job's progress stream; the SSE layer
// serializes it as the data of an `event: <Type>` frame.
type Event struct {
	// Type is "state" (lifecycle transition), "progress" (one cell
	// finished), "done" or "error" (terminal).
	Type  string `json:"type"`
	State string `json:"state,omitempty"`
	// Done/Total track cell completion; Cell is the completed cell's
	// key on progress events.
	Done  int    `json:"done,omitempty"`
	Total int    `json:"total,omitempty"`
	Cell  string `json:"cell,omitempty"`
	Error string `json:"error,omitempty"`
}

// subBuffer is each subscriber's channel depth. Progress events beyond
// a slow subscriber's buffer are dropped (the stream is observability,
// not the source of truth); terminal delivery is by channel close, so
// it cannot be dropped.
const subBuffer = 256

// Job is one admitted sweep. All accessors are safe for concurrent
// use; the server mutates it from the worker that owns it.
type Job struct {
	id      string
	spec    *sweep.Spec
	backend machine.Backend
	total   int

	mu       sync.Mutex
	state    State
	done     int
	result   *sweep.Result
	err      error
	subs     map[int]chan Event
	nextSub  int
	finished chan struct{}

	// checkpoint is the suspension payload: set when the job enters
	// StateSuspended, consumed as the resume seed by the next run
	// attempt, cleared on terminal transitions.
	checkpoint *sweep.Checkpoint
	// suspendCh and cancelCh belong to the current run attempt (created
	// by claimRun); closing them asks the sweep to stop at the next cell
	// boundary. suspending/canceling latch the close-once semantics and
	// record which verb was asked.
	suspendCh  chan struct{}
	cancelCh   chan struct{}
	suspending bool
	canceling  bool
}

// ID returns the server-assigned job identifier.
func (j *Job) ID() string { return j.id }

// Total returns the job's grid cell count.
func (j *Job) Total() int { return j.total }

// Backend returns the simulation engine the job runs on.
func (j *Job) Backend() machine.Backend { return j.backend }

// Finished returns a channel closed when the job reaches a terminal
// state.
func (j *Job) Finished() <-chan struct{} { return j.finished }

// Result returns the sweep result and error of a terminal job; (nil,
// nil) while it is still queued or running. Finished jobs of the same
// spec and backend may share one Result, so callers must not modify
// it.
func (j *Job) Result() (*sweep.Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// Status is a JSON-able snapshot of a job.
type Status struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Done    int    `json:"done"`
	Total   int    `json:"total"`
	Backend string `json:"backend"`
	Error   string `json:"error,omitempty"`
	// ErrorKind is the machine-readable class of Error ("job_timeout",
	// "sweep_error"), empty on success.
	ErrorKind string `json:"error_kind,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:      j.id,
		State:   j.state.String(),
		Done:    j.done,
		Total:   j.total,
		Backend: j.backend.String(),
	}
	if j.err != nil {
		st.Error = j.err.Error()
		st.ErrorKind = KindOf(j.err).String()
	}
	return st
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Checkpoint returns the suspension checkpoint of a suspended job, nil
// otherwise.
func (j *Job) Checkpoint() *sweep.Checkpoint {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateSuspended {
		return nil
	}
	return j.checkpoint
}

// claimRun moves a queued job to running and arms a fresh attempt's
// suspend/cancel channels. It returns false for any other state — the
// dedupe that makes stale queue entries harmless: a job suspended or
// cancelled while queued (and possibly re-enqueued since) is claimed
// by exactly one worker pop, and every other pop is a no-op.
func (j *Job) claimRun() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.suspendCh = make(chan struct{})
	j.cancelCh = make(chan struct{})
	j.suspending, j.canceling = false, false
	j.broadcastLocked(Event{Type: "state", State: StateRunning.String(), Done: j.done, Total: j.total})
	return true
}

// requestSuspend asks the current run attempt to stop at the next cell
// boundary; a no-op unless the job is running. Idempotent.
func (j *Job) requestSuspend() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateRunning && !j.suspending {
		j.suspending = true
		close(j.suspendCh)
	}
}

// requestCancel asks the current run attempt to abort at the next cell
// boundary; a no-op unless the job is running. Idempotent.
func (j *Job) requestCancel() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateRunning && !j.canceling {
		j.canceling = true
		close(j.cancelCh)
	}
}

// cancelRequested reports whether the cancel verb reached the current
// attempt.
func (j *Job) cancelRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.canceling
}

// resumeSeed returns the checkpoint the next run attempt resumes from
// (nil for a first run).
func (j *Job) resumeSeed() *sweep.Checkpoint {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.checkpoint
}

// suspend parks the job with its checkpoint. Subscribers are kept —
// suspension is a lifecycle event on a live job, not an ending — and
// Finished stays open.
func (j *Job) suspend(ck *sweep.Checkpoint) {
	j.mu.Lock()
	j.state = StateSuspended
	j.checkpoint = ck
	j.broadcastLocked(Event{Type: "state", State: StateSuspended.String(), Done: j.done, Total: j.total})
	j.mu.Unlock()
}

// publishProgress records one completed cell and notifies subscribers.
func (j *Job) publishProgress(done, total int, r sweep.CellResult) {
	j.mu.Lock()
	j.done = done
	ev := Event{Type: "progress", Done: done, Total: total, Cell: r.Key()}
	j.broadcastLocked(ev)
	j.mu.Unlock()
}

// finish moves the job to terminal state st, closes every subscriber
// channel (terminal delivery is the close itself — subscribers then
// read the outcome from Status), and releases Finished waiters.
func (j *Job) finish(st State, res *sweep.Result, err error) {
	j.mu.Lock()
	j.finishLocked(st, res, err)
	j.mu.Unlock()
	close(j.finished)
}

// finishLocked is finish's body for callers that must make the
// state check and the transition atomic (the direct cancel of a
// queued/suspended job); the caller holds j.mu and must close
// j.finished after unlocking. A terminal job keeps no run state: the
// subscriber map and the attempt's channels are dropped, since every
// path that would touch them checks the state first (Subscribe hands
// out a closed channel, the verbs are no-ops) and a late unsubscribe
// finds nothing in a nil map.
func (j *Job) finishLocked(st State, res *sweep.Result, err error) {
	j.state = st
	j.result, j.err = res, err
	j.checkpoint = nil
	for _, ch := range j.subs { //nodetbreak:ordered — independent subscriber channels
		close(ch)
	}
	j.subs = nil
	j.suspendCh, j.cancelCh = nil, nil
}

// broadcastLocked sends ev to every subscriber without blocking,
// dropping the event for subscribers whose buffer is full; caller
// holds j.mu.
func (j *Job) broadcastLocked(ev Event) {
	for _, ch := range j.subs { //nodetbreak:ordered — independent subscriber channels
		select {
		case ch <- ev:
		default:
		}
	}
}

// Subscribe attaches a progress listener. The channel receives state
// and progress events and is closed when the job finishes (immediately
// for an already-terminal job); the returned cancel detaches early.
func (j *Job) Subscribe() (<-chan Event, func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ch := make(chan Event, subBuffer)
	if j.state.Terminal() {
		close(ch)
		return ch, func() {}
	}
	id := j.nextSub
	j.nextSub++
	j.subs[id] = ch
	return ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if _, ok := j.subs[id]; ok {
			delete(j.subs, id)
		}
	}
}
