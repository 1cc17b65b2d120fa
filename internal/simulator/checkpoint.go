// Checkpoint/resume for the discrete-event engine (fiber.go), the
// engine every run uses unless a test pins the goroutine reference
// engine, plus the typed errors the capability surfaces and the Proc
// state encoding its snapshots embed. The goroutine engine cannot
// checkpoint: its mailboxes and buffer pool are scheduled by the host
// and have no deterministic cut, so dispatch rejects a checkpoint on it
// with an UnsupportedCapabilityError. Sweeps checkpoint at cell
// granularity instead (internal/sweep).
//
// Consistent cut. Under strict handoff, whenever the event loop holds
// control every fiber is parked and no message is "on the wire":
// anything sent but not yet consumed sits either in a destination
// mailbox FIFO or, as a pending resume, on the event heap. The engine
// state at the top of the event loop therefore IS a Chandy–Lamport
// consistent cut — the mailbox FIFOs play the role of the recorded
// channel state, with no marker protocol needed because there is no
// concurrency to race with. The cut is addressed by a single number:
// the count of event-loop dispatches ("events") performed so far.
//
// Snapshot. A suspension serializes the complete engine state at the
// cut — virtual clock(s), event heap, per-fiber scheduling state and
// mailbox contents, contended-link busy times, pooled-buffer
// capacities, per-rank accounting including the fault/RNG coordinate
// (each rank's send sequence, which keys every loss draw) and any
// collected trace — into an internal/checkpoint container, tagged
// with a machine fingerprint and the cut's event count.
//
// Restore. Go cannot reenter a goroutine stack from bytes, so restore
// replays: the run is re-executed from event 0 to the snapshot's cut
// (the engine is deterministic, so the replay walks the identical
// state sequence), the replayed state is re-encoded and compared
// byte-for-byte against the snapshot, and only on an exact match does
// the run continue past the cut. The comparison turns silent
// divergence — a different binary, program, or tampered snapshot that
// slipped past the fingerprint — into a typed ResumeMismatchError at
// the cut instead of quietly wrong results. Byte-identity of the
// resumed run's output then follows from determinism, and the
// differential suite in internal/des/checkpoint_test.go enforces it
// for every formulation. See docs/BACKENDS.md for the full argument.
package simulator

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"matscale/internal/checkpoint"
	"matscale/internal/machine"
)

// UnsupportedCapabilityError reports an option demanded of a backend
// or entry point that does not implement it: a checkpoint on the
// goroutine engine, or run-level suspension of a sweep. It replaces
// silently ignoring the option: a caller that asked for a checkpoint
// must not believe it is getting one.
type UnsupportedCapabilityError struct {
	Backend    machine.Backend
	Capability string
	// Reason, when non-empty, explains why the backend cannot comply.
	Reason string
}

func (e *UnsupportedCapabilityError) Error() string {
	s := fmt.Sprintf("simulator: backend %q does not support %s", e.Backend, e.Capability)
	if e.Reason != "" {
		s += ": " + e.Reason
	}
	return s
}

// SuspendedError reports a run stopped at a consistent cut on request
// (machine.CheckpointControl.StopAfter). It is not a failure: the
// snapshot it carries resumes the run — on this process or another —
// with output byte-identical to never having stopped.
type SuspendedError struct {
	// Events is the number of event-loop dispatches before the cut.
	Events uint64
	// Snapshot is the encoded state (an internal/checkpoint container).
	Snapshot []byte
}

func (e *SuspendedError) Error() string {
	return fmt.Sprintf("simulator: run suspended at event %d (%d-byte snapshot)", e.Events, len(e.Snapshot))
}

// ResumeMismatchError reports a snapshot that cannot resume under the
// given configuration: a different machine, program, or build. The
// event engine raises it both on fingerprint mismatch (before any
// replay) and on replay divergence (the restored state fails its
// byte-for-byte verification against the snapshot).
type ResumeMismatchError struct {
	Reason string
}

func (e *ResumeMismatchError) Error() string {
	return "simulator: checkpoint resume mismatch: " + e.Reason
}

// encodeCheckpointState appends the processor's complete accounting
// state to enc, deterministically: map-keyed aggregates are emitted in
// sorted key order, pooled buffers as capacities only (their contents
// are dead; capacity is what reuse observes). Two Procs that have
// executed the same program prefix encode identically — the property
// the event engine's verified restore is built on.
func (p *Proc) encodeCheckpointState(enc *checkpoint.Encoder) {
	enc.F64(p.clock)
	enc.F64(p.computeTime)
	enc.F64(p.commTime)
	enc.F64(p.recvWait)
	enc.F64(p.contentionWait)
	enc.I64(int64(p.msgsSent))
	enc.I64(int64(p.msgsRecvd))
	enc.I64(int64(p.wordsSent))
	enc.I64(int64(p.wordsRecvd))
	enc.F64(p.computeFactor)
	enc.F64(p.stragglerExtra)
	enc.I64(int64(p.sendSeq))
	enc.F64(p.retryTime)
	enc.I64(int64(p.retries))

	enc.U32(uint32(len(p.spare)))
	for _, b := range p.spare {
		enc.U64(uint64(cap(b)))
	}

	dsts := make([]int, 0, len(p.links))
	for d := range p.links { //nodetbreak:ordered — sorted below before encoding
		dsts = append(dsts, d)
	}
	sort.Ints(dsts)
	enc.U32(uint32(len(dsts)))
	for _, d := range dsts {
		l := p.links[d]
		enc.I64(int64(d))
		enc.I64(int64(l.msgs))
		enc.I64(int64(l.words))
		enc.F64(l.busy)
	}

	enc.Bool(p.tracing)
	enc.U32(uint32(len(p.trace)))
	for _, ev := range p.trace {
		enc.I64(int64(ev.Rank))
		enc.U8(uint8(ev.Kind))
		enc.I64(int64(ev.Peer))
		enc.I64(int64(ev.Tag))
		enc.I64(int64(ev.Words))
		enc.F64(ev.Start)
		enc.F64(ev.End)
	}
}

// snapKind and snapVersion identify the event engine's payload schema
// inside the checkpoint container. Bump snapVersion on any change to
// encodeState or the meta keys; a resume across versions is rejected
// with a typed checkpoint.VersionError rather than misdecoded. The
// kind keeps its original name so existing snapshots stay resumable.
const (
	snapKind    = "matscale/des-run"
	snapVersion = 1
)

// errSuspendDrain is the poison the event loop aborts parked fibers
// with while dismantling a suspended engine. It never escapes: the
// suspension path returns a SuspendedError (or the sink's error), not
// the engine's failed field.
var errSuspendDrain = errors.New("simulator: run suspended")

// eventSnapshot is a decoded, fingerprint-checked snapshot awaiting
// verification against the replay.
type eventSnapshot struct {
	events uint64
	state  []byte
}

// fingerprint renders the run configuration a snapshot is only valid
// for: topology, cost constants, routing, port regime, faults (all via
// machine.String), processor count, backend, and the observability
// flags — metrics and tracing change the encoded state (trace events,
// link aggregates), so a snapshot taken with them differs from one
// taken without.
func fingerprint(m *machine.Machine, collectTrace bool) string {
	return fmt.Sprintf("%s|p=%d|backend=%s|metrics=%t|trace=%t|contention=%t",
		m.String(), m.P(), m.Backend, m.CollectMetrics, collectTrace, m.TrackContention)
}

// encodeState serializes the complete engine state at a consistent
// cut, deterministically: map-keyed structures are emitted in sorted
// key order, FIFOs in arrival order, fibers and their Procs in rank
// order, pooled buffers as capacities in LIFO order. Determinism here
// is load-bearing: restore verification compares these bytes against
// a replay's.
func encodeState(e *eventRun, procs []*Proc) []byte {
	enc := &checkpoint.Encoder{}
	enc.U64(e.seq)
	enc.U64(e.popped)

	// The event heap in array order. The array layout is a pure
	// function of the push/pop history, which replay reproduces.
	enc.U32(uint32(len(e.heap.a)))
	for _, ev := range e.heap.a {
		enc.F64(ev.t)
		enc.U64(ev.seq)
		enc.I64(int64(ev.rank))
	}

	links := make([][2]int, 0, len(e.links))
	for l := range e.links { //nodetbreak:ordered — sorted below before encoding
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i][0] != links[j][0] {
			return links[i][0] < links[j][0]
		}
		return links[i][1] < links[j][1]
	})
	enc.U32(uint32(len(links)))
	for _, l := range links {
		enc.I64(int64(l[0]))
		enc.I64(int64(l[1]))
		enc.F64(e.links[l])
	}

	// The run-wide buffer pool: capacities only, in LIFO order. The
	// payloads are dead (every slot is overwritten before delivery);
	// capacity is what future reuse observes.
	enc.U32(uint32(len(e.free)))
	for _, b := range e.free {
		enc.U64(uint64(cap(b)))
	}

	for i, f := range e.fibers {
		enc.U8(uint8(f.state))
		enc.Bool(f.blocked)
		enc.I64(int64(f.want.src))
		enc.I64(int64(f.want.tag))
		enc.Bool(f.ready)

		ks := make([]srcTag, 0, len(f.queues))
		for k := range f.queues { //nodetbreak:ordered — sorted below before encoding
			ks = append(ks, k)
		}
		sort.Slice(ks, func(a, b int) bool {
			if ks[a].src != ks[b].src {
				return ks[a].src < ks[b].src
			}
			return ks[a].tag < ks[b].tag
		})
		enc.U32(uint32(len(ks)))
		for _, k := range ks {
			q := f.queues[k]
			enc.I64(int64(k.src))
			enc.I64(int64(k.tag))
			enc.U32(uint32(q.n))
			for j := 0; j < q.n; j++ {
				msg := q.buf[(q.head+j)%len(q.buf)]
				enc.F64(msg.Arrival)
				enc.F64s(msg.Data)
			}
		}

		procs[i].encodeCheckpointState(enc)
	}
	return enc.Data()
}

// encodeSnapshot wraps the cut's state in the versioned container.
func encodeSnapshot(e *eventRun, procs []*Proc, m *machine.Machine, collectTrace bool) []byte {
	s := &checkpoint.Snapshot{
		Kind:    snapKind,
		Version: snapVersion,
		Meta: map[string]string{
			"machine": fingerprint(m, collectTrace),
			"events":  strconv.FormatUint(e.popped, 10),
			"p":       strconv.Itoa(m.P()),
		},
		Payload: encodeState(e, procs),
	}
	return s.Encode()
}

// decodeSnapshot parses and validates a snapshot against the run
// configuration, before any replay: container integrity, kind and
// version, then the machine fingerprint. The state payload itself is
// verified later, at the cut.
func decodeSnapshot(data []byte, m *machine.Machine, collectTrace bool) (*eventSnapshot, error) {
	s, err := checkpoint.Decode(data)
	if err != nil {
		return nil, err
	}
	if err := s.Expect(snapKind, snapVersion); err != nil {
		return nil, err
	}
	if got, want := s.Meta["machine"], fingerprint(m, collectTrace); got != want {
		return nil, &ResumeMismatchError{Reason: fmt.Sprintf(
			"snapshot was taken on %q, resuming on %q", got, want)}
	}
	events, err := strconv.ParseUint(s.Meta["events"], 10, 64)
	if err != nil {
		return nil, &ResumeMismatchError{Reason: fmt.Sprintf(
			"snapshot event count %q: %v", s.Meta["events"], err)}
	}
	if events == 0 {
		return nil, &ResumeMismatchError{Reason: "snapshot cut at event 0 (nothing to resume)"}
	}
	return &eventSnapshot{events: events, state: s.Payload}, nil
}
