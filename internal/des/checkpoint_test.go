package des_test

import (
	"bytes"
	"errors"
	"testing"

	"matscale/internal/checkpoint"
	"matscale/internal/core"
	"matscale/internal/faults"
	"matscale/internal/machine"
	"matscale/internal/matrix"
	"matscale/internal/simulator"
)

// lcg is a tiny deterministic generator for the "kill at k random
// event counts" cut selection. Hand-rolled (Numerical Recipes
// constants) instead of math/rand so the test obeys the same
// no-ambient-randomness discipline the package under test does.
type lcg uint64

func (l *lcg) next(bound uint64) uint64 {
	*l = lcg(uint64(*l)*6364136223846793005 + 1442695040888963407)
	return (uint64(*l) >> 33) % bound
}

// events wires a formulation's machine for the events backend with
// full observability, mirroring the differential suite.
func events(mk func() *machine.Machine, fc *faults.Config) *machine.Machine {
	return observe(mk()).WithFaults(fc)
}

// suspendAt runs alg with a StopAfter cut and returns either the
// snapshot (nil error path) or the completed result when the run ends
// before the cut.
func suspendAt(t *testing.T, alg core.Algorithm, m *machine.Machine, a, b *matrix.Dense, cut uint64) (snap []byte, done *core.Result) {
	t.Helper()
	var sunk []byte
	m.Checkpoint = &machine.CheckpointControl{
		StopAfter: cut,
		Sink: func(s []byte, ev uint64) error {
			sunk = s
			if ev != cut {
				t.Errorf("sink called with events=%d, want %d", ev, cut)
			}
			return nil
		},
	}
	res, err := alg(m, a, b)
	var se *simulator.SuspendedError
	switch {
	case errors.As(err, &se):
		if se.Events != cut {
			t.Fatalf("suspended at event %d, want %d", se.Events, cut)
		}
		if !bytes.Equal(sunk, se.Snapshot) {
			t.Fatal("sink bytes differ from SuspendedError.Snapshot")
		}
		return se.Snapshot, nil
	case err != nil:
		t.Fatalf("suspend run at cut %d: %v", cut, err)
		return nil, nil
	default:
		// The run finished in fewer than cut events.
		return nil, res
	}
}

// resume replays alg from snap to completion.
func resume(t *testing.T, alg core.Algorithm, m *machine.Machine, a, b *matrix.Dense, snap []byte) *core.Result {
	t.Helper()
	m.Checkpoint = &machine.CheckpointControl{Resume: snap}
	res, err := alg(m, a, b)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	return res
}

// TestResumeDifferential is the checkpoint acceptance suite: for every
// formulation, clean and faulted, kill the run at several
// pseudo-random event counts, resume each snapshot in-process, and
// require the resumed run's Result, product, Metrics CSVs and Chrome
// trace to be byte-identical to the uninterrupted run's (via the same
// assertIdentical the backend-equivalence suite uses). Cuts that land
// beyond the run's end must complete normally with identical output.
func TestResumeDifferential(t *testing.T) {
	cases := []struct {
		name string
		fc   func() *faults.Config
	}{
		{"Clean", func() *faults.Config { return nil }},
		{"Faulted", faulted},
	}
	for _, fcase := range cases {
		for fi, f := range core.Formulations {
			t.Run(fcase.name+"/"+f.Name, func(t *testing.T) {
				mk, n := geometry(f)
				a := matrix.RandomInts(n, n, 71)
				b := matrix.RandomInts(n, n, 72)
				fc := fcase.fc()
				base, err := f.Run(events(mk, fc), a, b)
				if err != nil {
					t.Fatalf("uninterrupted run: %v", err)
				}
				seed := lcg(1000*uint64(fi) + uint64(len(fcase.name)))
				cuts := []uint64{1, 2 + seed.next(200), 2 + seed.next(2000), 2 + seed.next(20000)}
				suspended := 0
				for _, cut := range cuts {
					snap, done := suspendAt(t, f.Run, events(mk, fc), a, b, cut)
					if snap == nil {
						assertIdentical(t, base, done)
						continue
					}
					suspended++
					got := resume(t, f.Run, events(mk, fc), a, b, snap)
					assertIdentical(t, base, got)
				}
				if suspended == 0 {
					t.Error("no cut actually suspended; the suite proved nothing")
				}
			})
		}
	}
}

// TestResumeChain suspends, resumes with a later cut (suspending
// again), and resumes once more to completion: snapshots must compose.
func TestResumeChain(t *testing.T) {
	a := matrix.RandomInts(16, 16, 71)
	b := matrix.RandomInts(16, 16, 72)
	base, err := core.Cannon(events(hyper, nil), a, b)
	if err != nil {
		t.Fatal(err)
	}
	snap1, done := suspendAt(t, core.Cannon, events(hyper, nil), a, b, 5)
	if snap1 == nil {
		t.Fatalf("cut 5 did not suspend (run done: %v)", done != nil)
	}
	m := events(hyper, nil)
	var snap2 []byte
	m.Checkpoint = &machine.CheckpointControl{
		StopAfter: 50,
		Resume:    snap1,
		Sink:      func(s []byte, ev uint64) error { snap2 = s; return nil },
	}
	_, err = core.Cannon(m, a, b)
	var se *simulator.SuspendedError
	if !errors.As(err, &se) {
		t.Fatalf("resume+suspend at 50: %v", err)
	}
	if snap2 == nil {
		t.Fatal("second suspension produced no snapshot")
	}
	got := resume(t, core.Cannon, events(hyper, nil), a, b, snap2)
	assertIdentical(t, base, got)
}

// TestResumeRejectsCorruption flips and truncates snapshot bytes: every
// mutation must yield a typed container error, never a run.
func TestResumeRejectsCorruption(t *testing.T) {
	a := matrix.RandomInts(16, 16, 71)
	b := matrix.RandomInts(16, 16, 72)
	snap, _ := suspendAt(t, core.Cannon, events(hyper, nil), a, b, 8)
	if snap == nil {
		t.Fatal("cut 8 did not suspend")
	}

	tryResume := func(data []byte) error {
		m := events(hyper, nil)
		m.Checkpoint = &machine.CheckpointControl{Resume: data}
		_, err := core.Cannon(m, a, b)
		return err
	}

	for _, i := range []int{0, 4, len(snap) / 2, len(snap) - 1} {
		mut := append([]byte(nil), snap...)
		mut[i] ^= 0x20
		err := tryResume(mut)
		if err == nil {
			t.Fatalf("resume with byte %d flipped succeeded", i)
		}
		if !errors.Is(err, checkpoint.ErrIntegrity) && !errors.Is(err, checkpoint.ErrBadMagic) {
			t.Fatalf("resume with byte %d flipped: %v, want integrity/magic error", i, err)
		}
	}
	for _, n := range []int{0, 7, len(snap) / 3, len(snap) - 1} {
		err := tryResume(snap[:n])
		if err == nil {
			t.Fatalf("resume with %d/%d byte prefix succeeded", n, len(snap))
		}
		if !errors.Is(err, checkpoint.ErrTruncated) && !errors.Is(err, checkpoint.ErrBadMagic) &&
			!errors.Is(err, checkpoint.ErrIntegrity) {
			t.Fatalf("resume with %d-byte prefix: %v, want typed container error", n, err)
		}
	}
}

// TestResumeRejectsMismatch covers the semantic rejections: a snapshot
// resumed on a different machine, with different observability, under
// a different program, or with a StopAfter at or before its own cut.
func TestResumeRejectsMismatch(t *testing.T) {
	a := matrix.RandomInts(16, 16, 71)
	b := matrix.RandomInts(16, 16, 72)
	snap, _ := suspendAt(t, core.Cannon, events(hyper, nil), a, b, 8)
	if snap == nil {
		t.Fatal("cut 8 did not suspend")
	}

	expectMismatch := func(t *testing.T, err error) {
		t.Helper()
		var rm *simulator.ResumeMismatchError
		if !errors.As(err, &rm) {
			t.Fatalf("got %v, want *simulator.ResumeMismatchError", err)
		}
	}

	t.Run("DifferentCost", func(t *testing.T) {
		m := events(hyper, nil).WithCost(99, 1)
		m.Checkpoint = &machine.CheckpointControl{Resume: snap}
		_, err := core.Cannon(m, a, b)
		expectMismatch(t, err)
	})
	t.Run("DifferentObservability", func(t *testing.T) {
		m := hyper() // no metrics/trace
		m.Checkpoint = &machine.CheckpointControl{Resume: snap}
		_, err := core.Cannon(m, a, b)
		expectMismatch(t, err)
	})
	t.Run("DifferentProgram", func(t *testing.T) {
		// Fox on the same machine shares the fingerprint; only the
		// replay verification at the cut can catch it.
		m := events(hyper, nil)
		m.Checkpoint = &machine.CheckpointControl{Resume: snap}
		_, err := core.Fox(m, a, b)
		expectMismatch(t, err)
	})
	t.Run("StopAfterNotBeyondCut", func(t *testing.T) {
		m := events(hyper, nil)
		m.Checkpoint = &machine.CheckpointControl{Resume: snap, StopAfter: 8}
		_, err := core.Cannon(m, a, b)
		expectMismatch(t, err)
	})
	t.Run("WrongKind", func(t *testing.T) {
		other := &checkpoint.Snapshot{Kind: "matscale/sweep-job", Version: 1}
		m := events(hyper, nil)
		m.Checkpoint = &machine.CheckpointControl{Resume: other.Encode()}
		_, err := core.Cannon(m, a, b)
		var ke *checkpoint.KindError
		if !errors.As(err, &ke) {
			t.Fatalf("got %v, want *checkpoint.KindError", err)
		}
	})
}

// TestCheckpointUnsupportedOnGoroutines asserts the goroutine backend
// rejects a checkpoint control with a typed capability error instead
// of silently ignoring it.
func TestCheckpointUnsupportedOnGoroutines(t *testing.T) {
	m := machine.Hypercube(4, 5, 1)
	m.Backend = machine.BackendGoroutines
	m.Checkpoint = &machine.CheckpointControl{StopAfter: 1}
	_, err := simulator.Run(m, func(p *simulator.Proc) {})
	var ue *simulator.UnsupportedCapabilityError
	if !errors.As(err, &ue) {
		t.Fatalf("got %v, want *simulator.UnsupportedCapabilityError", err)
	}
	if ue.Backend != machine.BackendGoroutines || ue.Capability != "checkpoint/resume" {
		t.Fatalf("error fields: %+v", ue)
	}
}

// TestEmptyCheckpointControlRejected asserts a control with neither
// StopAfter nor Resume fails validation rather than being ignored.
func TestEmptyCheckpointControlRejected(t *testing.T) {
	m := machine.Hypercube(4, 5, 1)
	m.Checkpoint = &machine.CheckpointControl{}
	if _, err := simulator.Run(m, func(p *simulator.Proc) {}); err == nil {
		t.Fatal("empty CheckpointControl passed validation")
	}
}

// TestSinkErrorFailsRun asserts a failing sink surfaces as the run's
// error (the snapshot must not be silently dropped).
func TestSinkErrorFailsRun(t *testing.T) {
	a := matrix.RandomInts(16, 16, 71)
	b := matrix.RandomInts(16, 16, 72)
	m := events(hyper, nil)
	sinkErr := errors.New("disk full")
	m.Checkpoint = &machine.CheckpointControl{
		StopAfter: 3,
		Sink:      func([]byte, uint64) error { return sinkErr },
	}
	_, err := core.Cannon(m, a, b)
	if !errors.Is(err, sinkErr) {
		t.Fatalf("got %v, want wrapped sink error", err)
	}
}
