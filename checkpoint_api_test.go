package matscale_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"matscale"
	"matscale/internal/server"
)

// suspendRun runs Cannon on the Events backend with a cut at the given
// event count and returns the snapshot buffer plus the SuspendedError.
func suspendRun(t *testing.T, m *matscale.Machine, a, b *matscale.Matrix, cut uint64) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	_, err := matscale.Run(matscale.Cannon, m, a, b,
		matscale.WithBackend(matscale.Events), matscale.WithMetrics(),
		matscale.WithCheckpoint(&buf), matscale.WithSuspendAfter(cut))
	var se *matscale.SuspendedError
	if !errors.As(err, &se) {
		t.Fatalf("Run err = %v, want *SuspendedError", err)
	}
	if se.Events != cut {
		t.Fatalf("suspended at event %d, want %d", se.Events, cut)
	}
	if buf.Len() == 0 {
		t.Fatal("WithCheckpoint sink received no bytes")
	}
	if !bytes.Equal(buf.Bytes(), se.Snapshot) {
		t.Fatal("sink bytes differ from SuspendedError.Snapshot")
	}
	return &buf
}

// The public round trip: suspend via options, reload with Restore,
// resume with WithResume, and get the uninterrupted run's bytes back.
func TestCheckpointRoundTripPublicAPI(t *testing.T) {
	m := matscale.NCube2(64)
	a := matscale.RandomMatrix(16, 16, 1)
	b := matscale.RandomMatrix(16, 16, 2)
	base, err := matscale.Run(matscale.Cannon, m, a, b,
		matscale.WithBackend(matscale.Events), matscale.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}

	const cut = 50
	buf := suspendRun(t, m, a, b, cut)
	ck, err := matscale.Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if ck.Events != cut {
		t.Fatalf("Restore Events = %d, want %d", ck.Events, cut)
	}

	res, err := matscale.Run(matscale.Cannon, m, a, b,
		matscale.WithBackend(matscale.Events), matscale.WithMetrics(),
		matscale.WithResume(ck))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Sim, res.Sim) {
		t.Fatalf("resumed Sim differs: Tp %v vs %v", base.Sim.Tp, res.Sim.Tp)
	}
	if !reflect.DeepEqual(base.Metrics, res.Metrics) {
		t.Fatal("resumed Metrics differ from uninterrupted run")
	}
	if !reflect.DeepEqual(base.C, res.C) {
		t.Fatal("resumed product differs from uninterrupted run")
	}
	if m.Checkpoint != nil {
		t.Fatal("Run mutated the caller's machine")
	}
}

// A Checkpoint written through WriteTo restores identically to the
// sink bytes.
func TestCheckpointWriteTo(t *testing.T) {
	m := matscale.NCube2(16)
	a := matscale.RandomMatrix(8, 8, 3)
	buf := suspendRun(t, m, a, a, 20)
	ck, err := matscale.Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := ck.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	ck2, err := matscale.Restore(&out)
	if err != nil {
		t.Fatal(err)
	}
	if ck2.Events != ck.Events || !bytes.Equal(ck2.Data, ck.Data) {
		t.Fatal("WriteTo/Restore round trip changed the checkpoint")
	}
}

// Restore is where corruption surfaces: a flipped byte or a truncated
// stream is a typed container error, not undefined state later.
func TestRestoreRejectsCorruption(t *testing.T) {
	m := matscale.NCube2(16)
	a := matscale.RandomMatrix(8, 8, 3)
	buf := suspendRun(t, m, a, a, 20)
	good := buf.Bytes()

	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0x40
	if _, err := matscale.Restore(bytes.NewReader(bad)); err == nil {
		t.Fatal("Restore accepted a corrupted snapshot")
	}
	if _, err := matscale.Restore(bytes.NewReader(good[:len(good)/2])); err == nil {
		t.Fatal("Restore accepted a truncated snapshot")
	}
}

// Resuming under a different program is a typed mismatch, caught
// before any wrong number is produced.
func TestResumeMismatchTyped(t *testing.T) {
	m := matscale.NCube2(64)
	a := matscale.RandomMatrix(16, 16, 1)
	buf := suspendRun(t, m, a, a, 50)
	ck, err := matscale.Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var rme *matscale.ResumeMismatchError
	if _, err := matscale.Run(matscale.GK, m, a, a,
		matscale.WithBackend(matscale.Events), matscale.WithResume(ck)); !errors.As(err, &rme) {
		t.Fatalf("resume under GK err = %v, want *ResumeMismatchError", err)
	}
}

// Meaningless option/backend combinations are rejected up front with
// typed errors instead of being silently ignored.
func TestCheckpointOptionValidation(t *testing.T) {
	m := matscale.NCube2(16)
	a := matscale.RandomMatrix(8, 8, 1)
	var sink bytes.Buffer

	if _, err := matscale.Run(matscale.Cannon, m, a, a,
		matscale.WithBackend(matscale.Events), matscale.WithSuspendAfter(5)); err == nil {
		t.Fatal("WithSuspendAfter without WithCheckpoint accepted")
	}
	if _, err := matscale.Run(matscale.Cannon, m, a, a,
		matscale.WithBackend(matscale.Events), matscale.WithCheckpoint(&sink)); err == nil {
		t.Fatal("WithCheckpoint without WithSuspendAfter accepted")
	}

	// The Goroutines engine has no deterministic cut: asking it for a
	// checkpoint is a typed capability error.
	var uce *matscale.UnsupportedCapabilityError
	if _, err := matscale.Run(matscale.Cannon, m, a, a, matscale.WithBackend(matscale.Goroutines),
		matscale.WithCheckpoint(&sink), matscale.WithSuspendAfter(5)); !errors.As(err, &uce) {
		t.Fatalf("goroutines checkpoint err = %v, want *UnsupportedCapabilityError", err)
	}
	if uce.Backend != matscale.Goroutines {
		t.Fatalf("capability error names backend %v", uce.Backend)
	}

	// Auto-selection cannot guarantee the resumed program matches.
	if _, _, err := matscale.RunAuto(m, a, a,
		matscale.WithBackend(matscale.Events),
		matscale.WithCheckpoint(&sink), matscale.WithSuspendAfter(5)); err == nil {
		t.Fatal("RunAuto accepted checkpoint options")
	}

	// Sweeps suspend at cell granularity through the server, not at a
	// run-level cut.
	spec := &matscale.SweepSpec{Algorithms: []string{"cannon"}, Machines: []string{"ncube2"}, Ps: []int{16}, Ns: []int{16}}
	if _, err := matscale.Sweep(spec,
		matscale.WithCheckpoint(&sink), matscale.WithSuspendAfter(5)); !errors.As(err, &uce) {
		t.Fatalf("Sweep checkpoint err = %v, want *UnsupportedCapabilityError", err)
	}
}

// The consolidated ServerErrorKind enum: kinds are errors.Is targets
// for every typed server error, and each maps to its HTTP status.
func TestServerErrorKindPublicSurface(t *testing.T) {
	cases := []struct {
		err    error
		kind   matscale.ServerErrorKind
		status int
	}{
		{&server.QueueFullError{Depth: 4}, matscale.ServerKindQueueFull, 429},
		{&server.RateLimitedError{}, matscale.ServerKindRateLimited, 429},
		{&server.ShuttingDownError{}, matscale.ServerKindShuttingDown, 503},
		{&server.JobTimeoutError{}, matscale.ServerKindJobTimeout, 504},
		{&server.BadSpecError{Err: errors.New("x")}, matscale.ServerKindBadSpec, 400},
	}
	for _, c := range cases {
		if !errors.Is(c.err, c.kind) {
			t.Errorf("errors.Is(%T, %v) = false", c.err, c.kind)
		}
		if got := matscale.ServerErrorKindOf(c.err); got != c.kind {
			t.Errorf("ServerErrorKindOf(%T) = %v, want %v", c.err, got, c.kind)
		}
		if got := c.kind.HTTPStatus(); got != c.status {
			t.Errorf("%v.HTTPStatus() = %d, want %d", c.kind, got, c.status)
		}
	}
	if got := matscale.ServerErrorKindOf(errors.New("plain")); got != matscale.ServerKindSweepError {
		t.Errorf("untyped error kind = %v, want sweep_error", got)
	}
}

// The re-exported job states: string forms and terminality match the
// documented machine.
func TestSweepJobStatePublicSurface(t *testing.T) {
	if matscale.JobQueued.String() != "queued" || matscale.JobSuspended.String() != "suspended" {
		t.Fatal("job state string forms changed")
	}
	if matscale.JobSuspended.Terminal() {
		t.Fatal("suspended must not be terminal — suspended jobs resume")
	}
	for _, st := range []matscale.SweepJobState{matscale.JobDone, matscale.JobFailed, matscale.JobCancelled} {
		if !st.Terminal() {
			t.Fatalf("%v should be terminal", st)
		}
	}
}
