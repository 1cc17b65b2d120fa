package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"matscale/internal/sweep"
)

// awaitState polls until the job reaches want.
func awaitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if j.State() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in %s, want %s", j.ID(), j.State(), want)
}

// freshCSV runs spec on a throwaway server and returns the result CSV —
// the uninterrupted baseline the suspend/resume tests compare against.
func freshCSV(t *testing.T, spec *sweep.Spec) string {
	t.Helper()
	s, err := New(Config{SweepWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	j, err := s.Submit(spec, -1)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	res, jerr := j.Result()
	if jerr != nil {
		t.Fatal(jerr)
	}
	return res.CSV()
}

func TestSuspendQueuedResumeCompletes(t *testing.T) {
	gate := newBlockingCache()
	s, err := New(Config{QueueDepth: 4, MaxConcurrent: 1, SweepWorkers: 1, Cache: gate})
	if err != nil {
		t.Fatal(err)
	}
	blocker, err := s.Submit(testSpec(), -1)
	if err != nil {
		t.Fatal(err)
	}
	<-gate.entered // blocker occupies the only worker
	target, err := s.Submit(testSpec(), -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Suspend(target.ID()); err != nil {
		t.Fatalf("suspend queued: %v", err)
	}
	if st := target.State(); st != StateSuspended {
		t.Fatalf("state = %s, want suspended (a queued job suspends synchronously)", st)
	}
	ck := target.Checkpoint()
	if ck == nil || len(ck.Done) != 0 {
		t.Fatalf("queued suspension checkpoint = %+v, want empty", ck)
	}
	if st := s.Stats(); st.Suspended != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if err := s.Resume(target.ID()); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if st := target.State(); st != StateQueued {
		t.Fatalf("state after resume = %s, want queued", st)
	}
	close(gate.release)
	waitJob(t, blocker)
	waitJob(t, target)
	res, jerr := target.Result()
	if jerr != nil {
		t.Fatal(jerr)
	}
	if res.CSV() != freshCSV(t, testSpec()) {
		t.Fatal("resumed job's result differs from an uninterrupted run")
	}
	if st := s.Stats(); st.Suspended != 0 || st.Completed != 2 {
		t.Fatalf("stats = %+v", st)
	}
	s.Shutdown()
}

func TestSuspendRunningKeepsCompletedCells(t *testing.T) {
	gate := newBlockingCache()
	s, err := New(Config{MaxConcurrent: 1, SweepWorkers: 1, Cache: gate})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(testSpec(), -1)
	if err != nil {
		t.Fatal(err)
	}
	<-gate.entered // first cell is in flight
	if err := s.Suspend(j.ID()); err != nil {
		t.Fatalf("suspend running: %v", err)
	}
	close(gate.release) // the in-flight cell finishes; the rest are skipped
	awaitState(t, j, StateSuspended)
	ck := j.Checkpoint()
	if ck == nil || len(ck.Done) != 1 {
		t.Fatalf("checkpoint carries %d cells, want exactly the in-flight one", len(ck.Done))
	}
	st := j.Status()
	if st.State != "suspended" || st.Done != 1 || st.Error != "" {
		t.Fatalf("status = %+v", st)
	}
	select {
	case <-j.Finished():
		t.Fatal("suspension must not release Finished waiters")
	default:
	}
	if err := s.Resume(j.ID()); err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	res, jerr := j.Result()
	if jerr != nil {
		t.Fatal(jerr)
	}
	if res.CSV() != freshCSV(t, testSpec()) {
		t.Fatal("resumed job's result differs from an uninterrupted run")
	}
	if fin := j.Status(); fin.Done != fin.Total {
		t.Fatalf("final status = %+v", fin)
	}
	s.Shutdown()
}

func TestTimeoutSuspendsWhenConfigured(t *testing.T) {
	clock := newFakeClock()
	gate := newBlockingCache()
	s, err := New(Config{
		MaxConcurrent: 1, SweepWorkers: 1,
		JobTimeout: time.Minute, SuspendOnTimeout: true,
		Clock: clock, Cache: gate,
	})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(testSpec(), -1)
	if err != nil {
		t.Fatal(err)
	}
	<-clock.armed
	<-gate.entered
	clock.Fire()
	awaitStopRequested(t, j)
	close(gate.release)
	awaitState(t, j, StateSuspended)
	if ck := j.Checkpoint(); ck == nil || len(ck.Done) == 0 {
		t.Fatalf("timeout suspension kept no completed cells: %+v", ck)
	}
	if st := s.Stats(); st.Failed != 0 || st.Suspended != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if err := s.Resume(j.ID()); err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	res, jerr := j.Result()
	if jerr != nil {
		t.Fatalf("resumed-after-timeout job failed: %v", jerr)
	}
	if res.CSV() != freshCSV(t, testSpec()) {
		t.Fatal("result differs from an uninterrupted run")
	}
	s.Shutdown()
}

func TestCancelVerb(t *testing.T) {
	gate := newBlockingCache()
	s, err := New(Config{QueueDepth: 4, MaxConcurrent: 1, SweepWorkers: 1, Cache: gate})
	if err != nil {
		t.Fatal(err)
	}
	running, err := s.Submit(testSpec(), -1)
	if err != nil {
		t.Fatal(err)
	}
	<-gate.entered
	queued, err := s.Submit(testSpec(), -1)
	if err != nil {
		t.Fatal(err)
	}

	// Cancel a queued job: synchronous, terminal, typed error.
	if err := s.Cancel(queued.ID()); err != nil {
		t.Fatal(err)
	}
	if st := queued.State(); st != StateCancelled {
		t.Fatalf("state = %s, want cancelled", st)
	}
	_, jerr := queued.Result()
	var ce *CanceledError
	if !errors.As(jerr, &ce) || !errors.Is(jerr, KindCanceled) {
		t.Fatalf("cancelled job error = %v, want *CanceledError matching KindCanceled", jerr)
	}

	// Cancel the running job: lands at the next cell boundary.
	if err := s.Cancel(running.ID()); err != nil {
		t.Fatal(err)
	}
	close(gate.release)
	waitJob(t, running)
	if st := running.State(); st != StateCancelled {
		t.Fatalf("state = %s, want cancelled", st)
	}
	if st := running.Status(); st.ErrorKind != "canceled" {
		t.Fatalf("status = %+v", st)
	}
	if st := s.Stats(); st.Canceled != 2 || st.Completed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	s.Shutdown()
}

func TestInvalidTransitionsTyped(t *testing.T) {
	s, err := New(Config{SweepWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	j, err := s.Submit(testSpec(), -1)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)

	for _, verb := range []struct {
		name  string
		apply func(string) error
	}{{"suspend", s.Suspend}, {"resume", s.Resume}, {"cancel", s.Cancel}} {
		err := verb.apply(j.ID())
		var it *InvalidTransitionError
		if !errors.As(err, &it) || !errors.Is(err, KindInvalidTransition) {
			t.Fatalf("%s on done job = %v, want *InvalidTransitionError matching KindInvalidTransition", verb.name, err)
		}
		if it.Verb != verb.name || it.From != StateDone {
			t.Fatalf("error fields = %+v", it)
		}
		var uj *UnknownJobError
		if err := verb.apply("job-nope"); !errors.As(err, &uj) || !errors.Is(err, KindUnknownJob) {
			t.Fatalf("%s on unknown job = %v, want *UnknownJobError matching KindUnknownJob", verb.name, err)
		}
	}
}

func TestCheckpointPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	gate := newBlockingCache()
	s1, err := New(Config{QueueDepth: 4, MaxConcurrent: 1, SweepWorkers: 1, Cache: gate, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	blocker, err := s1.Submit(testSpec(), -1)
	if err != nil {
		t.Fatal(err)
	}
	<-gate.entered
	target, err := s1.Submit(testSpec(), -1)
	if err != nil {
		t.Fatal(err)
	}
	id := target.ID()
	if err := s1.Suspend(id); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, id+".ckpt")); err != nil {
		t.Fatalf("suspension left no checkpoint file: %v", err)
	}
	close(gate.release)
	waitJob(t, blocker)
	s1.Shutdown() // the suspended job survives the drain

	// "Restart": a new server over the same directory restores the
	// suspended job under its original ID.
	s2, err := New(Config{SweepWorkers: 1, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	restored, ok := s2.Job(id)
	if !ok {
		t.Fatalf("job %s not restored", id)
	}
	if st := restored.State(); st != StateSuspended {
		t.Fatalf("restored state = %s, want suspended", st)
	}
	if restored.Total() != target.Total() {
		t.Fatalf("restored total = %d, want %d", restored.Total(), target.Total())
	}
	if st := s2.Stats(); st.Suspended != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// New IDs must not collide with the restored one.
	extra, err := s2.Submit(testSpec(), -1)
	if err != nil {
		t.Fatal(err)
	}
	if extra.ID() == id {
		t.Fatal("restored ID reissued to a new job")
	}
	if err := s2.Resume(id); err != nil {
		t.Fatal(err)
	}
	waitJob(t, restored)
	res, jerr := restored.Result()
	if jerr != nil {
		t.Fatal(jerr)
	}
	if res.CSV() != freshCSV(t, testSpec()) {
		t.Fatal("restart-resumed result differs from an uninterrupted run")
	}
	if _, err := os.Stat(filepath.Join(dir, id+".ckpt")); !os.IsNotExist(err) {
		t.Fatalf("terminal job left its checkpoint file behind (stat: %v)", err)
	}
	waitJob(t, extra)
	s2.Shutdown()
}

func TestRestoreRejectsCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "job-9.ckpt"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{CheckpointDir: dir}); err == nil {
		t.Fatal("corrupt checkpoint accepted at startup")
	}
}

// A crash between writing a checkpoint's temp file and renaming it
// leaves <id>.ckpt.tmp behind: startup ignores its contents, restores
// the complete checkpoints, and deletes the leftover.
func TestRestoreRemovesLeftoverTempFile(t *testing.T) {
	dir := t.TempDir()
	data, err := (&sweep.Checkpoint{Spec: *testSpec()}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-3.ckpt"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "job-4.ckpt.tmp")
	if err := os.WriteFile(tmp, []byte("torn write"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{CheckpointDir: dir})
	if err != nil {
		t.Fatalf("leftover temp file blocked startup: %v", err)
	}
	defer s.Shutdown()
	if st := s.Stats(); st.Suspended != 1 {
		t.Fatalf("restored %d suspended jobs, want 1", st.Suspended)
	}
	if j, ok := s.Job("job-3"); !ok || j.State() != StateSuspended {
		t.Fatal("job-3 not restored as suspended")
	}
	if _, ok := s.Job("job-4"); ok {
		t.Fatal("a temp file was restored as a job")
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("leftover temp file not removed (stat: %v)", err)
	}
}

func TestErrorKindTable(t *testing.T) {
	cases := []struct {
		err    error
		kind   ErrorKind
		status int
	}{
		{&QueueFullError{Depth: 1}, KindQueueFull, 429},
		{&RateLimitedError{}, KindRateLimited, 429},
		{&ShuttingDownError{}, KindShuttingDown, 503},
		{&BadSpecError{Err: errors.New("x")}, KindBadSpec, 400},
		{&JobTimeoutError{}, KindJobTimeout, 504},
		{&UnknownJobError{ID: "j"}, KindUnknownJob, 404},
		{&InvalidTransitionError{Verb: "resume"}, KindInvalidTransition, 409},
		{&CanceledError{}, KindCanceled, 409},
		{errors.New("anything else"), KindSweepError, 500},
	}
	for _, tc := range cases {
		if got := KindOf(tc.err); got != tc.kind {
			t.Errorf("KindOf(%T) = %v, want %v", tc.err, got, tc.kind)
		}
		if got := tc.kind.HTTPStatus(); got != tc.status {
			t.Errorf("%v.HTTPStatus() = %d, want %d", tc.kind, got, tc.status)
		}
		if tc.kind != KindSweepError && !errors.Is(tc.err, tc.kind) {
			t.Errorf("errors.Is(%T, %v) = false", tc.err, tc.kind)
		}
	}
}

func TestHTTPJobControlRoutes(t *testing.T) {
	gate := newBlockingCache()
	s, ts := httpServer(t, Config{QueueDepth: 4, MaxConcurrent: 1, SweepWorkers: 1, Cache: gate})
	_ = s

	post := func(path string) (int, map[string]interface{}) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]interface{}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		return resp.StatusCode, body
	}
	get := func(path string) (int, map[string]interface{}) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]interface{}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, body
	}

	// Submit twice through /v1/jobs: the first job blocks the single
	// worker, so the second (the target) stays queued.
	blocker := submitHTTP(t, ts.URL, specJSON)
	<-gate.entered
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	var target SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&target); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d", resp.StatusCode)
	}

	// Suspend the queued target via the canonical route.
	if code, body := post("/v1/jobs/" + target.ID + "/suspend"); code != 200 || body["state"] != "suspended" {
		t.Fatalf("suspend: %d %v", code, body)
	}
	// A suspended job's result is a 409 with kind "suspended".
	if code, body := get("/v1/jobs/" + target.ID + "/result"); code != 409 || body["kind"] != "suspended" {
		t.Fatalf("suspended result: %d %v", code, body)
	}
	if code, body := post("/v1/jobs/" + target.ID + "/resume"); code != 200 || body["state"] != "queued" {
		t.Fatalf("resume: %d %v", code, body)
	}
	// Unknown job: 404 with kind "unknown_job".
	if code, body := post("/v1/jobs/job-nope/cancel"); code != 404 || body["kind"] != "unknown_job" {
		t.Fatalf("unknown cancel: %d %v", code, body)
	}

	close(gate.release)
	if st := awaitDone(t, ts.URL, blocker.ID); st.State != "done" {
		t.Fatalf("blocker: %+v", st)
	}
	if st := awaitDone(t, ts.URL, target.ID); st.State != "done" {
		t.Fatalf("target: %+v", st)
	}
	// Status and result readable via the canonical route too.
	if code, body := get("/v1/jobs/" + target.ID); code != 200 || body["state"] != "done" {
		t.Fatalf("status: %d %v", code, body)
	}
	if got := fetchResult(t, ts.URL, target.ID); len(got) == 0 {
		t.Fatal("empty result")
	}
	// Verbs on a terminal job: 409 invalid_transition.
	if code, body := post("/v1/jobs/" + target.ID + "/suspend"); code != 409 || body["kind"] != "invalid_transition" {
		t.Fatalf("suspend done: %d %v", code, body)
	}
}
