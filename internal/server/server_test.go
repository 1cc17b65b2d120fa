package server

import (
	"errors"
	"sync"
	"testing"
	"time"

	"matscale/internal/sweep"
)

// testSpec is a small grid that every test job runs: 8 applicable
// cells, each a real (fast) simulation.
func testSpec() *sweep.Spec {
	return &sweep.Spec{
		Algorithms: []string{"cannon", "gk"},
		Machines:   []string{"custom"},
		Ts:         17, Tw: 3,
		Ps:   []int{16, 64},
		Ns:   []int{16, 32},
		Seed: 1,
	}
}

// fakeClock is a manually advanced Clock: Now returns the set time and
// After hands out timer channels the test fires explicitly.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []chan time.Time
	armed  chan struct{}
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(0, 0), armed: make(chan struct{}, 16)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func (c *fakeClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.mu.Lock()
	c.timers = append(c.timers, ch)
	c.mu.Unlock()
	c.armed <- struct{}{}
	return ch
}

// Fire triggers every armed timer.
func (c *fakeClock) Fire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ch := range c.timers {
		select {
		case ch <- c.now:
		default:
		}
	}
}

// blockingCache stalls every cell lookup until released, making a
// running job deterministically long-lived for queue and timeout
// tests.
type blockingCache struct {
	entered chan struct{} // signaled once per Get
	release chan struct{} // closed to unblock all Gets
}

func newBlockingCache() *blockingCache {
	return &blockingCache{entered: make(chan struct{}, 64), release: make(chan struct{})}
}

func (b *blockingCache) Get(key string) (sweep.CellResult, bool) {
	b.entered <- struct{}{}
	<-b.release
	return sweep.CellResult{}, false
}

func (b *blockingCache) Put(string, sweep.CellResult) {}

// awaitStopRequested blocks until the job's running attempt has been
// asked to stop, by suspension or cancellation. A test that fires the
// job's timeout waits here before releasing the in-flight cell, so the
// sweep sees the request at the next cell boundary however fast the
// remaining cells run.
func awaitStopRequested(t *testing.T, j *Job) {
	t.Helper()
	j.mu.Lock()
	suspend, cancel := j.suspendCh, j.cancelCh
	j.mu.Unlock()
	select {
	case <-suspend:
	case <-cancel:
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s was never asked to stop", j.ID())
	}
}

func waitJob(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Finished():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish", j.ID())
	}
}

func TestSubmitRejectsBadSpec(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	_, err = s.Submit(&sweep.Spec{Algorithms: []string{"nope"}}, -1)
	var bad *BadSpecError
	if !errors.As(err, &bad) {
		t.Fatalf("bad spec returned %v, want *BadSpecError", err)
	}
	_, err = s.Submit(testSpec(), 99)
	if !errors.As(err, &bad) {
		t.Fatalf("bad backend returned %v, want *BadSpecError", err)
	}
	if st := s.Stats(); st.RejectedSpec != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestJobLifecycleAndResult(t *testing.T) {
	s, err := New(Config{SweepWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	j, err := s.Submit(testSpec(), -1)
	if err != nil {
		t.Fatal(err)
	}
	if j.Total() != 8 {
		t.Fatalf("total = %d, want 8", j.Total())
	}
	waitJob(t, j)
	res, jerr := j.Result()
	if jerr != nil || res == nil {
		t.Fatalf("result = %v, %v", res, jerr)
	}
	if len(res.Cells) != 8 || res.Ran == 0 || res.Ran+res.Skipped != 8 {
		t.Fatalf("cells = %d ran = %d skipped = %d", len(res.Cells), res.Ran, res.Skipped)
	}
	st := j.Status()
	if st.State != "done" || st.Done != 8 || st.Total != 8 || st.Error != "" {
		t.Fatalf("status = %+v", st)
	}
	got, ok := s.Job(j.ID())
	if !ok || got != j {
		t.Fatal("job not queryable by ID")
	}
	if st := s.Stats(); st.Completed != 1 || st.CellsServed != 8 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestResubmittedSpecSharesResult pins the result sharing that keeps
// retained jobs small: jobs of the same spec and backend finish with
// one shared Result, byte-identical to a fresh run, and a different
// spec keeps its own.
func TestResubmittedSpecSharesResult(t *testing.T) {
	s, err := New(Config{SweepWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	run := func(spec *sweep.Spec) *sweep.Result {
		j, err := s.Submit(spec, -1)
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j)
		res, jerr := j.Result()
		if jerr != nil {
			t.Fatal(jerr)
		}
		return res
	}
	first, second := run(testSpec()), run(testSpec())
	if first != second {
		t.Error("two jobs of one spec retain separate results")
	}
	if second.CSV() != freshCSV(t, testSpec()) {
		t.Error("shared result differs from a fresh run")
	}
	other := testSpec()
	other.Ts++
	if run(other) == first {
		t.Error("a different spec shares another spec's result")
	}
}

func TestQueueFullTypedError(t *testing.T) {
	gate := newBlockingCache()
	s, err := New(Config{QueueDepth: 1, MaxConcurrent: 1, SweepWorkers: 1, Cache: gate})
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Submit(testSpec(), -1)
	if err != nil {
		t.Fatal(err)
	}
	<-gate.entered // a is running (blocked mid-cell), queue is empty
	b, err := s.Submit(testSpec(), -1)
	if err != nil {
		t.Fatalf("second submit should queue: %v", err)
	}
	_, err = s.Submit(testSpec(), -1)
	var qf *QueueFullError
	if !errors.As(err, &qf) || qf.Depth != 1 {
		t.Fatalf("third submit returned %v, want *QueueFullError{Depth: 1}", err)
	}
	if st := s.Stats(); st.RejectedQueue != 1 || st.Queued != 1 || st.Running != 1 {
		t.Fatalf("stats = %+v", st)
	}
	close(gate.release)
	waitJob(t, a)
	waitJob(t, b)
	s.Shutdown()
}

func TestRateLimitedTypedError(t *testing.T) {
	clock := newFakeClock()
	s, err := New(Config{RatePerSec: 1, Burst: 2, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	var jobs []*Job
	for i := 0; i < 2; i++ {
		j, err := s.Submit(testSpec(), -1)
		if err != nil {
			t.Fatalf("submit %d within burst: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	_, err = s.Submit(testSpec(), -1)
	var rl *RateLimitedError
	if !errors.As(err, &rl) {
		t.Fatalf("burst-exhausted submit returned %v, want *RateLimitedError", err)
	}
	if rl.RetryAfter <= 0 || rl.RetryAfter > time.Second {
		t.Fatalf("retry-after = %v", rl.RetryAfter)
	}
	clock.Advance(1100 * time.Millisecond) // one token refills
	j, err := s.Submit(testSpec(), -1)
	if err != nil {
		t.Fatalf("post-refill submit: %v", err)
	}
	jobs = append(jobs, j)
	for _, j := range jobs {
		waitJob(t, j)
	}
	if st := s.Stats(); st.RejectedRate != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNewRejectsClocklessTimeFeatures(t *testing.T) {
	if _, err := New(Config{RatePerSec: 5}); err == nil {
		t.Fatal("RatePerSec without Clock accepted")
	}
	if _, err := New(Config{JobTimeout: time.Second}); err == nil {
		t.Fatal("JobTimeout without Clock accepted")
	}
}

func TestJobTimeoutTypedError(t *testing.T) {
	clock := newFakeClock()
	gate := newBlockingCache()
	s, err := New(Config{MaxConcurrent: 1, SweepWorkers: 1, JobTimeout: time.Minute, Clock: clock, Cache: gate})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(testSpec(), -1)
	if err != nil {
		t.Fatal(err)
	}
	<-clock.armed  // the job's timeout timer is armed
	<-gate.entered // and its first cell is in flight
	clock.Fire()
	awaitStopRequested(t, j)
	close(gate.release) // the in-flight cell finishes; the rest are canceled
	waitJob(t, j)
	res, jerr := j.Result()
	var to *JobTimeoutError
	if !errors.As(jerr, &to) || to.Timeout != time.Minute {
		t.Fatalf("timed-out job returned %v, want *JobTimeoutError{Timeout: 1m}", jerr)
	}
	if res != nil {
		t.Fatal("timed-out job kept a partial result")
	}
	st := j.Status()
	if st.State != "failed" || st.ErrorKind != "job_timeout" {
		t.Fatalf("status = %+v", st)
	}
	if stats := s.Stats(); stats.Failed != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	s.Shutdown()
}

func TestJobBeatsTimerAfterTimeoutRace(t *testing.T) {
	clock := newFakeClock()
	s, err := New(Config{MaxConcurrent: 1, SweepWorkers: 2, JobTimeout: time.Minute, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(testSpec(), -1)
	if err != nil {
		t.Fatal(err)
	}
	// Fire the timer at some point during (or after) the run: whenever
	// the sweep completes its cells before the cancel lands, the job
	// must still count as done, never as timed out.
	<-clock.armed
	waitJob(t, j)
	clock.Fire()
	if _, jerr := j.Result(); jerr != nil {
		t.Fatalf("completed job reported %v", jerr)
	}
	s.Shutdown()
}

func TestShutdownDrainsAdmittedJobs(t *testing.T) {
	s, err := New(Config{MaxConcurrent: 2, SweepWorkers: 1, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	var jobs []*Job
	for i := 0; i < 6; i++ {
		j, err := s.Submit(testSpec(), -1)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	s.Shutdown() // blocks until every admitted job drained
	for _, j := range jobs {
		select {
		case <-j.Finished():
		default:
			t.Fatalf("job %s not drained by Shutdown", j.ID())
		}
		if res, jerr := j.Result(); jerr != nil || res == nil {
			t.Fatalf("drained job %s: %v, %v", j.ID(), res, jerr)
		}
	}
	_, err = s.Submit(testSpec(), -1)
	var sd *ShuttingDownError
	if !errors.As(err, &sd) {
		t.Fatalf("post-shutdown submit returned %v, want *ShuttingDownError", err)
	}
	if st := s.Stats(); !st.Draining || st.Completed != 6 {
		t.Fatalf("stats = %+v", st)
	}
	s.Shutdown() // idempotent
}

// TestJobRetentionEvictsOldest checks that a zero Config.RetainJobs
// becomes DefaultRetainJobs and that the oldest terminal jobs beyond
// the cap are evicted.
func TestJobRetentionEvictsOldest(t *testing.T) {
	d, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	d.Shutdown()
	if d.cfg.RetainJobs != DefaultRetainJobs {
		t.Fatalf("zero RetainJobs became %d, want DefaultRetainJobs = %d", d.cfg.RetainJobs, DefaultRetainJobs)
	}
	s, err := New(Config{RetainJobs: 2, SweepWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 4; i++ {
		j, err := s.Submit(testSpec(), -1)
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j)
		ids = append(ids, j.ID())
	}
	s.Shutdown()
	for _, id := range ids[:2] {
		if _, ok := s.Job(id); ok {
			t.Fatalf("job %s should have been evicted", id)
		}
	}
	for _, id := range ids[2:] {
		if _, ok := s.Job(id); !ok {
			t.Fatalf("job %s evicted too early", id)
		}
	}
}

func TestSubscribeReplaysTerminalState(t *testing.T) {
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
	ch, cancel := j.Subscribe()
	defer cancel()
	if _, open := <-ch; open {
		t.Fatal("subscription to a finished job must start closed")
	}
}

// TestFinishedJobReleasesRunState pins what a terminal job keeps: no
// subscriber map and no run-attempt channels, while every path that
// used them still behaves — Subscribe returns a closed channel, an
// unsubscribe left over from the run is a no-op, and the suspend and
// cancel verbs change nothing.
func TestFinishedJobReleasesRunState(t *testing.T) {
	gate := newBlockingCache()
	s, err := New(Config{MaxConcurrent: 1, SweepWorkers: 1, Cache: gate})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	j, err := s.Submit(testSpec(), -1)
	if err != nil {
		t.Fatal(err)
	}
	<-gate.entered // running, blocked mid-cell
	live, unsubscribe := j.Subscribe()
	close(gate.release)
	waitJob(t, j)
	for range live { // finish closes the live subscription
	}
	want := j.Status()
	if want.State != "done" {
		t.Fatalf("status = %+v, want done", want)
	}

	late, lateCancel := j.Subscribe()
	if _, open := <-late; open {
		t.Fatal("subscription to a finished job must start closed")
	}
	lateCancel()
	unsubscribe()
	for _, verb := range []func(string) error{s.Suspend, s.Cancel} {
		var it *InvalidTransitionError
		if err := verb(j.ID()); !errors.As(err, &it) {
			t.Fatalf("verb on a done job = %v, want *InvalidTransitionError", err)
		}
	}
	j.requestSuspend()
	j.requestCancel()
	if got := j.Status(); got != want {
		t.Fatalf("status after verbs = %+v, want %+v", got, want)
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.subs != nil || j.suspendCh != nil || j.cancelCh != nil {
		t.Fatalf("finished job keeps run state: subs %v, suspendCh %v, cancelCh %v", j.subs, j.suspendCh, j.cancelCh)
	}
}

func TestConcurrentOverlappingSubmissionsByteIdentical(t *testing.T) {
	s, err := New(Config{MaxConcurrent: 4, SweepWorkers: 2, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	specs := []*sweep.Spec{testSpec(), testSpec()}
	specs[1].Ts = 50 // a second distinct workload (different machine constants)
	const perSpec = 8
	type got struct {
		spec int
		csv  string
		err  error
	}
	out := make([]got, 2*perSpec)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			which := i % 2
			j, err := s.Submit(specs[which], -1)
			if err != nil {
				out[i] = got{err: err}
				return
			}
			<-j.Finished()
			res, jerr := j.Result()
			if jerr != nil {
				out[i] = got{err: jerr}
				return
			}
			out[i] = got{spec: which, csv: res.CSV()}
		}(i)
	}
	wg.Wait()
	s.Shutdown()
	var first [2]string
	for i, g := range out {
		if g.err != nil {
			t.Fatalf("client %d: %v", i, g.err)
		}
		if first[g.spec] == "" {
			first[g.spec] = g.csv
		} else if g.csv != first[g.spec] {
			t.Fatalf("client %d got different bytes for spec %d", i, g.spec)
		}
	}
	if first[0] == first[1] {
		t.Fatal("distinct seeds produced identical sweeps; the test is vacuous")
	}
	st := s.Stats()
	if st.Cache == nil || st.Cache.Hits == 0 {
		t.Fatalf("overlapping submissions produced no cache hits: %+v", st)
	}
	// Every job looks each of its 8 cells up exactly once. At most
	// MaxConcurrent jobs can race the same cold cell, so misses are
	// bounded by 4 concurrent duplicates of the 16 distinct cells.
	if got := st.Cache.Hits + st.Cache.Misses; got != 16*8 {
		t.Fatalf("lookup count = %d, want %d (%+v)", got, 16*8, st.Cache)
	}
	if st.Cache.Hits < 16*8-4*16 {
		t.Fatalf("too few hits: %+v", st.Cache)
	}
}
