package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"matscale/internal/machine"
)

// httpServer spins up a Server behind httptest and tears both down
// with the test.
func httpServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown()
	})
	return s, ts
}

// submitHTTP posts a spec and returns the decoded acknowledgment.
func submitHTTP(t *testing.T, base string, body string) SubmitResponse {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %s: %s", resp.Status, b)
	}
	var ack SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	return ack
}

// awaitDone polls the status endpoint until the job is terminal.
func awaitDone(t *testing.T, base, id string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "done" || st.State == "failed" {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return Status{}
}

// fetchResult GETs a completed job's result bytes.
func fetchResult(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %s: %s", resp.Status, b)
	}
	return b
}

const specJSON = `{"spec":{"algorithms":["cannon","gk"],"machines":["custom"],"ts":17,"tw":3,"ps":[16,64],"ns":[16,32],"seed":1}}`

// TestHTTPCacheHitByteIdenticalToMiss is the differential proof the
// acceptance criteria name: the same canonical (spec, seed, backend)
// submitted twice — a cold miss and then a full cache hit — must
// produce byte-identical /result responses. Run under -race by the CI
// race job.
func TestHTTPCacheHitByteIdenticalToMiss(t *testing.T) {
	s, ts := httpServer(t, Config{SweepWorkers: 2})

	ack1 := submitHTTP(t, ts.URL, specJSON)
	if st := awaitDone(t, ts.URL, ack1.ID); st.State != "done" {
		t.Fatalf("job 1: %+v", st)
	}
	cold := fetchResult(t, ts.URL, ack1.ID)
	miss := s.Stats().Cache.Misses
	if miss == 0 {
		t.Fatal("cold run recorded no cache misses")
	}

	ack2 := submitHTTP(t, ts.URL, specJSON)
	if ack2.ID == ack1.ID {
		t.Fatal("second submission reused the job ID")
	}
	if st := awaitDone(t, ts.URL, ack2.ID); st.State != "done" {
		t.Fatalf("job 2: %+v", st)
	}
	hot := fetchResult(t, ts.URL, ack2.ID)

	if !bytes.Equal(cold, hot) {
		t.Fatalf("cache-hit response differs from cold-miss response:\ncold: %d bytes\nhot:  %d bytes", len(cold), len(hot))
	}
	st := s.Stats()
	if st.Cache.Hits != ack1.Cells {
		t.Fatalf("second run should hit every cell: %+v", st.Cache)
	}
	if st.Cache.Misses != miss {
		t.Fatalf("second run added misses: %+v", st.Cache)
	}
	// Refetching an already-served result is also stable.
	if again := fetchResult(t, ts.URL, ack1.ID); !bytes.Equal(cold, again) {
		t.Fatal("refetched result differs")
	}
}

// TestHTTPSubmitNonPowerOfTwoHypercube pins the submit path for a
// spec whose processor counts a hypercube preset cannot have: the job
// completes, and each such cell carries a rejection naming the preset
// and p, as a formulation's own rejection does.
func TestHTTPSubmitNonPowerOfTwoHypercube(t *testing.T) {
	_, ts := httpServer(t, Config{SweepWorkers: 2})
	ack := submitHTTP(t, ts.URL, `{"spec":{"algorithms":["cannon","gk"],"machines":["ncube2","custom"],"ts":17,"tw":3,"ps":[9,27],"ns":[18]}}`)
	if st := awaitDone(t, ts.URL, ack.ID); st.State != "done" {
		t.Fatalf("job: %+v", st)
	}
	var res struct {
		Cells []struct {
			Algorithm, Machine string
			P                  int
			Err                string `json:"error"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(fetchResult(t, ts.URL, ack.ID), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 8 {
		t.Fatalf("%d cells, want 8", len(res.Cells))
	}
	for _, c := range res.Cells {
		want := fmt.Sprintf("preset %q is a hypercube, and p = %d is not a power of two", c.Machine, c.P)
		if !strings.Contains(c.Err, want) {
			t.Errorf("%s/%s/p%d: error %q, want it to contain %q", c.Algorithm, c.Machine, c.P, c.Err, want)
		}
	}
}

// TestHTTPCacheSharedAcrossServers proves the cache key is canonical
// beyond one process's lifetime: a second server sharing the first's
// cache serves the identical bytes without recomputing.
func TestHTTPCacheSharedAcrossServers(t *testing.T) {
	shared := NewLRUCache(1024)
	_, ts1 := httpServer(t, Config{SweepWorkers: 2, Cache: shared})
	ack1 := submitHTTP(t, ts1.URL, specJSON)
	awaitDone(t, ts1.URL, ack1.ID)
	cold := fetchResult(t, ts1.URL, ack1.ID)

	before := shared.Stats()
	_, ts2 := httpServer(t, Config{SweepWorkers: 2, Cache: shared})
	ack2 := submitHTTP(t, ts2.URL, specJSON)
	awaitDone(t, ts2.URL, ack2.ID)
	hot := fetchResult(t, ts2.URL, ack2.ID)

	if !bytes.Equal(cold, hot) {
		t.Fatal("second server's cache-hit response differs")
	}
	after := shared.Stats()
	if after.Misses != before.Misses || after.Hits != before.Hits+ack1.Cells {
		t.Fatalf("second server recomputed: before %+v after %+v", before, after)
	}
}

func TestHTTPConcurrentClients(t *testing.T) {
	_, ts := httpServer(t, Config{MaxConcurrent: 4, SweepWorkers: 1, QueueDepth: 64})
	const clients = 12
	results := make([][]byte, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(specJSON))
			if err != nil {
				errs[i] = err
				return
			}
			var ack SubmitResponse
			err = json.NewDecoder(resp.Body).Decode(&ack)
			resp.Body.Close()
			if err != nil {
				errs[i] = err
				return
			}
			for {
				r, err := http.Get(ts.URL + "/v1/jobs/" + ack.ID)
				if err != nil {
					errs[i] = err
					return
				}
				var st Status
				err = json.NewDecoder(r.Body).Decode(&st)
				r.Body.Close()
				if err != nil {
					errs[i] = err
					return
				}
				if st.State == "failed" {
					errs[i] = fmt.Errorf("job failed: %s", st.Error)
					return
				}
				if st.State == "done" {
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
			r, err := http.Get(ts.URL + "/v1/jobs/" + ack.ID + "/result")
			if err != nil {
				errs[i] = err
				return
			}
			results[i], err = io.ReadAll(r.Body)
			r.Body.Close()
			if err != nil {
				errs[i] = err
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if !bytes.Equal(results[i], results[0]) {
			t.Fatalf("client %d received different bytes", i)
		}
	}
}

func TestHTTPSSEStreamsProgressAndDone(t *testing.T) {
	// Gate the first cell so the subscription provably attaches while
	// the job is still running; release once the stream is open.
	gate := newBlockingCache()
	_, ts := httpServer(t, Config{MaxConcurrent: 1, SweepWorkers: 1, Cache: gate})
	ack := submitHTTP(t, ts.URL, specJSON)
	<-gate.entered
	resp, err := http.Get(ts.URL + "/v1/jobs/" + ack.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	var events []string
	var lastData string
	sc := bufio.NewScanner(resp.Body)
	released := false
	for sc.Scan() { // the server closes the stream after the terminal event
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			events = append(events, strings.TrimPrefix(line, "event: "))
		}
		if strings.HasPrefix(line, "data: ") {
			lastData = strings.TrimPrefix(line, "data: ")
		}
		if !released && line == "" { // first frame arrived; let the sweep run
			released = true
			close(gate.release)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || events[len(events)-1] != "done" {
		t.Fatalf("events = %v, want trailing done", events)
	}
	if events[0] != "state" {
		t.Fatalf("stream must open with a state snapshot, got %v", events)
	}
	progress := 0
	for _, e := range events {
		if e == "progress" {
			progress++
		}
	}
	if progress == 0 {
		t.Fatalf("no progress events in %v", events)
	}
	var final Event
	if err := json.Unmarshal([]byte(lastData), &final); err != nil {
		t.Fatal(err)
	}
	if final.Done != ack.Cells || final.Total != ack.Cells {
		t.Fatalf("terminal event = %+v, want %d/%d cells", final, ack.Cells, ack.Cells)
	}
	// A late subscriber gets the terminal event immediately.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + ack.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	late, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !strings.Contains(string(late), "event: done") {
		t.Fatalf("late subscription missing terminal event:\n%s", late)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	srv, ts := httpServer(t, Config{SweepWorkers: 1})

	get := func(path string) (int, apiError) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ae apiError
		if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, ae
	}

	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result", "/v1/jobs/nope/events"} {
		if code, ae := get(path); code != http.StatusNotFound || ae.Kind != "unknown_job" {
			t.Fatalf("GET %s: %d %+v", path, code, ae)
		}
	}

	post := func(body string) (int, apiError) {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ae apiError
		if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, ae
	}

	for _, c := range []struct {
		name, body string
		code       int
		kind       string
	}{
		{"malformed body", `{not json`, http.StatusBadRequest, "bad_request"},
		{"oversize body", `{"spec":{"algorithms":["` + strings.Repeat("a", 2<<20) + `"]}}`, http.StatusBadRequest, "bad_request"},
		{"bad spec", `{"spec":{"algorithms":["nope"],"machines":["ncube2"],"ps":[16],"ns":[16]}}`, http.StatusBadRequest, "bad_spec"},
		{"backend field", `{"spec":{"algorithms":["gk"],"machines":["ncube2"],"ps":[16],"ns":[16]},"backend":"events"}`, http.StatusBadRequest, "bad_request"},
		{"valid spec", `{"spec":{"algorithms":["gk"],"machines":["ncube2"],"ps":[16],"ns":[16]}}`, http.StatusAccepted, ""},
	} {
		if code, ae := post(c.body); code != c.code || ae.Kind != c.kind {
			t.Fatalf("%s: %d %+v, want %d %q", c.name, code, ae, c.code, c.kind)
		}
	}

	// A connection that cannot stream gets a typed internal error.
	j, err := srv.Submit(testSpec(), -1)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	noFlush := struct{ http.ResponseWriter }{rec}
	srv.Handler().ServeHTTP(noFlush, httptest.NewRequest("GET", "/v1/jobs/"+j.ID()+"/events", nil))
	var ae apiError
	if err := json.NewDecoder(rec.Body).Decode(&ae); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusInternalServerError || ae.Kind != "internal" {
		t.Fatalf("unstreamable events: %d %+v", rec.Code, ae)
	}

	// Health and stats endpoints answer.
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()
	var st Stats
	r2, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if st.QueueDepth != DefaultQueueDepth {
		t.Fatalf("stats = %+v", st)
	}
}

// TestHTTPResultNotDone exercises the 409 path with a job stalled
// behind a gated cache.
func TestHTTPResultNotDone(t *testing.T) {
	gate := newBlockingCache()
	_, ts := httpServer(t, Config{MaxConcurrent: 1, SweepWorkers: 1, Cache: gate})
	ack := submitHTTP(t, ts.URL, specJSON)
	<-gate.entered
	resp, err := http.Get(ts.URL + "/v1/jobs/" + ack.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var ae apiError
	if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || ae.Kind != "not_done" || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("unfinished result: %d %+v Retry-After=%q", resp.StatusCode, ae, resp.Header.Get("Retry-After"))
	}
	close(gate.release)
	awaitDone(t, ts.URL, ack.ID)
}

// TestHTTPBackendSelection runs the same spec on a server configured
// with each engine and — backend equivalence — expects identical cells.
func TestHTTPBackendSelection(t *testing.T) {
	const body = `{"spec":{"algorithms":["cannon"],"machines":["ncube2"],"ps":[16],"ns":[16]}}`
	_, gts := httpServer(t, Config{SweepWorkers: 2, Backend: machine.BackendGoroutines})
	_, ets := httpServer(t, Config{SweepWorkers: 2})
	goro := submitHTTP(t, gts.URL, body)
	events := submitHTTP(t, ets.URL, body)
	if st := awaitDone(t, gts.URL, goro.ID); st.Backend != "goroutines" {
		t.Fatalf("goroutines server ran the job on %q", st.Backend)
	}
	if st := awaitDone(t, ets.URL, events.ID); st.Backend != "events" {
		t.Fatalf("default server ran the job on %q", st.Backend)
	}
	var a, b struct {
		Cells json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(fetchResult(t, gts.URL, goro.ID), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(fetchResult(t, ets.URL, events.ID), &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Cells, b.Cells) {
		t.Fatalf("backends disagree:\n%s\n%s", a.Cells, b.Cells)
	}
}
