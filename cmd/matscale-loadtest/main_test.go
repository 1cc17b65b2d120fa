package main

import (
	"testing"
	"time"

	"matscale/internal/machine"
	"matscale/internal/server"
)

// TestRunInProcess drives a small load through the in-process server
// on the /v1/jobs routes: SSE watchers and polling clients both finish
// without errors, every shared-pool client gets the same bytes, and the
// shared pool produces cache hits.
func TestRunInProcess(t *testing.T) {
	rep, err := run(options{
		clients:     8,
		overlap:     0.5,
		pool:        2,
		concurrency: 1, // jobs run one at a time, so a repeated spec hits the cache
		jobs:        1,
		cacheCells:  server.DefaultCacheCells,
		watchers:    2,
		poll:        time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d: %v", rep.Errors, rep.errSamples)
	}
	if rep.Sweeps != 8 {
		t.Fatalf("sweeps = %d, want 8", rep.Sweeps)
	}
	if rep.HitRate <= 0 {
		t.Fatalf("cache hit rate = %v, want > 0", rep.HitRate)
	}
}

// TestDefaultLoadFitsServerCaps pins the server's retention caps to the
// traffic they are sized against. The distinct canonical cells the
// default load test submits fit in DefaultCacheCells, so it never
// evicts a cell; its clients, one job each, fit in DefaultRetainJobs,
// so no finished job is evicted before its client fetches the result.
func TestDefaultLoadFitsServerCaps(t *testing.T) {
	o := parseOptions(nil)
	keys := map[string]bool{}
	for i := 0; i < o.clients; i++ {
		s := workloadSpec(workloadOf(i, o))
		cells, err := s.Cells()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			keys[s.CellKey(c, machine.BackendEvents)] = true
		}
	}
	if len(keys) != 4032 {
		t.Errorf("default load test touches %d distinct cells, want 4032 (504 specs of 8)", len(keys))
	}
	if len(keys) > server.DefaultCacheCells {
		t.Errorf("default load test touches %d distinct cells, more than DefaultCacheCells = %d", len(keys), server.DefaultCacheCells)
	}
	if o.clients > server.DefaultRetainJobs {
		t.Errorf("default load test has %d clients, more than DefaultRetainJobs = %d", o.clients, server.DefaultRetainJobs)
	}
}
