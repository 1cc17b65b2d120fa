package main

import (
	"testing"
	"time"

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
