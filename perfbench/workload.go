package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// workload is one closed-loop benchmark scenario.
type workload interface {
	// setup does everything before the first timed op: input
	// generation, server start, cache priming, reference computation
	// and one untimed warm-up op. It is called again after close, so
	// set-up time can be sampled several times in one run.
	setup(seed uint64) error
	// clients is the number of concurrent closed-loop callers, and
	// stride the number of ops a caller completes between checks of
	// the stop condition (a seeded request mix is consumed in whole
	// blocks).
	clients() int
	stride() int
	// op runs one operation for client c and returns its latency. The
	// output check runs after the timer stops; its failure is the
	// returned error. A non-nil tr records the op's spans under op ID
	// opID.
	op(c int, tr *tracer, opID int64) (time.Duration, error)
	// verify runs the checks deferred past the timed window.
	verify() error
	close()
}

// restarter is a workload whose ops share per-instance state that
// shifts their latencies together: fresh sweep servers in one process
// differ by about ±10% in median latency. Its timed window is split
// into sessions, and restart brings up a fresh instance between them,
// so one run averages over several instances.
type restarter interface {
	restart() error
}

// sessions is the number of instances a restarter's window is split
// into.
const sessions = 6

// sample is one completed op.
type sample struct {
	client int
	lat    time.Duration
	err    error
	traced bool
}

// closedLoop runs w's clients, each issuing its next op only after the
// previous one returned, until window has elapsed and at least minOps
// ops completed. With tr non-nil every other op of a client is traced,
// so traced and untraced latencies come from the same stretch of time.
func closedLoop(w workload, window time.Duration, minOps int, tr *tracer) []sample {
	deadline := time.Now().Add(window)
	var done, nextOp atomic.Int64
	per := make([][]sample, w.clients())
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if i%w.stride() == 0 && time.Now().After(deadline) && done.Load() >= int64(minOps) {
					return
				}
				var t *tracer
				if i%2 == 1 {
					t = tr
				}
				lat, err := w.op(c, t, nextOp.Add(1))
				per[c] = append(per[c], sample{client: c, lat: lat, err: err, traced: t != nil})
				done.Add(1)
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all
}

// throughput is the sum over clients of each client's ops per second of
// time spent inside ops; output checks, which run between ops, are not
// counted.
func throughput(samples []sample) float64 {
	ops := map[int]int{}
	busy := map[int]time.Duration{}
	for _, s := range samples {
		ops[s.client]++
		busy[s.client] += s.lat
	}
	total := 0.0
	for c, n := range ops {
		if busy[c] > 0 {
			total += float64(n) / busy[c].Seconds()
		}
	}
	return total
}
