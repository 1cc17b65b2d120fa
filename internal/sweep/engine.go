// Package sweep is the parallel experiment engine: it fans independent
// simulation cells out over a pool of host worker goroutines and merges
// their results deterministically, so a whole experiment grid — every
// figure of the paper is one — runs as fast as the host machine allows
// while emitting byte-identical output for a fixed specification
// regardless of the worker count.
//
// The package has two layers:
//
//   - ForEach, the scheduling primitive: a deterministic parallel loop.
//     Results land in caller-owned slots indexed by iteration, never in
//     shared accumulators, so completion order cannot leak into output.
//     The experiment drivers in internal/experiments run their inner
//     loops (efficiency curves, prediction grids, isoefficiency
//     validations, report sections) through it.
//   - Spec/Run, the declarative grid layer behind the public
//     matscale.Sweep API: a (formulations × machines × n × p × fault
//     scenarios) grid expanded to sorted cells, executed over the pool,
//     with closed-form model predictions memoized across cells.
//
// Parallelism here is host-side only: each cell still runs on the
// virtual-time simulator with the cell's own machine, and no measured
// quantity depends on how many host workers carried the load. See
// docs/SWEEP.md for the determinism guarantee in full.
package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: n if positive, otherwise
// the number of host CPUs.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// ForEach runs fn(0) … fn(n-1) on a pool of workers and returns the
// error of the lowest failing index (nil when every call succeeds).
// workers ≤ 0 uses all host CPUs. The calling goroutine is one of the
// workers: only workers−1 goroutines start, and each worker takes the
// next index from a shared counter, so workers == 1 starts none and
// runs the indexes in order on the caller.
//
// Determinism contract: every index runs exactly once and all indexes
// run even when some fail, so a deterministic fn yields identical
// results and an identical returned error for every worker count.
// Callers must write results into per-index slots (out[i] = …), not
// append to shared slices. A panic in fn is recovered and reported as
// the index's error.
func ForEach(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			errs[i] = call(fn, i)
		}
	}
	var wg sync.WaitGroup
	for range min(Workers(workers), n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return firstError(errs)
}

// call invokes fn(i), converting a panic into an error so one bad cell
// cannot take down the whole pool (mirroring how the simulator converts
// processor panics).
func call(fn func(int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sweep: cell %d panicked: %v", i, r)
		}
	}()
	return fn(i)
}

// firstError returns the error at the lowest index, making the
// aggregate error independent of completion order.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
