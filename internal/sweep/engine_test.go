package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForEachRunsEveryIndexAtEveryWorkerCount(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 16} {
		n := 37
		out := make([]int, n)
		if err := ForEach(workers, n, func(i int) error {
			out[i] = i * i
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestForEachZeroAndNegativeCount(t *testing.T) {
	called := false
	if err := ForEach(4, 0, func(int) error { called = true; return nil }); err != nil || called {
		t.Fatalf("n=0: err=%v called=%v", err, called)
	}
	if err := ForEach(4, -3, func(int) error { called = true; return nil }); err != nil || called {
		t.Fatalf("n<0: err=%v called=%v", err, called)
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	wantErr := func(i int) error { return fmt.Errorf("cell %d failed", i) }
	for _, workers := range []int{1, 8} {
		err := ForEach(workers, 20, func(i int) error {
			if i == 7 || i == 13 {
				return wantErr(i)
			}
			return nil
		})
		if err == nil || err.Error() != "cell 7 failed" {
			t.Fatalf("workers=%d: err = %v, want lowest-index error", workers, err)
		}
	}
}

func TestForEachRunsAllIndexesDespiteErrors(t *testing.T) {
	n := 10
	ran := make([]bool, n)
	err := ForEach(4, n, func(i int) error {
		ran[i] = true
		if i%2 == 0 {
			return errors.New("even")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	for i, r := range ran {
		if !r {
			t.Fatalf("index %d skipped after another cell errored", i)
		}
	}
}

func TestForEachRecoversPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ForEach(workers, 5, func(i int) error {
			if i == 2 {
				panic("boom")
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "cell 2 panicked: boom") {
			t.Fatalf("workers=%d: err = %v, want recovered panic", workers, err)
		}
	}
}

func TestWorkersDefaultsToCPUs(t *testing.T) {
	if Workers(0) < 1 || Workers(-5) < 1 {
		t.Fatal("Workers must resolve to at least one")
	}
	if Workers(7) != 7 {
		t.Fatalf("Workers(7) = %d", Workers(7))
	}
}

// TestForEachRunsEachIndexOnce counts every call at each worker count:
// the shared counter must hand out each index exactly once.
func TestForEachRunsEachIndexOnce(t *testing.T) {
	const n = 1000
	for _, workers := range []int{1, 2, 3, 8} {
		calls := make([]atomic.Int32, n)
		if err := ForEach(workers, n, func(i int) error {
			calls[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range calls {
			if c := calls[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// goid returns the ID of the calling goroutine, read from the header
// of its stack trace ("goroutine 7 [running]:").
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	id, _, _ := strings.Cut(strings.TrimPrefix(string(buf), "goroutine "), " ")
	return id
}

// TestForEachSerialRunsInOrderOnCaller pins workers == 1: the indexes
// run in order on the calling goroutine.
func TestForEachSerialRunsInOrderOnCaller(t *testing.T) {
	caller := goid()
	var order []int
	if err := ForEach(1, 20, func(i int) error {
		if g := goid(); g != caller {
			return fmt.Errorf("index %d ran on goroutine %s, want the caller's %s", i, g, caller)
		}
		order = append(order, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("order = %v, want 0…19", order)
		}
	}
}

// TestForEachCallerIsAWorker holds every worker inside fn at once, so
// each index runs on a different worker: one of them must be the
// calling goroutine.
func TestForEachCallerIsAWorker(t *testing.T) {
	for _, workers := range []int{2, 3, 4} {
		caller := goid()
		var started sync.WaitGroup
		started.Add(workers)
		ran := make([]string, workers)
		if err := ForEach(workers, workers, func(i int) error {
			ran[i] = goid()
			started.Done()
			started.Wait() // every worker is inside fn
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		distinct := map[string]bool{}
		for _, g := range ran {
			distinct[g] = true
		}
		if len(distinct) != workers || !distinct[caller] {
			t.Errorf("workers=%d: indexes ran on goroutines %v, want %d distinct ones including the caller's %s",
				workers, ran, workers, caller)
		}
	}
}

// TestForEachNested runs a pool inside every index of a pool, both at
// two workers, as the experiment drivers do: every inner index must
// run exactly once and the pools must not deadlock.
func TestForEachNested(t *testing.T) {
	const outer, inner = 6, 9
	var calls [outer][inner]atomic.Int32
	if err := ForEach(2, outer, func(i int) error {
		return ForEach(2, inner, func(j int) error {
			calls[i][j].Add(1)
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	for i := range calls {
		for j := range calls[i] {
			if c := calls[i][j].Load(); c != 1 {
				t.Fatalf("index (%d, %d) ran %d times", i, j, c)
			}
		}
	}
}
