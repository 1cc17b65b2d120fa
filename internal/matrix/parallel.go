package matrix

import (
	"fmt"
	"runtime"
	"sync"
)

// MulAddIntoParallel computes c += a·b on workers host goroutines
// (workers ≤ 0 uses GOMAXPROCS) and is bit-identical to MulAddInto —
// and therefore to the naive serial loop — at every worker count.
//
// The output is partitioned by PlanOwnership: ncBlock-aligned column
// panels when the output is wide enough for every worker to own at
// least one, whole-row bands otherwise, serial execution when neither
// yields more than one non-empty slab. Each slab is written by exactly
// one worker, and the only shared state is the read-only inputs plus
// the disjoint output slabs — no atomics, no locks in the hot loop,
// one WaitGroup join at the end.
//
// The bit-identity argument is deliberately strict: every worker runs
// the serial kernel's own entry (MulAddBlock → mulTile / mulScalar)
// over its slab, not a re-implementation of it, so every element runs
// the same machine code as in the serial traversal. Column slabs are
// panel-aligned, so their column tiles are the serial ones; a row band
// may regroup rows by four differently, but the zero-skip fallback is
// chosen per row and the 4-row and 1-row tiles issue the same
// instructions per element. Identical machine code over identical
// values gives identical bits — including NaN payloads, whose
// propagation through MULSD/ADDPD depends on operand order and
// therefore is NOT preserved between differently compiled but
// mathematically equal loops. Partitioning then reorders work only
// across output elements, never within one, so the result cannot
// depend on the worker count. Each worker's live panel of b (at most
// kcBlock·ncBlock·8 bytes = 256 KiB) is private to it by ownership
// and stays L2-resident exactly as in the serial kernel.
func MulAddIntoParallel(c, a, b *Dense, workers int) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("matrix: Mul inner dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: Mul output shape %dx%d, want %dx%d", c.Rows, c.Cols, a.Rows, b.Cols))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if a.Cols == 0 {
		return // k == 0: nothing to accumulate, spawn nothing
	}
	plan := PlanOwnership(a.Rows, b.Cols, workers)
	if plan.Serial() {
		MulAddInto(c, a, b)
		return
	}
	var wg sync.WaitGroup
	for _, s := range plan.Spans[1:] {
		wg.Add(1)
		go func(s OwnershipSpan) {
			defer wg.Done()
			mulOwnedSpan(c, a, b, plan.Axis, s)
		}(s)
	}
	// The calling goroutine works span 0 instead of idling at the join.
	mulOwnedSpan(c, a, b, plan.Axis, plan.Spans[0])
	wg.Wait()
}

// mulOwnedSpan runs one worker's slab of the output: MulAddBlock on
// the slab's block of c, in place. A row band reads its own rows of a
// and all of b, and bands write disjoint rows of c. A column slab is a
// whole number of ncBlock-aligned panels (PlanOwnership aligns them),
// so its panels and the column tiles inside them are exactly the ones
// the serial traversal produces; slabs write disjoint columns of c.
func mulOwnedSpan(c, a, b *Dense, axis OwnershipAxis, s OwnershipSpan) {
	if axis == OwnRows {
		MulAddBlock(c, s.Start, 0, a, s.Start, 0, b, 0, 0, s.End-s.Start, b.Cols, a.Cols)
		return
	}
	MulAddBlock(c, 0, s.Start, a, 0, 0, b, 0, s.Start, a.Rows, s.End-s.Start, a.Cols)
}
