package matrix

import (
	"testing"
	"testing/quick"
)

func TestPartitionAssembleRoundTrip(t *testing.T) {
	a := Random(12, 8, 50)
	g := Partition(a, 3, 4)
	if g.GridRows != 3 || g.GridCols != 4 {
		t.Fatalf("grid %dx%d, want 3x4", g.GridRows, g.GridCols)
	}
	if b := g.Block(1, 2); b.Rows != 4 || b.Cols != 2 {
		t.Fatalf("block shape %dx%d, want 4x2", b.Rows, b.Cols)
	}
	back := g.Assemble()
	if MaxAbsDiff(a, back) != 0 {
		t.Fatal("Partition/Assemble round trip lost data")
	}
}

func TestPartitionBlockContents(t *testing.T) {
	a := Random(6, 6, 51)
	g := Partition(a, 2, 2)
	want := a.Block(3, 0, 3, 3)
	if MaxAbsDiff(g.Block(1, 0), want) != 0 {
		t.Fatal("grid block (1,0) does not match matrix block")
	}
}

func TestPartitionUnevenPanics(t *testing.T) {
	defer expectPanic(t, "does not divide evenly")
	Partition(New(5, 4), 2, 2)
}

func TestPartitionBadGridPanics(t *testing.T) {
	defer expectPanic(t, "must be positive")
	Partition(New(4, 4), 0, 2)
}

func TestGridIndexPanics(t *testing.T) {
	g := Partition(New(4, 4), 2, 2)
	defer expectPanic(t, "out of range")
	g.Block(2, 0)
}

func TestAssembleRaggedPanics(t *testing.T) {
	g := Partition(New(4, 4), 2, 2)
	g.Blocks[3] = New(1, 1)
	defer expectPanic(t, "ragged block")
	g.Assemble()
}

func TestAssembleEmpty(t *testing.T) {
	g := &Grid{}
	m := g.Assemble()
	if m.Rows != 0 || m.Cols != 0 {
		t.Fatalf("empty grid assembled to %dx%d", m.Rows, m.Cols)
	}
}

func TestColumnBands(t *testing.T) {
	a := Random(4, 6, 60)
	bands := ColumnBands(a, 3)
	if len(bands) != 3 {
		t.Fatalf("len = %d, want 3", len(bands))
	}
	for i, b := range bands {
		if b.Rows != 4 || b.Cols != 2 {
			t.Fatalf("band %d shape %dx%d, want 4x2", i, b.Rows, b.Cols)
		}
	}
	if bands[1].At(2, 0) != a.At(2, 2) {
		t.Fatal("band content misaligned")
	}
}

func TestRowBands(t *testing.T) {
	a := Random(6, 4, 61)
	bands := RowBands(a, 2)
	if len(bands) != 2 || bands[0].Rows != 3 {
		t.Fatalf("unexpected bands %v", bands)
	}
	if bands[1].At(0, 1) != a.At(3, 1) {
		t.Fatal("row band content misaligned")
	}
}

func TestBandsPanics(t *testing.T) {
	t.Run("cols", func(t *testing.T) {
		defer expectPanic(t, "does not divide")
		ColumnBands(New(4, 5), 2)
	})
	t.Run("rows", func(t *testing.T) {
		defer expectPanic(t, "does not divide")
		RowBands(New(5, 4), 2)
	})
}

// spanCoverage asserts the spans tile [0, extent) contiguously with no
// empty span — the "every element written by exactly one worker, no
// idle goroutine" half of the ownership contract.
func spanCoverage(t *testing.T, plan OwnershipPlan, extent int) {
	t.Helper()
	at := 0
	for i, s := range plan.Spans {
		if s.Start != at {
			t.Fatalf("span %d starts at %d, want %d (spans %v)", i, s.Start, at, plan.Spans)
		}
		if s.End <= s.Start {
			t.Fatalf("span %d is empty: [%d, %d)", i, s.Start, s.End)
		}
		at = s.End
	}
	if at != extent {
		t.Fatalf("spans cover [0, %d), want [0, %d)", at, extent)
	}
}

// TestPlanOwnershipSerialDegradation: zero-dimension outputs, a single
// worker, and worker counts the shape cannot feed all degrade to the
// serial plan, so the parallel kernel spawns no goroutine at all.
func TestPlanOwnershipSerialDegradation(t *testing.T) {
	for _, c := range []struct {
		name                string
		rows, cols, workers int
	}{
		{"zero rows", 0, 64, 8},
		{"zero cols", 64, 0, 8},
		{"zero both", 0, 0, 4},
		{"one worker", 512, 512, 1},
		{"zero workers", 512, 512, 0},
		{"negative workers", 512, 512, -2},
		{"single row single panel", 1, 1, 8},
	} {
		if plan := PlanOwnership(c.rows, c.cols, c.workers); !plan.Serial() {
			t.Errorf("%s: PlanOwnership(%d, %d, %d) = %+v, want serial",
				c.name, c.rows, c.cols, c.workers, plan)
		}
	}
}

// TestPlanOwnershipColumnPanels: wide outputs split into ncBlock-
// aligned column panels, one contiguous non-empty range per worker.
func TestPlanOwnershipColumnPanels(t *testing.T) {
	for _, c := range []struct{ rows, cols, workers int }{
		{1, 512, 2}, {7, 513, 2}, {3, 1024, 4}, {100, 1100, 4}, {2, 2048, 8}, {5, 4097, 8},
	} {
		plan := PlanOwnership(c.rows, c.cols, c.workers)
		if plan.Axis != OwnCols {
			t.Fatalf("PlanOwnership(%d, %d, %d).Axis = %v, want cols", c.rows, c.cols, c.workers, plan.Axis)
		}
		if len(plan.Spans) != c.workers {
			t.Fatalf("PlanOwnership(%d, %d, %d) has %d spans, want %d",
				c.rows, c.cols, c.workers, len(plan.Spans), c.workers)
		}
		spanCoverage(t, plan, c.cols)
		for i, s := range plan.Spans {
			if s.Start%256 != 0 {
				t.Errorf("span %d start %d is not ncBlock-aligned", i, s.Start)
			}
		}
	}
}

// TestPlanOwnershipRowBandFallback: outputs too narrow for a full
// panel per worker fall back to whole-row bands, and worker counts
// exceeding the row count clamp so no span is empty.
func TestPlanOwnershipRowBandFallback(t *testing.T) {
	for _, c := range []struct{ rows, cols, workers, wantSpans int }{
		{64, 64, 4, 4},   // narrow output → row bands
		{512, 511, 2, 2}, // one column short of two panels
		{3, 300, 8, 3},   // workers > rows: clamp to 3 bands
		{1, 128, 8, 0},   // clamps to one row → serial, no spans
		{100, 255, 100, 100},
	} {
		plan := PlanOwnership(c.rows, c.cols, c.workers)
		if c.wantSpans == 0 {
			if !plan.Serial() {
				t.Fatalf("PlanOwnership(%d, %d, %d) = %+v, want serial", c.rows, c.cols, c.workers, plan)
			}
			continue
		}
		if plan.Axis != OwnRows {
			t.Fatalf("PlanOwnership(%d, %d, %d).Axis = %v, want rows", c.rows, c.cols, c.workers, plan.Axis)
		}
		if len(plan.Spans) != c.wantSpans {
			t.Fatalf("PlanOwnership(%d, %d, %d) has %d spans, want %d",
				c.rows, c.cols, c.workers, len(plan.Spans), c.wantSpans)
		}
		spanCoverage(t, plan, c.rows)
	}
}

// TestPlanOwnershipDeterministic: the plan is a pure function of the
// shape and worker count — repeated calls agree exactly.
func TestPlanOwnershipDeterministic(t *testing.T) {
	f := func(rows, cols, workers uint8) bool {
		p1 := PlanOwnership(int(rows), int(cols)*17, int(workers))
		p2 := PlanOwnership(int(rows), int(cols)*17, int(workers))
		if p1.Axis != p2.Axis || len(p1.Spans) != len(p2.Spans) {
			return false
		}
		for i := range p1.Spans {
			if p1.Spans[i] != p2.Spans[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the outer-product decomposition used by Berntsen's algorithm
// is exact: C = Σ_i A_coli · B_rowi.
func TestQuickOuterProductDecomposition(t *testing.T) {
	f := func(seed1, seed2 uint64) bool {
		a := RandomInts(6, 6, seed1)
		b := RandomInts(6, 6, seed2)
		want := Mul(a, b)
		acc := New(6, 6)
		ab := ColumnBands(a, 3)
		bb := RowBands(b, 3)
		for i := range ab {
			acc.AddInPlace(Mul(ab[i], bb[i]))
		}
		return MaxAbsDiff(acc, want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: block matrix multiply over a partition grid equals the flat
// product — the foundational identity behind every algorithm in the
// paper.
func TestQuickBlockMultiplyIdentity(t *testing.T) {
	f := func(seed1, seed2 uint64) bool {
		const n, q = 8, 4
		a := RandomInts(n, n, seed1)
		b := RandomInts(n, n, seed2)
		ga := Partition(a, q, q)
		gb := Partition(b, q, q)
		gc := Partition(New(n, n), q, q)
		for i := 0; i < q; i++ {
			for j := 0; j < q; j++ {
				for k := 0; k < q; k++ {
					MulAddInto(gc.Block(i, j), ga.Block(i, k), gb.Block(k, j))
				}
			}
		}
		return MaxAbsDiff(gc.Assemble(), Mul(a, b)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
