package matrix

import "fmt"

// Grid is a two-dimensional arrangement of sub-blocks of a matrix, as
// distributed over a √p × √p logical processor mesh by the algorithms in
// the paper (Sections 4.1–4.3) or over the faces of the p^(1/3)-sided
// processor cube by the DNS and GK algorithms (Sections 4.5–4.6).
type Grid struct {
	GridRows, GridCols int
	Blocks             []*Dense // row-major over the grid
}

// Partition splits m into gr × gc equally sized blocks. Both dimensions
// must divide evenly, mirroring the paper's assumption that √p divides n.
func Partition(m *Dense, gr, gc int) *Grid {
	if gr <= 0 || gc <= 0 {
		panic(fmt.Sprintf("matrix: Partition grid %dx%d must be positive", gr, gc))
	}
	if m.Rows%gr != 0 || m.Cols%gc != 0 {
		panic(fmt.Sprintf("matrix: Partition %dx%d into %dx%d grid does not divide evenly", m.Rows, m.Cols, gr, gc))
	}
	h, w := m.Rows/gr, m.Cols/gc
	g := &Grid{GridRows: gr, GridCols: gc, Blocks: make([]*Dense, gr*gc)}
	for i := 0; i < gr; i++ {
		for j := 0; j < gc; j++ {
			g.Blocks[i*gc+j] = m.Block(i*h, j*w, h, w)
		}
	}
	return g
}

// Block returns the sub-block at grid position (i, j).
func (g *Grid) Block(i, j int) *Dense {
	if i < 0 || i >= g.GridRows || j < 0 || j >= g.GridCols {
		panic(fmt.Sprintf("matrix: grid index (%d,%d) out of range %dx%d", i, j, g.GridRows, g.GridCols))
	}
	return g.Blocks[i*g.GridCols+j]
}

// Assemble reconstitutes the full matrix from the grid of blocks.
func (g *Grid) Assemble() *Dense {
	if len(g.Blocks) == 0 {
		return New(0, 0)
	}
	h, w := g.Blocks[0].Rows, g.Blocks[0].Cols
	m := New(g.GridRows*h, g.GridCols*w)
	for i := 0; i < g.GridRows; i++ {
		for j := 0; j < g.GridCols; j++ {
			b := g.Block(i, j)
			if b.Rows != h || b.Cols != w {
				panic(fmt.Sprintf("matrix: Assemble ragged block (%d,%d): %dx%d, want %dx%d", i, j, b.Rows, b.Cols, h, w))
			}
			m.SetBlock(i*h, j*w, b)
		}
	}
	return m
}

// OwnershipAxis selects the dimension along which a parallel host
// kernel partitions the output matrix among workers.
type OwnershipAxis int

const (
	// OwnCols partitions the output into ncBlock-aligned column
	// panels: each worker owns a contiguous range of whole panels and
	// walks them in the serial kernel's panel order.
	OwnCols OwnershipAxis = iota
	// OwnRows partitions the output into whole-row bands — the
	// fallback when the output is too narrow to give every worker at
	// least one full column panel.
	OwnRows
)

// String names the axis for test failures and diagnostics.
func (a OwnershipAxis) String() string {
	if a == OwnCols {
		return "cols"
	}
	return "rows"
}

// OwnershipSpan is one worker's slab of the output: the half-open
// column range [Start, End) under OwnCols, or the half-open row range
// under OwnRows. Spans never overlap, so every output element is
// written by exactly one worker.
type OwnershipSpan struct{ Start, End int }

// OwnershipPlan is the static partition of an output matrix among host
// workers. It is a pure function of the output shape and the requested
// worker count — never of scheduling, load, or timing — which is what
// makes the parallel kernel's result reproducible at any worker count:
// the same element is always computed by the same (deterministic)
// accumulation loop, just possibly on a different goroutine.
type OwnershipPlan struct {
	Axis  OwnershipAxis
	Spans []OwnershipSpan // one per worker; every span is non-empty
}

// Serial reports whether the plan degenerates to the serial kernel —
// at most one worker owns the whole output, so the caller should run
// inline without spawning any goroutine.
func (p OwnershipPlan) Serial() bool { return len(p.Spans) <= 1 }

// PlanOwnership builds the ownership map for a rows×cols output and
// the requested worker count. The plan prefers ncBlock-aligned column
// panels, because a worker then reuses the serial kernel's panel
// traversal (and its L2-resident b panel) unchanged; when the output
// is too narrow for every worker to own at least one full panel
// (cols < workers·ncBlock) it falls back to whole-row bands. Worker
// counts exceeding the available panels or rows are clamped, so no
// plan ever contains an empty span and the parallel kernel never
// spawns an idle goroutine. Zero-dimension outputs and workers ≤ 1
// yield a serial plan.
func PlanOwnership(rows, cols, workers int) OwnershipPlan {
	if rows <= 0 || cols <= 0 || workers <= 1 {
		return OwnershipPlan{Axis: OwnCols}
	}
	if cols >= workers*ncBlock {
		// Column-panel mode: distribute whole ncBlock-wide panels
		// contiguously. cols ≥ workers·ncBlock guarantees panels ≥
		// workers, so every worker owns at least one panel.
		panels := (cols + ncBlock - 1) / ncBlock
		plan := OwnershipPlan{Axis: OwnCols, Spans: make([]OwnershipSpan, workers)}
		for w := 0; w < workers; w++ {
			p0, p1 := w*panels/workers, (w+1)*panels/workers
			plan.Spans[w] = OwnershipSpan{Start: p0 * ncBlock, End: min(p1*ncBlock, cols)}
		}
		return plan
	}
	// Row-band mode: contiguous whole-row bands, workers clamped to
	// the row count so every band holds at least one row.
	if workers > rows {
		workers = rows
	}
	if workers <= 1 {
		return OwnershipPlan{Axis: OwnRows}
	}
	plan := OwnershipPlan{Axis: OwnRows, Spans: make([]OwnershipSpan, workers)}
	for w := 0; w < workers; w++ {
		plan.Spans[w] = OwnershipSpan{Start: w * rows / workers, End: (w + 1) * rows / workers}
	}
	return plan
}

// ColumnBands splits m into s vertical bands of equal width
// (Berntsen's algorithm splits A this way, Section 4.4).
func ColumnBands(m *Dense, s int) []*Dense {
	if s <= 0 || m.Cols%s != 0 {
		panic(fmt.Sprintf("matrix: ColumnBands(%d) does not divide %d columns", s, m.Cols))
	}
	w := m.Cols / s
	out := make([]*Dense, s)
	for i := range out {
		out[i] = m.Block(0, i*w, m.Rows, w)
	}
	return out
}

// RowBands splits m into s horizontal bands of equal height
// (Berntsen's algorithm splits B this way, Section 4.4).
func RowBands(m *Dense, s int) []*Dense {
	if s <= 0 || m.Rows%s != 0 {
		panic(fmt.Sprintf("matrix: RowBands(%d) does not divide %d rows", s, m.Rows))
	}
	h := m.Rows / s
	out := make([]*Dense, s)
	for i := range out {
		out[i] = m.Block(i*h, 0, h, m.Cols)
	}
	return out
}
