package topology

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestLog2(t *testing.T) {
	cases := []struct {
		p  int
		k  int
		ok bool
	}{
		{1, 0, true}, {2, 1, true}, {4, 2, true}, {1024, 10, true},
		{0, 0, false}, {-4, 0, false}, {3, 0, false}, {12, 0, false},
	}
	for _, c := range cases {
		k, ok := Log2(c.p)
		if ok != c.ok || (ok && k != c.k) {
			t.Errorf("Log2(%d) = (%d,%v), want (%d,%v)", c.p, k, ok, c.k, c.ok)
		}
	}
}

func TestHypercubeBasics(t *testing.T) {
	h := NewHypercube(16)
	if h.Size() != 16 || h.Dim != 4 {
		t.Fatalf("size=%d dim=%d, want 16/4", h.Size(), h.Dim)
	}
	if d := h.Distance(0b0000, 0b1011); d != 3 {
		t.Fatalf("Distance = %d, want 3", d)
	}
	if d := h.Distance(7, 7); d != 0 {
		t.Fatalf("self distance = %d, want 0", d)
	}
	nbrs := h.Neighbors(5)
	if len(nbrs) != 4 {
		t.Fatalf("neighbors = %v, want 4 entries", nbrs)
	}
	for _, n := range nbrs {
		if h.Distance(5, n) != 1 {
			t.Fatalf("neighbor %d of 5 at distance %d", n, h.Distance(5, n))
		}
	}
}

func TestHypercubePanics(t *testing.T) {
	t.Run("size", func(t *testing.T) {
		defer expectPanic(t, "power of two")
		NewHypercube(6)
	})
	t.Run("rank", func(t *testing.T) {
		h := NewHypercube(4)
		defer expectPanic(t, "out of range")
		h.Distance(0, 4)
	})
}

func TestFullyConnected(t *testing.T) {
	f := NewFullyConnected(5)
	if f.Size() != 5 {
		t.Fatalf("size = %d", f.Size())
	}
	if f.Distance(1, 4) != 1 || f.Distance(2, 2) != 0 {
		t.Fatal("fully connected distances wrong")
	}
	if n := f.Neighbors(2); len(n) != 4 {
		t.Fatalf("neighbors = %v", n)
	}
	defer expectPanic(t, "must be positive")
	NewFullyConnected(0)
}

func TestTorusCoordsRoundTrip(t *testing.T) {
	tr := NewTorus2D(3, 5)
	for r := 0; r < tr.Size(); r++ {
		i, j := tr.Coords(r)
		if tr.RankAt(i, j) != r {
			t.Fatalf("coords round trip failed for rank %d", r)
		}
	}
}

func TestTorusWrap(t *testing.T) {
	tr := NewTorus2D(4, 4)
	if tr.RankAt(-1, 0) != tr.RankAt(3, 0) {
		t.Fatal("negative row did not wrap")
	}
	if tr.RankAt(0, 4) != tr.RankAt(0, 0) {
		t.Fatal("overflow column did not wrap")
	}
	if tr.Left(tr.RankAt(2, 0)) != tr.RankAt(2, 3) {
		t.Fatal("Left at column 0 did not wrap")
	}
	if tr.Up(tr.RankAt(0, 2)) != tr.RankAt(3, 2) {
		t.Fatal("Up at row 0 did not wrap")
	}
	if tr.Right(tr.RankAt(1, 3)) != tr.RankAt(1, 0) {
		t.Fatal("Right at last column did not wrap")
	}
	if tr.Down(tr.RankAt(3, 1)) != tr.RankAt(0, 1) {
		t.Fatal("Down at last row did not wrap")
	}
}

func TestTorusDistance(t *testing.T) {
	tr := NewTorus2D(8, 8)
	if d := tr.Distance(tr.RankAt(0, 0), tr.RankAt(7, 7)); d != 2 {
		t.Fatalf("wraparound distance = %d, want 2", d)
	}
	if d := tr.Distance(tr.RankAt(0, 0), tr.RankAt(4, 4)); d != 8 {
		t.Fatalf("antipodal distance = %d, want 8", d)
	}
}

func TestTorusNeighbors(t *testing.T) {
	tr := NewTorus2D(4, 4)
	n := tr.Neighbors(tr.RankAt(1, 1))
	if len(n) != 4 {
		t.Fatalf("interior torus node has %d neighbors, want 4", len(n))
	}
	// Degenerate 1×2 torus: left and right neighbor coincide.
	small := NewTorus2D(1, 2)
	if n := small.Neighbors(0); len(n) != 1 {
		t.Fatalf("1x2 torus neighbors = %v, want one", n)
	}
}

func TestTorusRowColRanks(t *testing.T) {
	tr := NewTorus2D(3, 4)
	row := tr.RowRanks(1)
	if len(row) != 4 || row[0] != 4 || row[3] != 7 {
		t.Fatalf("RowRanks(1) = %v", row)
	}
	col := tr.ColRanks(2)
	if len(col) != 3 || col[0] != 2 || col[2] != 10 {
		t.Fatalf("ColRanks(2) = %v", col)
	}
}

func TestTorusPanics(t *testing.T) {
	t.Run("new", func(t *testing.T) {
		defer expectPanic(t, "must be positive")
		NewTorus2D(0, 3)
	})
	t.Run("square", func(t *testing.T) {
		defer expectPanic(t, "square mesh")
		NewSquareTorus(12)
	})
	t.Run("row", func(t *testing.T) {
		tr := NewTorus2D(2, 2)
		defer expectPanic(t, "out of range")
		tr.RowRanks(2)
	})
	t.Run("col", func(t *testing.T) {
		tr := NewTorus2D(2, 2)
		defer expectPanic(t, "out of range")
		tr.ColRanks(-1)
	})
}

func TestSquareTorus(t *testing.T) {
	tr := NewSquareTorus(16)
	if tr.R != 4 || tr.C != 4 {
		t.Fatalf("square torus %dx%d, want 4x4", tr.R, tr.C)
	}
}

func TestGrid3DCoordsRoundTrip(t *testing.T) {
	g := NewGrid3D(4)
	if g.Size() != 64 {
		t.Fatalf("size = %d, want 64", g.Size())
	}
	for r := 0; r < g.Size(); r++ {
		i, j, k := g.Coords(r)
		if g.RankOf(i, j, k) != r {
			t.Fatalf("coords round trip failed for rank %d", r)
		}
	}
	// The paper's numbering: r = i·q² + j·q + k.
	if g.RankOf(1, 2, 3) != 16+8+3 {
		t.Fatalf("RankOf(1,2,3) = %d, want 27", g.RankOf(1, 2, 3))
	}
}

func TestGrid3DHypercubeDistance(t *testing.T) {
	g := NewGrid3D(4) // q=4 is a power of two: hypercube of dim 6
	a := g.RankOf(0, 0, 0)
	b := g.RankOf(3, 0, 0)
	if d := g.Distance(a, b); d != 2 {
		t.Fatalf("distance (0,0,0)->(3,0,0) = %d, want 2 (Hamming of 3)", d)
	}
	h := NewHypercube(64)
	for trial := 0; trial < 100; trial++ {
		x, y := (trial*37)%64, (trial*53)%64
		if g.Distance(x, y) != h.Distance(x, y) {
			t.Fatalf("grid3d distance disagrees with hypercube for %d,%d", x, y)
		}
	}
}

func TestGrid3DNonPow2Distance(t *testing.T) {
	g := NewGrid3D(3)
	a := g.RankOf(0, 0, 0)
	b := g.RankOf(2, 2, 2)
	if d := g.Distance(a, b); d != 3 {
		t.Fatalf("wraparound distance = %d, want 3", d)
	}
}

func TestGrid3DNeighbors(t *testing.T) {
	g := NewGrid3D(4)
	n := g.Neighbors(g.RankOf(1, 2, 3))
	if len(n) != 6 { // 3 fields × 2 bits
		t.Fatalf("pow2 grid neighbors = %d, want 6", len(n))
	}
	for _, x := range n {
		if g.Distance(g.RankOf(1, 2, 3), x) != 1 {
			t.Fatalf("neighbor %d not at distance 1", x)
		}
	}
	g3 := NewGrid3D(3)
	if n := g3.Neighbors(g3.RankOf(1, 1, 1)); len(n) != 6 {
		t.Fatalf("grid3 neighbors = %d, want 6", len(n))
	}
}

func TestGrid3DAxisLine(t *testing.T) {
	g := NewGrid3D(4)
	line := g.AxisLine(2, 1, 2) // i=1, j=2, k varies
	if len(line) != 4 {
		t.Fatalf("line length %d", len(line))
	}
	for k, r := range line {
		if r != g.RankOf(1, 2, k) {
			t.Fatalf("axis line entry %d = %d", k, r)
		}
	}
	iline := g.AxisLine(0, 2, 3) // i varies, j=2, k=3
	if iline[1] != g.RankOf(1, 2, 3) {
		t.Fatal("axis 0 line wrong")
	}
	jline := g.AxisLine(1, 1, 0) // i=1, j varies, k=0
	if jline[3] != g.RankOf(1, 3, 0) {
		t.Fatal("axis 1 line wrong")
	}
}

func TestGrid3DPanics(t *testing.T) {
	t.Run("side", func(t *testing.T) {
		defer expectPanic(t, "must be positive")
		NewGrid3D(0)
	})
	t.Run("axis", func(t *testing.T) {
		g := NewGrid3D(2)
		defer expectPanic(t, "axis")
		g.AxisLine(3, 0, 0)
	})
	t.Run("coord", func(t *testing.T) {
		g := NewGrid3D(2)
		defer expectPanic(t, "out of range")
		g.RankOf(2, 0, 0)
	})
}

func TestIntSqrt(t *testing.T) {
	for n := 0; n < 10000; n++ {
		s := IntSqrt(n)
		if s*s > n || (s+1)*(s+1) <= n {
			t.Fatalf("IntSqrt(%d) = %d", n, s)
		}
	}
	if IntSqrt(1<<40) != 1<<20 {
		t.Fatal("IntSqrt large value wrong")
	}
}

func TestIntCbrt(t *testing.T) {
	for n := 0; n < 5000; n++ {
		c := IntCbrt(n)
		if c*c*c > n || (c+1)*(c+1)*(c+1) <= n {
			t.Fatalf("IntCbrt(%d) = %d", n, c)
		}
	}
}

// Property: hypercube distance is a metric (symmetry + triangle
// inequality) and bounded by the dimension.
func TestQuickHypercubeMetric(t *testing.T) {
	h := NewHypercube(64)
	f := func(a, b, c uint8) bool {
		x, y, z := int(a)%64, int(b)%64, int(c)%64
		dxy, dyz, dxz := h.Distance(x, y), h.Distance(y, z), h.Distance(x, z)
		return dxy == h.Distance(y, x) && dxz <= dxy+dyz && dxy <= h.Dim
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every Neighbors result is symmetric (a lists b iff b lists
// a) across all topologies.
func TestQuickNeighborSymmetry(t *testing.T) {
	tops := []Topology{NewHypercube(16), NewTorus2D(4, 4), NewGrid3D(2), NewFullyConnected(7), NewGrid3D(3)}
	for _, tp := range tops {
		for a := 0; a < tp.Size(); a++ {
			for _, b := range tp.Neighbors(a) {
				if !contains(tp.Neighbors(b), a) {
					t.Fatalf("%s: %d lists %d but not vice versa", tp.Name(), a, b)
				}
			}
		}
	}
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func expectPanic(t *testing.T, substr string) {
	t.Helper()
	r := recover()
	if r == nil {
		t.Fatalf("expected panic containing %q, got none", substr)
	}
	msg, ok := r.(string)
	if !ok {
		t.Fatalf("panic value %v (%T) is not a string", r, r)
	}
	if !strings.Contains(msg, substr) {
		t.Fatalf("panic %q does not contain %q", msg, substr)
	}
}

// The DNS/GK axis-line groups are bit-field subcubes: binomial-tree
// partners (indices differing in one bit) are physical hypercube
// neighbors without any re-embedding.
func TestGrid3DAxisLinesAreSubcubes(t *testing.T) {
	g := NewGrid3D(8)
	h := NewHypercube(g.Size())
	for axis := 0; axis < 3; axis++ {
		line := g.AxisLine(axis, 3, 5)
		for x := 0; x < len(line); x++ {
			for s := 0; 1<<s < len(line); s++ {
				partner := x ^ 1<<s
				if d := h.Distance(line[x], line[partner]); d != 1 {
					t.Fatalf("axis %d: line indices %d,%d at hypercube distance %d", axis, x, partner, d)
				}
			}
		}
	}
}
