// Package shm_test holds the shared-memory multiply, matscale.HostMul, to
// the serial product: every worker count, rectangular and empty shapes,
// and the inner-dimension error. The directory has no non-test code.
package shm_test

import (
	"strings"
	"testing"
	"testing/quick"

	"matscale"
	"matscale/internal/matrix"
)

func TestMulMatchesSerial(t *testing.T) {
	for _, c := range []struct{ n, workers int }{
		{1, 1}, {7, 2}, {16, 4}, {33, 3}, {64, 0}, {50, 100},
	} {
		a := matrix.RandomInts(c.n, c.n, uint64(c.n))
		b := matrix.RandomInts(c.n, c.n, uint64(c.n)+9)
		got, err := matscale.HostMul(a, b, matscale.WithWorkers(c.workers))
		if err != nil {
			t.Fatalf("n=%d workers=%d: %v", c.n, c.workers, err)
		}
		if d := matrix.MaxAbsDiff(got, matrix.Mul(a, b)); d != 0 {
			t.Fatalf("n=%d workers=%d: differs by %v", c.n, c.workers, d)
		}
	}
}

func TestMulRectangular(t *testing.T) {
	a := matrix.RandomInts(13, 29, 5)
	b := matrix.RandomInts(29, 7, 6)
	got, err := matscale.HostMul(a, b, matscale.WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(got, matrix.Mul(a, b)); d != 0 {
		t.Fatalf("rectangular product differs by %v", d)
	}
}

func TestMulEmpty(t *testing.T) {
	c, err := matscale.HostMul(matrix.New(0, 5), matrix.New(5, 3), matscale.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if c.Rows != 0 || c.Cols != 3 {
		t.Fatalf("empty product shape %dx%d", c.Rows, c.Cols)
	}
}

func TestMulDimensionMismatchErrors(t *testing.T) {
	if _, err := matscale.HostMul(matrix.New(2, 3), matrix.New(2, 3), matscale.WithWorkers(1)); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("err = %v", err)
	}
}

// Property: worker count never changes the result for integer inputs.
func TestQuickWorkerInvariance(t *testing.T) {
	f := func(seed uint64, w1, w2 uint8) bool {
		a := matrix.RandomInts(17, 17, seed)
		b := matrix.RandomInts(17, 17, seed+1)
		r1, err1 := matscale.HostMul(a, b, matscale.WithWorkers(int(w1%8)+1))
		r2, err2 := matscale.HostMul(a, b, matscale.WithWorkers(int(w2%8)+1))
		return err1 == nil && err2 == nil && matrix.MaxAbsDiff(r1, r2) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
