package matrix

import (
	"math"
	"testing"
)

// kernelSpecials is the palette of poison values the fuzzer sprinkles
// into b: infinities and NaN interact with the a==0 skip, and the
// denormals exercise gradual underflow in the accumulation.
var kernelSpecials = [...]float64{
	math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -5e-324, 2.2250738585072014e-308,
}

// FuzzKernelWorkerEquivalence fuzzes the deterministic-ownership
// contract end to end: for random shapes (including primes and
// non-tile-multiples on every axis, zero dimensions, and outputs wide
// enough to trigger the column-panel mode), random worker counts in
// 1..8, and operands seeded with zeros, Inf, NaN, and denormals, the
// parallel kernel must reproduce the serial tiled kernel bit for bit,
// on every tile family the host can dispatch to.
// The serial kernel is itself pinned to the naive triple loop by
// TestMulAddIntoBitIdentical*, so this transitively proves parallel ==
// naive at every worker count.
func FuzzKernelWorkerEquivalence(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), uint64(1))
	f.Add(uint8(31), uint8(17), uint8(4), uint8(4), uint64(42))    // primes
	f.Add(uint8(13), uint8(64), uint8(31), uint8(2), uint64(7))    // tile multiple depth
	f.Add(uint8(5), uint8(129), uint8(62), uint8(8), uint64(99))   // wide: column panels
	f.Add(uint8(0), uint8(9), uint8(3), uint8(5), uint64(3))       // zero rows
	f.Add(uint8(9), uint8(0), uint8(3), uint8(5), uint64(3))       // zero depth
	f.Add(uint8(32), uint8(5), uint8(0), uint8(3), uint64(11))     // zero cols
	f.Add(uint8(2), uint8(130), uint8(121), uint8(6), uint64(555)) // panel straddle
	f.Add(uint8(11), uint8(11), uint8(1), uint8(3), uint64(17))    // 11-row blocks: 3-row edge, 17-col masked edge
	f.Add(uint8(33), uint8(22), uint8(2), uint8(4), uint64(29))    // 1-row edge in row bands that split tiles
	f.Add(uint8(7), uint8(3), uint8(3), uint8(2), uint64(31))      // depth 3: rows rarely hold a zero
	f.Add(uint8(22), uint8(1), uint8(65), uint8(7), uint64(37))    // depth 1, 4×8 tiles plus a 1-col edge
	f.Add(uint8(82), uint8(11), uint8(86), uint8(95), uint64(40))  // 17 rows in 8 bands: a per-group zero fallback fails here
	// Edges of 16-wide tiles: colsRaw r ∈ 17…31 gives 17·r columns,
	// whole 16-wide tiles plus an r − 16 column rest (1–8 in an 8-wide
	// tile, 9–15 in a 16-wide one), on 1–5 workers. At r = 31,
	// 527 columns on two workers split into column slabs [0, 256) and
	// [256, 527), the second ending in a 15-column rest.
	for r := uint8(17); r <= 31; r++ {
		f.Add(r%9+4, r*3, r, r%5, uint64(r))
	}
	f.Fuzz(func(t *testing.T, rowsRaw, kRaw, colsRaw, workersRaw uint8, seed uint64) {
		rows := int(rowsRaw) % 65
		k := int(kRaw) % 131 // straddles the kcBlock=128 depth panel
		cols := int(colsRaw) * 17 % 1091
		workers := int(workersRaw)%8 + 1

		a := Random(rows, k, seed)
		b := Random(k, cols, seed+1)
		// Deterministically sprinkle zeros into a (to gate the 4-deep
		// fast path and the skip semantics) and specials into b.
		g := rng{state: seed ^ 0x9e3779b97f4a7c15}
		for i := range a.Data {
			if g.next()%5 == 0 {
				a.Data[i] = 0
			}
		}
		for i := range b.Data {
			if g.next()%11 == 0 {
				b.Data[i] = kernelSpecials[g.next()%uint64(len(kernelSpecials))]
			}
		}

		forEachDispatch(t, func(t *testing.T) {
			want := New(rows, cols)
			MulAddInto(want, a, b)
			got := New(rows, cols)
			MulAddIntoParallel(got, a, b, workers)
			for i := range want.Data {
				gb, wb := math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i])
				if gb != wb {
					t.Fatalf("%dx%d · %dx%d workers=%d seed=%d: element %d: parallel %x (%v) != serial %x (%v)",
						rows, k, k, cols, workers, seed, i, gb, got.Data[i], wb, want.Data[i])
				}
			}
		})
	})
}
