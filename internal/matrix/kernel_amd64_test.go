//go:build amd64 && !purego

package matrix

import (
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// targetNames names every tile family.
var targetNames = [...]string{portable: "portable", avx2: "avx2", avx512: "avx512"}

// withEachTarget calls run once per tile family the host can dispatch
// to, with that family selected: the portable tileGo everywhere, then
// the AVX2 and AVX-512 tiles up to the detected one. It logs each
// family it skips.
func withEachTarget(tb testing.TB, run func(name string)) {
	saved := tiles
	defer func() { tiles = saved }()
	for f, name := range targetNames {
		if tileTarget(f) > detectTarget() {
			tb.Logf("skipping %s: the CPU or OS does not support it", name)
			continue
		}
		tiles = tileTarget(f)
		run(name)
	}
}

// TestMulAddIntoBitIdenticalSSE2 forces the portable tile kernel, which
// amd64 compiles to scalar SSE2, and re-runs the differential grid, so
// every amd64 dispatch target is proven bit-identical to the naive
// kernel regardless of which one the benchmark host selects.
func TestMulAddIntoBitIdenticalSSE2(t *testing.T) {
	if tiles == portable {
		t.Skip("host already runs the portable path; covered by the main differential tests")
	}
	saved := tiles
	tiles = portable
	defer func() { tiles = saved }()
	for _, n := range kernelSizes {
		a := Random(n, n, uint64(n)*2+1)
		b := Random(n, n, uint64(n)*2+2)
		mulBitIdentical(t, a, b)
	}
}

// TestKernelMatchesCPUFlags pins detection to the kernel's own view of
// the CPU: the family it selects must be the widest one whose flags
// /proc/cpuinfo lists (the kernel lists a flag only when the OS also
// saves that register state). A detection bug, such as a wrong XCR0
// mask, then fails here instead of quietly running a narrower family.
func TestKernelMatchesCPUFlags(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("/proc/cpuinfo is linux-only")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(value)
			break
		}
	}
	if flags == nil {
		t.Fatal("/proc/cpuinfo has no flags line")
	}
	want := portable
	switch {
	case !slices.Contains(flags, "avx2"):
	case slices.Contains(flags, "avx512f"):
		want = avx512
	default:
		want = avx2
	}
	if got := detectTarget(); got != want {
		t.Fatalf("detected %s tiles, want %s from /proc/cpuinfo flags (avx2 %v, avx512f %v)",
			targetNames[got], targetNames[want],
			slices.Contains(flags, "avx2"), slices.Contains(flags, "avx512f"))
	}
}

// TestTileTargetsAgreeOnNaNPayloads pins the operation order the SIMD
// families share (a first in each multiply, c first in each add): with
// a distinct NaN payload in each of a, b and c, every family the host
// has must reproduce the AVX2 tiles' bits exactly, where the naive
// oracle only pins "some NaN".
func TestTileTargetsAgreeOnNaNPayloads(t *testing.T) {
	if detectTarget() < avx2 {
		t.Skip("no SIMD tile family on this host")
	}
	nan := func(payload uint64) float64 { return math.Float64frombits(0x7ff8000000000000 | payload) }
	for _, side := range []int{4, 11, 16, 22, 33, 47} {
		a, b, c := Random(side, side, 1), Random(side, side, 2), Random(side, side, 3)
		for i := range a.Data {
			switch i % 7 {
			case 1:
				a.Data[i] = nan(0xa)
			case 3:
				b.Data[i] = nan(0xb)
			case 5:
				c.Data[i] = nan(0xc)
			}
		}
		var want *Dense
		withEachTarget(t, func(name string) {
			if tiles == portable {
				return
			}
			got := c.Clone()
			MulAddInto(got, a, b)
			if want == nil {
				want = got
				return
			}
			for i := range want.Data {
				if g, w := math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]); g != w {
					t.Fatalf("side %d, %s: element %d = %x, avx2 gives %x", side, name, i, g, w)
				}
			}
		})
	}
}
