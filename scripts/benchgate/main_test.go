package main

import (
	"regexp"
	"strings"
	"testing"
)

const oldRun = `
pkg: matscale/internal/simulator
BenchmarkDeliverCopy256-8     1000    1000 ns/op    0 B/op   0 allocs/op
BenchmarkDeliverCopy256-8     1000    1200 ns/op    0 B/op   0 allocs/op
BenchmarkDeliverOwned256-8    1000    2000 ns/op
pkg: matscale/internal/matrix
BenchmarkMulAddInto/n=256-8   10      50000 ns/op
`

const newRun = `
pkg: matscale/internal/simulator
BenchmarkDeliverCopy256-8     1000    1100 ns/op    0 B/op   0 allocs/op
BenchmarkDeliverOwned256-8    1000    2000 ns/op
BenchmarkDeliverRing16-8      1000    3000 ns/op
pkg: matscale/internal/matrix
BenchmarkMulAddInto/n=256-8   10      90000 ns/op
`

func parseBoth(t *testing.T, pkg, name string) (map[string]sample, map[string]sample) {
	t.Helper()
	pkgRe, nameRe := regexp.MustCompile(pkg), regexp.MustCompile(name)
	o, err := parse(strings.NewReader(oldRun), pkgRe, nameRe)
	if err != nil {
		t.Fatal(err)
	}
	n, err := parse(strings.NewReader(newRun), pkgRe, nameRe)
	if err != nil {
		t.Fatal(err)
	}
	return o, n
}

func TestParseAveragesRepeatsAndFiltersPackages(t *testing.T) {
	o, _ := parseBoth(t, "internal/simulator", ".")
	if len(o) != 2 {
		t.Fatalf("parsed %d simulator benchmarks, want 2: %v", len(o), o)
	}
	copy := o["matscale/internal/simulator.BenchmarkDeliverCopy256-8"]
	if copy.n != 2 || copy.mean() != 1100 {
		t.Errorf("repeat averaging: got n=%d mean=%v, want n=2 mean=1100", copy.n, copy.mean())
	}
}

func TestGateGeomeanOverCommonBenchmarks(t *testing.T) {
	o, n := parseBoth(t, "internal/simulator", ".")
	var sb strings.Builder
	gm, err := gate(o, n, &sb)
	if err != nil {
		t.Fatal(err)
	}
	// Common benchmarks: Copy (1100→1100, ratio 1.0) and Owned
	// (2000→2000, ratio 1.0); the Ring16 benchmark only exists in the
	// new run and must not count.
	if gm < 0.999 || gm > 1.001 {
		t.Errorf("geomean = %v, want 1.0", gm)
	}
	if strings.Contains(sb.String(), "Ring16") {
		t.Error("gate table includes a benchmark with no baseline")
	}
}

func TestGateCatchesRegression(t *testing.T) {
	o, n := parseBoth(t, "internal/matrix", ".")
	gm, err := gate(o, n, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	if gm < 1.7 || gm > 1.9 {
		t.Errorf("geomean = %v, want 1.8 (50000→90000)", gm)
	}
}

// TestDefaultScopeCoversKernelAndBothBackends pins the default -pkg
// regexp: the gate must watch the simulator (both backends, and the
// event engine's wave-tier benchmarks) AND the host matmul kernel, and
// must not silently widen to unrelated packages.
func TestDefaultScopeCoversKernelAndBothBackends(t *testing.T) {
	re := regexp.MustCompile(defaultPkgPat)
	for _, pkg := range []string{
		"matscale/internal/simulator",
		"matscale/internal/matrix",
	} {
		if !re.MatchString(pkg) {
			t.Errorf("default scope %q misses %s", defaultPkgPat, pkg)
		}
	}
	for _, pkg := range []string{
		"matscale/internal/core",
		"matscale/internal/shm",
		"matscale",
	} {
		if re.MatchString(pkg) {
			t.Errorf("default scope %q unexpectedly gates %s", defaultPkgPat, pkg)
		}
	}
	o, err := parse(strings.NewReader(oldRun), re, regexp.MustCompile("."))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := o["matscale/internal/matrix.BenchmarkMulAddInto/n=256-8"]; !ok {
		t.Errorf("default scope did not pick up the matrix kernel benchmark: %v", o)
	}
	wave, err := parse(strings.NewReader(`
pkg: matscale/internal/simulator
BenchmarkDESMillionRank-8   1   2500000000 ns/op
`), re, regexp.MustCompile("."))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wave["matscale/internal/simulator.BenchmarkDESMillionRank-8"]; !ok {
		t.Errorf("default scope did not pick up the wave-tier benchmark: %v", wave)
	}
}

func TestGateRefusesEmptyOverlap(t *testing.T) {
	o, n := parseBoth(t, "no/such/package", ".")
	if _, err := gate(o, n, &strings.Builder{}); err == nil {
		t.Error("gate accepted an empty benchmark overlap")
	}
}
