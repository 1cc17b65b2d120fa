// Command benchgate is the CI benchmark regression gate: it compares
// two `go test -bench` text outputs (the PR revision against main) and
// fails when the geometric-mean ns/op ratio over the gated benchmarks
// exceeds the allowed slowdown. The default scope covers the hot paths
// every run rides on: the simulator message path (both backends) and
// the host matmul kernel in internal/matrix — so a PR that regresses
// `BenchmarkDeliver*`, the simulated algorithm suite, or the serial or
// parallel host kernel by more than 10% geomean fails the bench job
// instead of shipping quietly.
//
// Usage:
//
//	go run ./scripts/benchgate -old bench_main.txt -new bench_pr.txt
//	go run ./scripts/benchgate -old a.txt -new b.txt -pkg 'internal/simulator' -max 0.10
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// defaultPkgPat is the package scope gated when -pkg is not given: the
// simulator (both engines, with the event engine's fiber and wave
// tiers) plus the host matmul kernel. internal/matrix joined the scope
// when the parallel host kernel landed — a kernel regression is as much
// a shipped slowdown as a simulator one.
const defaultPkgPat = "internal/(simulator|matrix)"

// sample accumulates the ns/op values of one benchmark across -count
// repeats; the gate compares per-benchmark means.
type sample struct {
	sum float64
	n   int
}

func (s sample) mean() float64 { return s.sum / float64(s.n) }

// parse reads `go test -bench` text output and returns mean ns/op per
// benchmark, keyed by "pkg.Name", restricted to packages matching
// pkgRe and names matching nameRe.
func parse(r io.Reader, pkgRe, nameRe *regexp.Regexp) (map[string]sample, error) {
	out := map[string]sample{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "pkg:") {
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || !pkgRe.MatchString(pkg) || !nameRe.MatchString(fields[0]) {
			continue
		}
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] != "ns/op" {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchgate: bad ns/op in %q: %v", line, err)
			}
			key := pkg + "." + fields[0]
			s := out[key]
			s.sum += v
			s.n++
			out[key] = s
		}
	}
	return out, sc.Err()
}

// gate compares the two parsed runs and returns the geomean new/old
// ratio over benchmarks present in both, writing a per-benchmark table
// to w. A missing overlap is an error: a gate that silently compares
// nothing would always pass.
func gate(old, new map[string]sample, w io.Writer) (float64, error) {
	var keys []string
	for k := range old {
		if _, ok := new[k]; ok {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return 0, fmt.Errorf("benchgate: no benchmarks in common between the two runs")
	}
	sort.Strings(keys)
	logSum := 0.0
	for _, k := range keys {
		ratio := new[k].mean() / old[k].mean()
		logSum += math.Log(ratio)
		fmt.Fprintf(w, "%-70s old %12.0f ns/op   new %12.0f ns/op   ratio %.3f\n",
			k, old[k].mean(), new[k].mean(), ratio)
	}
	return math.Exp(logSum / float64(len(keys))), nil
}

func parseFile(path string, pkgRe, nameRe *regexp.Regexp) (map[string]sample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parse(f, pkgRe, nameRe)
}

func main() {
	oldFile := flag.String("old", "", "baseline bench output (main)")
	newFile := flag.String("new", "", "candidate bench output (PR)")
	pkgPat := flag.String("pkg", defaultPkgPat, "regexp of packages to gate on")
	namePat := flag.String("name", ".", "regexp of benchmark names to gate on")
	maxSlow := flag.Float64("max", 0.10, "maximum allowed geomean slowdown (0.10 = +10%)")
	flag.Parse()

	pkgRe, err := regexp.Compile(*pkgPat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	nameRe, err := regexp.Compile(*namePat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	oldS, err := parseFile(*oldFile, pkgRe, nameRe)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	newS, err := parseFile(*newFile, pkgRe, nameRe)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	gm, err := gate(oldS, newS, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Printf("geomean ratio over %s benchmarks: %.3f (gate: %.3f)\n", *pkgPat, gm, 1+*maxSlow)
	if gm > 1+*maxSlow {
		fmt.Fprintf(os.Stderr, "benchgate: geomean slowdown %.1f%% exceeds the %.0f%% gate\n",
			(gm-1)*100, *maxSlow*100)
		os.Exit(1)
	}
}
