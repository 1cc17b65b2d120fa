// Command perfbench is the repository benchmark. It runs one closed-loop
// workload for a fixed window and prints its end-to-end metrics, or,
// with --trace 1, records spans around calls into each layer and prints
// the per-layer metrics. Every output is verified; the last line of
// standard output is a JSON result. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"
)

// minOps keeps each untraced run going until its p90 has at least
// minTail samples beyond it.
const minOps = 100

var workloads = []string{"host-mul", "paper-grid", "serve"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "host-mul":
		return &hostMul{}, nil
	case "paper-grid":
		return &paperGrid{}, nil
	case "serve":
		return &serve{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have host-mul, paper-grid, serve, all)", name)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "host-mul, paper-grid, serve, or all (one after another)")
	seed := fs.Uint64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Int("seconds", 30, "length of the timed window")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	traceOut := fs.String("trace-out", "", "Chrome trace of a traced run (default .bench_build/trace-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloads
	}
	env := readEnv()
	envJSON, _ := json.Marshal(env) // plain struct; cannot fail
	code := 0
	for _, n := range names {
		w, err := newWorkload(n)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%d\nenv %s\n", n, *seed, *seconds, *trace, envJSON)
		window := time.Duration(*seconds) * time.Second
		var res result
		if *trace == 1 {
			path := *traceOut
			if path == "" {
				path = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", n, *seed))
			}
			res, err = traced(w, *seed, window, path, env, stdout)
		} else {
			res, err = measure(w, *seed, window, stdout)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench %s: %v\n", n, err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench %s: %v\n", n, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// setupSamples is how many times an untraced run sets up; setup_s is
// the median.
const setupSamples = 7

// measure is the untraced run: set-up sampled setupSamples times, then
// the closed loop over the window, then the deferred checks.
func measure(w workload, seed uint64, window time.Duration, out io.Writer) (result, error) {
	var setupS []float64
	for i := 0; i < setupSamples; i++ {
		w.close()
		t0 := time.Now()
		if err := w.setup(seed); err != nil {
			w.close()
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer w.close()
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()

	samples, err := timedWindow(w, window)
	if err != nil {
		return result{}, err
	}
	rss := peakRSSMB()
	verr := w.verify()

	lat, failed := latencies(samples, out)
	p50 := median(lat)
	p90, err := percentile(lat, 0.9)
	if err != nil {
		return result{}, err
	}
	values := map[string]float64{
		"ops_per_s":   throughput(samples),
		"op_p50_ms":   p50,
		"op_p90_ms":   p90,
		"setup_s":     median(setupS),
		"peak_rss_mb": rss,
	}
	ms, err := collect(endToEnd, values)
	if err != nil {
		return result{}, err
	}
	for _, d := range endToEnd {
		fmt.Fprintf(out, "  %-12s %14.6g %s\n", d.name, values[d.name], d.unit)
	}
	fmt.Fprintf(out, "  %-12s %14.6g fraction (%d of %d ops; setup sampled %d times)\n",
		"fail_frac", float64(failed)/float64(len(samples)), failed, len(samples), len(setupS))
	if verr != nil {
		fmt.Fprintf(out, "  post-window check failed: %v\n", verr)
	}
	return result{Correct: failed == 0 && verr == nil, Attempted: len(samples), Failed: failed, Metrics: ms}, nil
}

// timedWindow runs w's closed loop over the window; a restarter's
// window is split into sessions, with a fresh instance and a GC before
// each but the first.
func timedWindow(w workload, window time.Duration) ([]sample, error) {
	r, ok := w.(restarter)
	if !ok {
		return closedLoop(w, window, minOps, nil), nil
	}
	var samples []sample
	for k := 0; k < sessions; k++ {
		if k > 0 {
			if err := r.restart(); err != nil {
				return nil, fmt.Errorf("restart: %w", err)
			}
			runtime.GC() // the last session's garbage does not count against the next
		}
		samples = append(samples, closedLoop(w, window/sessions, (minOps+sessions-1)/sessions, nil)...)
	}
	return samples, nil
}

// latencies returns the ops' latencies in milliseconds and the number
// of failed ops, printing the first few failures.
func latencies(samples []sample, out io.Writer) ([]float64, int) {
	lat := make([]float64, 0, len(samples))
	failed := 0
	for _, s := range samples {
		lat = append(lat, toMS(s.lat))
		if s.err != nil {
			if failed < 5 {
				fmt.Fprintf(out, "  op failed: %v\n", s.err)
			}
			failed++
		}
	}
	return lat, failed
}

// traced is the traced run: the workload's closed loop with every other
// op traced, then the layer probes. It writes the spans as a Chrome
// trace to path.
func traced(w workload, seed uint64, window time.Duration, path string, env envStamp, out io.Writer) (result, error) {
	tr := newTracer()
	id := tr.begin("setup", "", 0, 0, 0)
	err := w.setup(seed)
	tr.end(id)
	if err != nil {
		w.close()
		return result{}, fmt.Errorf("setup: %w", err)
	}
	rt0 := readRuntime()
	samples := closedLoop(w, window, 2*minTail, tr)
	rt1 := readRuntime()
	verr := w.verify()
	w.close()

	_, failed := latencies(samples, out)
	var on, off []float64
	for _, s := range samples {
		v := toMS(s.lat)
		if s.traced {
			on = append(on, v)
		} else {
			off = append(off, v)
		}
	}
	values, err := layerSuite(tr)
	if err != nil {
		return result{}, err
	}
	values["runtime.alloc_mb_per_op"] = (rt1.allocBytes - rt0.allocBytes) / (1 << 20) / float64(len(samples))
	values["runtime.gc_cpu_frac"] = (rt1.gcCPU - rt0.gcCPU) / (rt1.totalCPU - rt0.totalCPU)
	values["trace.overhead_frac"] = median(on)/median(off) - 1
	ms, err := collect(perLayer, values)
	if err != nil {
		return result{}, err
	}
	for _, d := range perLayer {
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", d.name, values[d.name], d.unit)
	}
	if verr != nil {
		fmt.Fprintf(out, "  post-window check failed: %v\n", verr)
	}
	if err := writeTrace(path, tr.snapshot(), map[string]any{"env": env, "seed": seed, "metrics": ms}); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "  trace written to %s\n", path)
	return result{Correct: failed == 0 && verr == nil, Attempted: len(samples), Failed: failed, Metrics: ms}, nil
}

func writeTrace(path string, spans []span, otherData map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChrome(f, spans, otherData); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	ss := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(ss)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return runtimeSample{val(ss[0]), val(ss[1]), val(ss[2])}
}
