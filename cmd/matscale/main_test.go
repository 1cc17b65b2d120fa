package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"matscale/internal/core"
	"matscale/internal/experiments"
)

// capture runs f with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	runErr := f()
	w.Close()
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.String(), runErr
}

func TestCmdTable1(t *testing.T) {
	out, err := capture(t, func() error { return cmdTable1([]string{"-ts", "10"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Cannon", "GK", "ts=10"} {
		if !strings.Contains(out, frag) {
			t.Errorf("table1 output missing %q", frag)
		}
	}
}

func TestCmdRegions(t *testing.T) {
	out, err := capture(t, func() error { return cmdRegions([]string{"-fig", "2", "-pmax", "10", "-nmax", "6"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Figure 2") || !strings.Contains(out, "a=GK") {
		t.Errorf("regions output malformed:\n%s", out)
	}
	if _, err := capture(t, func() error { return cmdRegions([]string{"-fig", "9"}) }); err == nil {
		t.Error("bad figure accepted")
	}
}

func TestCmdRunAllAlgorithms(t *testing.T) {
	for _, alg := range []string{"gk", "gkimproved", "cannon", "fox", "foxpipe", "simple", "auto"} {
		out, err := capture(t, func() error {
			return cmdRun([]string{"-alg", alg, "-n", "16", "-p", "16", "-machine", "custom", "-ts", "17", "-tw", "3"})
		})
		if alg == "gk" || alg == "gkimproved" {
			// p=16 is not a cube: these must fail cleanly.
			if err == nil {
				t.Errorf("%s accepted a non-cube p", alg)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", alg, err)
			continue
		}
		if !strings.Contains(out, "efficiency:") || !strings.Contains(out, "verified:") {
			t.Errorf("%s output missing fields:\n%s", alg, out)
		}
	}
}

func TestCmdRunGKOnCube(t *testing.T) {
	out, err := capture(t, func() error {
		return cmdRun([]string{"-alg", "gk", "-n", "16", "-p", "64", "-machine", "cm5"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "algorithm:  GK") {
		t.Errorf("run output malformed:\n%s", out)
	}
}

func TestCmdRunMetricsAndTrace(t *testing.T) {
	trace := t.TempDir() + "/gk.json"
	out, err := capture(t, func() error {
		return cmdRun([]string{"-alg", "gk", "-n", "16", "-p", "64", "-metrics", "-trace", trace})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"overhead decomposition", "comm/compute", "busiest links", "recv_wait"} {
		if !strings.Contains(out, frag) {
			t.Errorf("metrics output missing %q:\n%s", frag, out)
		}
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte("traceEvents")) {
		t.Errorf("trace file is not a trace_event document:\n%.200s", data)
	}
}

func TestCmdRunDNSGrid(t *testing.T) {
	out, err := capture(t, func() error {
		return cmdRun([]string{"-alg", "dns", "-grid", "4", "-n", "16", "-p", "64"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "algorithm:  DNS") {
		t.Errorf("grid run output malformed:\n%s", out)
	}
	// The grid option must reject non-DNS algorithms.
	if _, err := capture(t, func() error {
		return cmdRun([]string{"-alg", "cannon", "-grid", "4", "-n", "16", "-p", "64"})
	}); err == nil {
		t.Error("grid option accepted a non-DNS algorithm")
	}
}

func TestCmdRunErrors(t *testing.T) {
	if _, err := capture(t, func() error { return cmdRun([]string{"-alg", "nope"}) }); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := capture(t, func() error { return cmdRun([]string{"-machine", "nope"}) }); err == nil {
		t.Error("unknown machine accepted")
	}
	if _, err := capture(t, func() error { return cmdRun([]string{"-alg", "dns", "-n", "16", "-p", "64"}) }); err == nil {
		t.Error("DNS below applicability accepted")
	}
}

func TestCmdIsoeff(t *testing.T) {
	out, err := capture(t, func() error { return cmdIsoeff([]string{"-e", "0.5"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Isoefficiency curves") || !strings.Contains(out, "E>ceiling") {
		t.Errorf("isoeff output malformed:\n%s", out)
	}
	// Below DNS's ceiling (0.2 at ts = tw = 1) its column holds numbers,
	// and the columns follow Table 1's order.
	out, err = capture(t, func() error { return cmdIsoeff([]string{"-ts", "1", "-tw", "1", "-e", "0.1"}) })
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out, "\n")
	if got := strings.Fields(lines[1]); strings.Join(got, " ") != "p Berntsen Cannon GK DNS" {
		t.Errorf("isoeff header = %q, want p Berntsen Cannon GK DNS", got)
	}
	for _, line := range lines[2:] {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if _, err := strconv.ParseFloat(f[len(f)-1], 64); err != nil {
			t.Errorf("DNS column below its ceiling holds %q, want a problem size", f[len(f)-1])
		}
	}
}

func TestCmdCompare(t *testing.T) {
	out, err := capture(t, func() error { return cmdCompare(nil) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "1.3e8") {
		t.Errorf("compare output missing cutoff:\n%s", out)
	}
}

func TestCmdAllPort(t *testing.T) {
	out, err := capture(t, func() error { return cmdAllPort(nil) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "does not improve") {
		t.Errorf("allport output missing conclusion:\n%s", out)
	}
}

func TestCmdTech(t *testing.T) {
	out, err := capture(t, func() error { return cmdTech(nil) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "more processors") {
		t.Errorf("tech output malformed:\n%s", out)
	}
	if _, err := capture(t, func() error { return cmdTech([]string{"-ts", "150", "-e", "0.9"}) }); err == nil {
		t.Error("tech above DNS ceiling accepted")
	}
}

func TestCmdImproved(t *testing.T) {
	out, err := capture(t, func() error { return cmdImproved(nil) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "improved") {
		t.Errorf("improved output malformed:\n%s", out)
	}
	for _, p := range []string{"0", "-8", "100"} {
		if _, err := capture(t, func() error { return cmdImproved([]string{"-p", p}) }); !errors.Is(err, experiments.ErrNoProcessorGrid) {
			t.Errorf("improved -p %s: err = %v, want ErrNoProcessorGrid", p, err)
		}
	}
}

func TestCmdIsoVal(t *testing.T) {
	out, err := capture(t, func() error { return cmdIsoVal([]string{"-alg", "cannon"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "E simulated") {
		t.Errorf("isoval output malformed:\n%s", out)
	}
	// Berntsen's ladder steps n by p^(2/3).
	out, err = capture(t, func() error { return cmdIsoVal([]string{"-alg", "berntsen"}) })
	if err != nil || !strings.Contains(out, "berntsen") || !strings.Contains(out, "     512") {
		t.Errorf("isoval -alg berntsen: %v\n%s", err, out)
	}
	if _, err := capture(t, func() error { return cmdIsoVal([]string{"-alg", "nope"}) }); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := capture(t, func() error { return cmdIsoVal([]string{"-alg", "dns"}) }); !errors.Is(err, experiments.ErrNoProcessorGrid) {
		t.Errorf("isoval -alg dns: err = %v, want no processor grid", err)
	}
}

func TestCmdPredict(t *testing.T) {
	out, err := capture(t, func() error { return cmdPredict(nil) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "predicted correctly") {
		t.Errorf("predict output malformed:\n%s", out)
	}
}

func TestCmdVerifyPasses(t *testing.T) {
	out, err := capture(t, func() error { return cmdVerify(nil) })
	if err != nil {
		t.Fatalf("self-check failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "all checks passed") || strings.Contains(out, "FAIL") {
		t.Errorf("verify output:\n%s", out)
	}
	// One ok line per (row, check); a row without an exact Tp checks
	// its product alone.
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		lines = append(lines, strings.Join(strings.Fields(l), " "))
	}
	checks := 0
	for _, f := range core.Formulations {
		for _, c := range f.Checks {
			checks++
			head, tail := fmt.Sprintf("%s %s %d %d ", f.Name, c.Eq, c.N, c.P), " ok ok"
			if c.Tp == nil {
				tail = " - ok -"
			}
			match := func(l string) bool { return strings.HasPrefix(l, head) && strings.HasSuffix(l, tail) }
			if n := len(slices.DeleteFunc(slices.Clone(lines), func(l string) bool { return !match(l) })); n != 1 {
				t.Errorf("%d lines %q…%q, want one", n, head, tail)
			}
		}
	}
	if checks != 15 {
		t.Errorf("%d checks, want 15", checks)
	}
}

// TestCmdHelpListsKeys requires the command help to list every key of
// the formulation table.
func TestCmdHelpListsKeys(t *testing.T) {
	var help bytes.Buffer
	usage(&help)
	if want := strings.Join(core.Keys(), ", "); !strings.Contains(help.String(), want) {
		t.Errorf("help does not list the keys %s:\n%s", want, help.String())
	}
}

func TestCmdEfficiencyBadFigure(t *testing.T) {
	if _, err := capture(t, func() error { return cmdEfficiency([]string{"-fig", "7"}) }); err == nil {
		t.Error("bad efficiency figure accepted")
	}
}

func TestCmdTrace(t *testing.T) {
	for _, op := range []string{"broadcast", "allgather", "reduce", "reducescatter", "alltoall", "allreduce"} {
		out, err := capture(t, func() error {
			return cmdTrace([]string{"-op", op, "-p", "8", "-m", "16", "-width", "40"})
		})
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if !strings.Contains(out, "Tp =") || !strings.Contains(out, "p0") {
			t.Errorf("%s trace output malformed:\n%s", op, out)
		}
	}
	if _, err := capture(t, func() error { return cmdTrace([]string{"-op", "nope"}) }); err == nil {
		t.Error("unknown trace op accepted")
	}
	out, err := capture(t, func() error { return cmdTrace([]string{"-op", "cannon", "-p", "16", "-width", "40"}) })
	if err != nil || !strings.Contains(out, "Cannon algorithm, n=16") || !strings.Contains(out, "p15") {
		t.Errorf("cannon trace: %v\n%s", err, out)
	}
	if _, err := capture(t, func() error { return cmdTrace([]string{"-op", "dns"}) }); !errors.Is(err, experiments.ErrNoProcessorGrid) {
		t.Errorf("trace -op dns: err = %v, want no processor grid", err)
	}
}

func TestCmdRegionsCSV(t *testing.T) {
	out, err := capture(t, func() error { return cmdRegions([]string{"-fig", "1", "-pmax", "6", "-nmax", "4", "-csv"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "log2_n") || !strings.Contains(out, ",a") && !strings.Contains(out, ",b") {
		t.Errorf("regions CSV malformed:\n%s", out)
	}
}

func TestCmdTsSweep(t *testing.T) {
	out, err := capture(t, func() error { return cmdTsSweep([]string{"-n", "16", "-p", "64"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "winner") {
		t.Errorf("tssweep output malformed:\n%s", out)
	}
}

func TestCmdGridSweepRendersTable(t *testing.T) {
	out, err := capture(t, func() error {
		return cmdGridSweep([]string{"-alg", "cannon,gk", "-machine", "custom",
			"-ts", "17", "-n", "16", "-p", "16,64", "-jobs", "2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"cannon", "gk", "n/a:"} {
		if !strings.Contains(out, frag) {
			t.Errorf("grid sweep output missing %q:\n%s", frag, out)
		}
	}
}

func TestCmdGridSweepCSVIdenticalAcrossJobs(t *testing.T) {
	dir := t.TempDir()
	run := func(jobs int) string {
		path := fmt.Sprintf("%s/out%d.csv", dir, jobs)
		_, err := capture(t, func() error {
			return cmdGridSweep([]string{"-alg", "cannon,gk", "-machine", "custom",
				"-ts", "17", "-n", "16,32", "-p", "16,64",
				"-faults", ";straggler=2@rank0,seed=42",
				"-jobs", fmt.Sprint(jobs), "-csv", path})
		})
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	serial := run(1)
	if !strings.Contains(serial, "algorithm,machine,p,n") {
		t.Fatalf("CSV header missing:\n%.200s", serial)
	}
	if parallel := run(8); parallel != serial {
		t.Fatal("sweep CSV differs between -jobs=1 and -jobs=8")
	}
}

func TestCmdGridSweepJSONToStdout(t *testing.T) {
	out, err := capture(t, func() error {
		return cmdGridSweep([]string{"-alg", "cannon", "-machine", "custom",
			"-ts", "17", "-n", "16", "-p", "16", "-json", "-"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"cells"`) {
		t.Errorf("JSON output malformed:\n%.300s", out)
	}
}

func TestCmdGridSweepErrors(t *testing.T) {
	if _, err := capture(t, func() error {
		return cmdGridSweep([]string{"-alg", "nope"})
	}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := capture(t, func() error {
		return cmdGridSweep([]string{"-p", "16,bogus"})
	}); err == nil {
		t.Error("bad -p list accepted")
	}
	if _, err := capture(t, func() error {
		return cmdGridSweep([]string{"-faults", "loss=2"})
	}); err == nil {
		t.Error("invalid fault scenario accepted")
	}
}

func TestCmdSaturation(t *testing.T) {
	out, err := capture(t, func() error { return cmdSaturation([]string{"-n", "16"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "speedup") {
		t.Errorf("saturation output malformed:\n%s", out)
	}
}

func TestCmdAllQuick(t *testing.T) {
	out, err := capture(t, func() error { return cmdAll([]string{"-quick"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "Section 8") {
		t.Errorf("all output malformed (len %d)", len(out))
	}
}

func TestCmdEfficiencyCSVFlagParses(t *testing.T) {
	// Only verify flag wiring quickly; the full sweeps are covered in
	// the experiments package (they take seconds).
	fsOK := []string{"-fig", "9", "-csv"}
	if _, err := capture(t, func() error { return cmdEfficiency(fsOK) }); err == nil {
		t.Error("bad figure with -csv accepted")
	}
	fsPlot := []string{"-fig", "9", "-plot"}
	if _, err := capture(t, func() error { return cmdEfficiency(fsPlot) }); err == nil {
		t.Error("bad figure with -plot accepted")
	}
}

func TestCmdRunWithCSVFiles(t *testing.T) {
	dir := t.TempDir()
	aPath := dir + "/a.csv"
	bPath := dir + "/b.csv"
	outPath := dir + "/c.csv"
	// 4x4 identity times a 4x4 ramp.
	var id, ramp strings.Builder
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if j > 0 {
				id.WriteByte(',')
				ramp.WriteByte(',')
			}
			if i == j {
				id.WriteByte('1')
			} else {
				id.WriteByte('0')
			}
			fmt.Fprintf(&ramp, "%d", i*4+j)
		}
		id.WriteByte('\n')
		ramp.WriteByte('\n')
	}
	if err := os.WriteFile(aPath, []byte(id.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bPath, []byte(ramp.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return cmdRun([]string{"-alg", "cannon", "-p", "4", "-machine", "cm5",
			"-a", aPath, "-b", bPath, "-out", outPath})
	})
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(data)); got != strings.TrimSpace(ramp.String()) {
		t.Fatalf("I·B = %q, want the ramp", got)
	}
	if _, err := capture(t, func() error {
		return cmdRun([]string{"-a", aPath}) // missing -b
	}); err == nil {
		t.Error("missing -b accepted")
	}
	if _, err := capture(t, func() error {
		return cmdRun([]string{"-a", dir + "/missing.csv", "-b", bPath})
	}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestCmdTraceGK(t *testing.T) {
	out, err := capture(t, func() error {
		return cmdTrace([]string{"-op", "gk", "-p", "8", "-width", "50"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "GK algorithm") || !strings.Contains(out, "p0") {
		t.Errorf("gk trace malformed:\n%s", out)
	}
}

func TestCmdRunWithFaults(t *testing.T) {
	out, err := capture(t, func() error {
		return cmdRun([]string{"-alg", "gk", "-n", "16", "-p", "64",
			"-faults", "straggler=2@rank0,loss=0.02,seed=42", "-metrics"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"faults:", "fault-induced degradation", "straggler extra compute", "retry comm overhead"} {
		if !strings.Contains(out, frag) {
			t.Errorf("faulted run output missing %q:\n%s", frag, out)
		}
	}
	// A bad spec must fail cleanly before anything runs.
	if _, err := capture(t, func() error {
		return cmdRun([]string{"-alg", "gk", "-n", "16", "-p", "64", "-faults", "loss=2"})
	}); err == nil {
		t.Error("invalid fault spec accepted")
	}
}

func TestCmdRobust(t *testing.T) {
	out, err := capture(t, func() error {
		return cmdRobust([]string{"-n", "16", "-p", "64", "-faults", "straggler=2@rank0,seed=42"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"robustness", "clean Tp", "faulted Tp", "cannon", "gk", "dns"} {
		if !strings.Contains(out, frag) {
			t.Errorf("robust output missing %q:\n%s", frag, out)
		}
	}
	// Every faulted Tp must exceed its clean Tp: no slowdown at or
	// below 1.00x may appear.
	if strings.Contains(out, " 1.00x") || strings.Contains(out, " 0.00x") {
		t.Errorf("a formulation shows no slowdown under a rank-0 straggler:\n%s", out)
	}
	if _, err := capture(t, func() error {
		return cmdRobust([]string{"-faults", "bogus"})
	}); err == nil {
		t.Error("invalid fault spec accepted")
	}
	if _, err := capture(t, func() error {
		return cmdRobust([]string{"-machine", "nope"})
	}); err == nil {
		t.Error("unknown machine accepted")
	}
}

// The run command's checkpoint flags: suspend to a file, resume from
// it, and print the same measured quantities as an uninterrupted run.
func TestCmdRunCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	ck := dir + "/run.ckpt"
	base := []string{"-alg", "cannon", "-n", "16", "-p", "64"}

	full, err := capture(t, func() error { return cmdRun(base) })
	if err != nil {
		t.Fatal(err)
	}

	out, err := capture(t, func() error {
		return cmdRun(append(base, "-checkpoint", ck, "-suspend-after", "50"))
	})
	if err != nil {
		t.Fatalf("suspension must exit cleanly, got %v", err)
	}
	if !strings.Contains(out, "suspended:  at event 50") || !strings.Contains(out, "-resume") {
		t.Fatalf("suspension output malformed:\n%s", out)
	}
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("checkpoint file missing: %v", err)
	}

	resumed, err := capture(t, func() error {
		return cmdRun(append(base, "-resume", ck))
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(full, "\n") {
		if strings.HasPrefix(line, "Tp:") || strings.HasPrefix(line, "verified:") {
			if !strings.Contains(resumed, line) {
				t.Errorf("resumed output missing %q:\n%s", line, resumed)
			}
		}
	}

	// Misuse is rejected, not ignored.
	if _, err := capture(t, func() error {
		return cmdRun(append(base, "-suspend-after", "50"))
	}); err == nil {
		t.Error("-suspend-after without -checkpoint accepted")
	}
}

// A run that completes before its cut writes no checkpoint file: an
// empty one would only fail a later -resume.
func TestCmdRunCheckpointNoCut(t *testing.T) {
	ck := t.TempDir() + "/run.ckpt"
	out, err := capture(t, func() error {
		return cmdRun([]string{"-alg", "simple", "-n", "16", "-p", "16", "-checkpoint", ck, "-suspend-after", "1000000"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "suspended:") {
		t.Fatalf("run suspended before its cut:\n%s", out)
	}
	if _, err := os.Stat(ck); !os.IsNotExist(err) {
		t.Fatalf("checkpoint file exists after a run that took no cut (stat: %v)", err)
	}
}

// The run command simulates on the events engine, so checkpointing
// needs no extra flag: the run suspends, and resuming it prints exactly
// what an uninterrupted run prints.
func TestCmdRunCheckpointDefaultBackend(t *testing.T) {
	ck := t.TempDir() + "/run.ckpt"
	base := []string{"-alg", "gk", "-n", "16", "-p", "64", "-metrics"}

	full, err := capture(t, func() error { return cmdRun(base) })
	if err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return cmdRun(append(base, "-checkpoint", ck, "-suspend-after", "40"))
	})
	if err != nil {
		t.Fatalf("suspension must exit cleanly, got %v", err)
	}
	if !strings.Contains(out, "suspended:  at event 40") {
		t.Fatalf("run did not suspend on the default backend:\n%s", out)
	}
	resumed, err := capture(t, func() error { return cmdRun(append(base, "-resume", ck)) })
	if err != nil {
		t.Fatal(err)
	}
	if resumed != full {
		t.Fatalf("resumed output differs from the uninterrupted run:\n--- full\n%s\n--- resumed\n%s", full, resumed)
	}
}
