// Command matscale reproduces the tables and figures of Gupta & Kumar,
// "Scalability of Parallel Algorithms for Matrix Multiplication"
// (ICPP 1993), and runs the library's parallel formulations on the
// virtual-time multicomputer.
//
// Usage:
//
//	matscale table1     [-ts 150 -tw 3]
//	matscale regions    -fig 1|2|3 [-pmax 30 -nmax 16] [-csv]
//	matscale efficiency -fig 4|5 [-csv|-plot]
//	matscale run        -alg <key>|auto -n 64 -p 64 [-machine ncube2|fast|simd|cm5]
//	                    [-a A.csv -b B.csv -out C.csv]
//	                    [-metrics] [-trace out.json] [-grid q]
//	                    [-faults 'straggler=3@rank7,loss=0.01,seed=42']
//	                    [-checkpoint ck.bin -suspend-after 1000] [-resume ck.bin]
//	matscale robust     [-n 16 -p 64 -machine ncube2]
//	                    [-faults 'straggler=2@rank0,seed=42']
//	matscale isoeff     [-ts 150 -tw 3 -e 0.5]
//	matscale compare    [-ts 150 -tw 3]
//	matscale allport    [-ts 10 -tw 3]
//	matscale tech       [-ts 0.5 -tw 3 -p 16384 -e 0.05 -k 2]
//	matscale improved   [-ts 9 -tw 1 -p 512]
//	matscale isoval     [-alg <key> -e 0.5]
//	matscale predict
//	matscale sweep      [-alg cannon,gk -machine ncube2 -n 16,32 -p 16,64]
//	                    [-faults 'scenario1;scenario2'] [-seed 1]
//	                    [-jobs 0] [-csv out.csv] [-json out.json] [-progress]
//	matscale millionrank [-n 1024]
//	matscale tssweep    [-n 64 -p 64 -tw 3]
//	matscale saturation [-n 64 -ts 150 -tw 3]
//	matscale verify
//	matscale trace      [-op broadcast|allgather|...|<key> -p 8 -m 64]
//	                    [-chrome out.json]
//	matscale all        [-quick] [-jobs 0]
//	(<key>: a formulation key; matscale help lists them)
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"matscale"
	"matscale/internal/core"
	"matscale/internal/experiments"
	"matscale/internal/iso"
	"matscale/internal/machine"
	"matscale/internal/model"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "table1":
		err = cmdTable1(args)
	case "regions":
		err = cmdRegions(args)
	case "efficiency":
		err = cmdEfficiency(args)
	case "run":
		err = cmdRun(args)
	case "robust":
		err = cmdRobust(args)
	case "isoeff":
		err = cmdIsoeff(args)
	case "compare":
		err = cmdCompare(args)
	case "allport":
		err = cmdAllPort(args)
	case "tech":
		err = cmdTech(args)
	case "improved":
		err = cmdImproved(args)
	case "isoval":
		err = cmdIsoVal(args)
	case "predict":
		err = cmdPredict(args)
	case "verify":
		err = cmdVerify(args)
	case "trace":
		err = cmdTrace(args)
	case "sweep":
		err = cmdGridSweep(args)
	case "millionrank":
		err = cmdMillionRank(args)
	case "tssweep":
		err = cmdTsSweep(args)
	case "saturation":
		err = cmdSaturation(args)
	case "all":
		err = cmdAll(args)
	case "help", "-h", "--help":
		usage(os.Stderr)
	default:
		fmt.Fprintf(os.Stderr, "matscale: unknown command %q\n", cmd)
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "matscale:", err)
		os.Exit(1)
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `matscale — reproduce Gupta & Kumar, ICPP'93 matrix multiplication scalability

commands:
  table1       Table 1: overheads, isoefficiency, applicability
  regions      Figures 1-3: best-algorithm region maps
  efficiency   Figures 4-5: CM-5 efficiency curves and crossover
  run          run one algorithm (or -alg auto) on a simulated machine
  robust       compare formulations clean vs under an injected fault scenario
  isoeff       numeric isoefficiency curves for all algorithms
  compare      Section 6: pairwise crossover analysis
  allport      Section 7: all-port communication scalability
  tech         Section 8: more vs faster processors
  improved     Section 5.4.1: GK with Johnsson-Ho broadcast
  isoval       validate isoefficiency in simulation (constant-E scaling)
  predict      cross-validate the Section 6 predictions against races
  verify       self-check: every algorithm vs its paper equation
  trace        render the virtual-time schedule of a collective
  sweep        run a whole experiment grid in parallel (algorithms × machines × n × p × faults)
  millionrank  strong-scaling study on the events backend, up to p = 2^20 ranks
  tssweep      GK-vs-Cannon winner as the startup time ts varies
  saturation   fixed-size speedup saturation (Section 3)
  all          regenerate the complete reproduction in one run

formulation keys (-alg, trace -op): `+strings.Join(core.Keys(), ", "))
}

func paramFlags(fs *flag.FlagSet, ts, tw float64) (*float64, *float64) {
	return fs.Float64("ts", ts, "message startup time (flop units)"),
		fs.Float64("tw", tw, "per-word transfer time (flop units)")
}

func cmdTable1(args []string) error {
	fs := flag.NewFlagSet("table1", flag.ExitOnError)
	ts, tw := paramFlags(fs, 150, 3)
	fs.Parse(args)
	fmt.Print(experiments.Table1(model.Params{Ts: *ts, Tw: *tw}))
	return nil
}

func cmdRegions(args []string) error {
	fs := flag.NewFlagSet("regions", flag.ExitOnError)
	fig := fs.Int("fig", 1, "figure number (1, 2 or 3)")
	pmax := fs.Int("pmax", 30, "largest p as a power of two exponent")
	nmax := fs.Int("nmax", 16, "largest n as a power of two exponent")
	csv := fs.Bool("csv", false, "emit CSV instead of the rendered map")
	fs.Parse(args)
	m, err := experiments.RegionFigure(*fig, *pmax, *nmax)
	if err != nil {
		return err
	}
	if *csv {
		fmt.Print(m.CSV())
		return nil
	}
	fmt.Printf("Figure %d\n%s", *fig, m.Render())
	return nil
}

func cmdEfficiency(args []string) error {
	fs := flag.NewFlagSet("efficiency", flag.ExitOnError)
	fig := fs.Int("fig", 4, "figure number (4 or 5)")
	csv := fs.Bool("csv", false, "emit CSV instead of the rendered table")
	asPlot := fs.Bool("plot", false, "draw an ASCII chart instead of the table")
	fs.Parse(args)
	f, err := experiments.EfficiencyFigure(*fig, 0)
	if err != nil {
		return err
	}
	if *csv {
		fmt.Print(f.CSV())
		return nil
	}
	if *asPlot {
		fmt.Print(f.Plot())
		return nil
	}
	fmt.Print(f.Render())
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	algName := fs.String("alg", "auto", "algorithm: "+strings.Join(matscale.SweepAlgorithms(), ", ")+", auto")
	n := fs.Int("n", 64, "matrix dimension")
	p := fs.Int("p", 64, "processors")
	machineName := fs.String("machine", "ncube2", "machine preset: "+machinePresets)
	ts, tw := paramFlags(fs, 150, 3)
	seed := fs.Uint64("seed", 1, "matrix seed")
	aFile := fs.String("a", "", "CSV file for matrix A (random if empty)")
	bFile := fs.String("b", "", "CSV file for matrix B (random if empty)")
	outFile := fs.String("out", "", "write the product as CSV to this file")
	metrics := fs.Bool("metrics", false, "print the per-rank/per-link breakdown (To decomposition)")
	traceFile := fs.String("trace", "", "write a Chrome trace_event JSON to this file (chrome://tracing, Perfetto)")
	grid := fs.Int("grid", 0, "DNS block-grid side (runs DNS with WithDNSGrid; requires -alg dns)")
	faultSpec := fs.String("faults", "", "fault scenario, e.g. 'straggler=3@rank7,loss=0.01,seed=42' (see docs/FAULTS.md)")
	ckptFile := fs.String("checkpoint", "", "write the snapshot of a suspended run to this file (requires -suspend-after)")
	suspendAfter := fs.Uint64("suspend-after", 0, "suspend at the consistent cut after this many event dispatches (requires -checkpoint)")
	resumeFile := fs.String("resume", "", "resume from a snapshot written by an earlier -checkpoint run (same -alg, -n, -p, -machine flags)")
	hostWorkers := fs.Int("workers", 0, "host goroutine workers for the verification multiply (0 = all CPUs; bit-identical at any count)")
	fs.Parse(args)

	m, err := machineForPreset(*machineName, *p, *ts, *tw)
	if err != nil {
		return err
	}

	a := matscale.RandomMatrix(*n, *n, *seed)
	b := matscale.RandomMatrix(*n, *n, *seed+1)
	if *aFile != "" || *bFile != "" {
		if *aFile == "" || *bFile == "" {
			return fmt.Errorf("provide both -a and -b, or neither")
		}
		var err error
		if a, err = readMatrixFile(*aFile); err != nil {
			return err
		}
		if b, err = readMatrixFile(*bFile); err != nil {
			return err
		}
		if a.Rows != *n {
			fmt.Printf("note: using n=%d from %s (overriding -n)\n", a.Rows, *aFile)
			*n = a.Rows
		}
	}

	var opts []matscale.Option
	if *metrics {
		opts = append(opts, matscale.WithMetrics())
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		opts = append(opts, matscale.WithTrace(f))
	}
	if *grid > 0 {
		opts = append(opts, matscale.WithDNSGrid(*grid))
	}
	if *faultSpec != "" {
		fc, err := matscale.ParseFaults(*faultSpec)
		if err != nil {
			return err
		}
		opts = append(opts, matscale.WithFaults(fc))
	}
	if *resumeFile != "" {
		f, err := os.Open(*resumeFile)
		if err != nil {
			return err
		}
		ck, err := matscale.Restore(f)
		f.Close()
		if err != nil {
			return err
		}
		opts = append(opts, matscale.WithResume(ck))
	}
	// The snapshot reaches the file only when a cut is taken, so a run
	// that completes first leaves no empty checkpoint behind.
	var snapshot bytes.Buffer
	if *ckptFile != "" {
		opts = append(opts, matscale.WithCheckpoint(&snapshot))
	}
	if *suspendAfter > 0 {
		opts = append(opts, matscale.WithSuspendAfter(*suspendAfter))
	}

	var res *matscale.Result
	name := *algName
	if name == "auto" && *grid == 0 {
		var sel matscale.Selection
		res, sel, err = matscale.RunAuto(m, a, b, opts...)
		if err == nil {
			name = sel.Name
			fmt.Printf("predicted:  Tp = %.1f (model)\n", sel.PredictedTp)
		}
	} else {
		// "auto" reaches here only with -grid, which selects DNS on the
		// coarse grid.
		alg := matscale.DNS
		if name != "auto" {
			f, ok := core.Lookup(name)
			if !ok {
				return fmt.Errorf("unknown algorithm %q", name)
			}
			alg = f.Run
		}
		res, err = matscale.Run(alg, m, a, b, opts...)
		if err == nil {
			name = res.Algorithm
		}
	}
	var se *matscale.SuspendedError
	if errors.As(err, &se) {
		// Not a failure: the run stopped at its requested cut and the
		// snapshot goes to disk. Exit cleanly with the resume recipe.
		if err := os.WriteFile(*ckptFile, snapshot.Bytes(), 0o666); err != nil {
			return err
		}
		fmt.Printf("suspended:  at event %d (%d-byte snapshot)\n", se.Events, len(se.Snapshot))
		fmt.Printf("checkpoint: written to %s; rerun with -resume %s to finish\n", *ckptFile, *ckptFile)
		return nil
	}
	if err != nil {
		return err
	}

	// The verification product runs on the parallel host kernel: its
	// deterministic ownership partition makes the result bit-identical
	// to matscale.Mul at any -workers count, so the reference is stable
	// no matter how the host parallelism is configured.
	serial, err := matscale.HostMul(a, b, matscale.WithWorkers(*hostWorkers))
	if err != nil {
		return err
	}
	maxDiff := 0.0
	for i := range serial.Data {
		if d := math.Abs(serial.Data[i] - res.C.Data[i]); d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("algorithm:  %s\n", name)
	fmt.Printf("machine:    %s\n", m)
	fmt.Printf("n=%d  p=%d  W=n^3=%.0f\n", *n, *p, res.W())
	fmt.Printf("Tp:         %.1f flop units\n", res.Sim.Tp)
	fmt.Printf("speedup:    %.2f\n", res.Speedup())
	fmt.Printf("efficiency: %.4f\n", res.Efficiency())
	fmt.Printf("overhead:   %.1f (To = p·Tp − W)\n", res.Overhead())
	fmt.Printf("messages:   %d (%d words moved)\n", res.Sim.Messages, res.Sim.Words)
	if *faultSpec != "" {
		fmt.Printf("faults:     %s (%d retries, %.1f retry time)\n", *faultSpec, res.Sim.Retries, res.Sim.RetryTime)
	}
	fmt.Printf("verified:   max |C - serial| = %g\n", maxDiff)
	if *metrics && res.Metrics != nil {
		printMetrics(res.Metrics)
	}
	if *traceFile != "" {
		fmt.Printf("trace:      written to %s\n", *traceFile)
	}
	if *outFile != "" {
		if err := writeMatrixFile(*outFile, res.C); err != nil {
			return err
		}
		fmt.Printf("product:    written to %s\n", *outFile)
	}
	return nil
}

// machinePresets lists the presets every -machine flag accepts.
const machinePresets = "ncube2, fast, simd, cm5, custom"

// machineForPreset builds the simulated machine the run/robust commands
// share: a named preset, or a custom hypercube from -ts/-tw.
func machineForPreset(name string, p int, ts, tw float64) (*matscale.Machine, error) {
	build, _, _, ok := machine.LookupPreset(name, ts, tw)
	if !ok {
		return nil, fmt.Errorf("unknown machine %q", name)
	}
	return build(p)
}

// cmdRobust answers "how robust is each formulation to this fault
// scenario": it runs every keyed formulation that applies, clean and
// under the injected faults on the same machine and matrices, and
// tabulates the slowdown, retry overhead, and critical-rank shift.
func cmdRobust(args []string) error {
	fs := flag.NewFlagSet("robust", flag.ExitOnError)
	n := fs.Int("n", 16, "matrix dimension")
	p := fs.Int("p", 64, "processors")
	machineName := fs.String("machine", "ncube2", "machine preset: "+machinePresets)
	ts, tw := paramFlags(fs, 150, 3)
	seed := fs.Uint64("seed", 1, "matrix seed")
	faultSpec := fs.String("faults", "straggler=2@rank0,seed=42", "fault scenario to inject (see docs/FAULTS.md)")
	fs.Parse(args)

	m, err := machineForPreset(*machineName, *p, *ts, *tw)
	if err != nil {
		return err
	}
	fc, err := matscale.ParseFaults(*faultSpec)
	if err != nil {
		return err
	}
	a := matscale.RandomMatrix(*n, *n, *seed)
	b := matscale.RandomMatrix(*n, *n, *seed+1)

	fmt.Printf("robustness of the formulations on %s, n=%d\n", m, *n)
	fmt.Printf("faults: %s\n\n", *faultSpec)
	fmt.Printf("%-10s %12s %12s %9s %8s %11s %9s\n",
		"algorithm", "clean Tp", "faulted Tp", "slowdown", "retries", "retry time", "crit rank")
	// DNS needs p ≥ n² at one element per processor; on smaller machines
	// run it on its q×q×q block grid when p is a perfect cube.
	var dnsOpts []matscale.Option
	if q := int(math.Round(math.Cbrt(float64(*p)))); q*q*q == *p && *p < *n**n && *n%q == 0 {
		dnsOpts = append(dnsOpts, matscale.WithDNSGrid(q))
	}
	ran := 0
	for _, key := range core.Keys() {
		f, _ := core.Lookup(key)
		var opts []matscale.Option
		if key == "dns" {
			opts = dnsOpts
		}
		clean, err := matscale.Run(f.Run, m, a, b,
			append(opts, matscale.WithMetrics())...)
		if err != nil {
			fmt.Printf("%-10s %12s\n", key, "n/a: "+err.Error())
			continue
		}
		faulted, err := matscale.Run(f.Run, m, a, b,
			append(opts, matscale.WithFaults(fc), matscale.WithMetrics())...)
		if err != nil {
			return fmt.Errorf("%s under faults: %w", key, err)
		}
		shift := fmt.Sprintf("%d", faulted.Metrics.CriticalRank)
		if from, to, moved := faulted.Metrics.CriticalRankShift(clean.Metrics.Metrics); moved {
			shift = fmt.Sprintf("%d→%d", from, to)
		}
		fmt.Printf("%-10s %12.1f %12.1f %8.2fx %8d %11.1f %9s\n",
			key, clean.Sim.Tp, faulted.Sim.Tp, faulted.Sim.Tp/clean.Sim.Tp,
			faulted.Sim.Retries, faulted.Sim.RetryTime, shift)
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no formulation is applicable to n=%d, p=%d", *n, *p)
	}
	return nil
}

// printMetrics renders the per-rank/per-link breakdown collected with
// WithMetrics: the To decomposition of the run.
func printMetrics(mt *matscale.Metrics) {
	fmt.Println()
	fmt.Printf("measured overhead decomposition (p·Tp − W = %.1f):\n", mt.Overhead)
	fmt.Printf("  total compute: %12.1f\n", mt.TotalCompute)
	fmt.Printf("  total send:    %12.1f\n", mt.TotalComm)
	fmt.Printf("  total idle:    %12.1f\n", mt.TotalIdle)
	fmt.Printf("  comm/compute:  %12.4f\n", mt.CommComputeRatio)
	fmt.Printf("  load imbal.:   %12.4f (critical rank %d)\n", mt.LoadImbalance, mt.CriticalRank)
	if d := mt.Degradation; d != nil {
		fmt.Println()
		fmt.Println("fault-induced degradation:")
		fmt.Printf("  straggler extra compute: %12.1f (ranks %v)\n", d.StragglerExtraCompute, d.StraggledRanks)
		fmt.Printf("  retry comm overhead:     %12.1f (%d retries)\n", d.RetryComm, d.Retries)
		fmt.Printf("  critical rank:           %12d\n", d.CriticalRank)
	}
	fmt.Println()
	fmt.Printf("%6s %12s %12s %12s %12s %6s %6s %8s %8s\n",
		"rank", "compute", "send", "recv_wait", "idle", "sent", "recvd", "w_sent", "w_recvd")
	for _, r := range mt.Ranks {
		fmt.Printf("%6d %12.1f %12.1f %12.1f %12.1f %6d %6d %8d %8d\n",
			r.Rank, r.Compute, r.Send, r.RecvWait, r.Idle,
			r.MsgsSent, r.MsgsRecvd, r.WordsSent, r.WordsRecvd)
	}
	if len(mt.Links) == 0 {
		return
	}
	// Busiest links first; show at most ten.
	links := append([]matscale.LinkMetrics(nil), mt.Links...)
	sort.Slice(links, func(i, j int) bool { return links[i].Busy > links[j].Busy })
	if len(links) > 10 {
		links = links[:10]
	}
	fmt.Println()
	fmt.Printf("busiest links (%d of %d):\n", len(links), len(mt.Links))
	fmt.Printf("%6s %6s %6s %8s %12s %8s\n", "from", "to", "msgs", "words", "busy", "util")
	for _, l := range links {
		fmt.Printf("%6d %6d %6d %8d %12.1f %8.4f\n",
			l.From, l.To, l.Msgs, l.Words, l.Busy, l.Utilization(mt.Tp))
	}
}

func readMatrixFile(path string) (*matscale.Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return matscale.ReadCSV(f)
}

func writeMatrixFile(path string, m *matscale.Matrix) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return matscale.WriteCSV(f, m)
}

// cmdMillionRank runs the strong-scaling study of the events backend:
// Cannon and GK at up to p = n² ranks (2^20 at the default n) on the
// hypercube and mesh presets. The default grid takes a couple of
// minutes of wall time; the virtual-time output is deterministic.
func cmdMillionRank(args []string) error {
	fs := flag.NewFlagSet("millionrank", flag.ExitOnError)
	n := fs.Int("n", 1024, "matrix dimension (power of two); the study tops out at p = n² ranks")
	fs.Parse(args)
	return experiments.MillionRankStudy(os.Stdout, *n)
}

func cmdIsoeff(args []string) error {
	fs := flag.NewFlagSet("isoeff", flag.ExitOnError)
	ts, tw := paramFlags(fs, 150, 3)
	e := fs.Float64("e", 0.5, "target efficiency")
	fs.Parse(args)
	pr := model.Params{Ts: *ts, Tw: *tw}
	fmt.Printf("Isoefficiency curves (ts=%g, tw=%g, E=%g): problem size W needed to hold E\n", *ts, *tw, *e)
	fmt.Printf("%8s", "p")
	var specs []*model.Spec
	for _, f := range core.Formulations {
		if f.Table1 != nil {
			specs = append(specs, f.Table1)
			fmt.Printf(" %14s", f.Name)
		}
	}
	fmt.Println()
	for exp := 4; exp <= 24; exp += 4 {
		p := math.Pow(2, float64(exp))
		fmt.Printf("    2^%-2d", exp)
		for _, s := range specs {
			if s.Ceiling != nil && *e >= s.Ceiling(*ts, *tw) {
				fmt.Printf(" %14s", "E>ceiling")
				continue
			}
			w, ok := iso.SolveW(func(n, q float64) float64 { return s.To(pr, n, q) }, p, *e)
			if !ok {
				fmt.Printf(" %14s", "-")
				continue
			}
			fmt.Printf(" %14.3g", w)
		}
		fmt.Println()
	}
	return nil
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	ts, tw := paramFlags(fs, 150, 3)
	fs.Parse(args)
	fmt.Print(experiments.CrossoverReport(model.Params{Ts: *ts, Tw: *tw}))
	return nil
}

func cmdAllPort(args []string) error {
	fs := flag.NewFlagSet("allport", flag.ExitOnError)
	ts, tw := paramFlags(fs, 10, 3)
	fs.Parse(args)
	fmt.Print(experiments.AllPortReport(model.Params{Ts: *ts, Tw: *tw}))
	return nil
}

func cmdTech(args []string) error {
	fs := flag.NewFlagSet("tech", flag.ExitOnError)
	ts, tw := paramFlags(fs, 0.5, 3)
	p := fs.Float64("p", 1<<14, "processor count")
	e := fs.Float64("e", 0.05, "target efficiency")
	k := fs.Float64("k", 2, "scaling factor")
	fs.Parse(args)
	s, err := experiments.TechnologyReport(model.Params{Ts: *ts, Tw: *tw}, *p, *e, *k)
	if err != nil {
		return err
	}
	fmt.Print(s)
	return nil
}

func cmdImproved(args []string) error {
	fs := flag.NewFlagSet("improved", flag.ExitOnError)
	ts, tw := paramFlags(fs, 9, 1)
	p := fs.Int("p", 512, "processor count (power of 8)")
	fs.Parse(args)
	s, err := experiments.ImprovedGKReport(model.Params{Ts: *ts, Tw: *tw}, *p)
	if err != nil {
		return err
	}
	fmt.Print(s)
	return nil
}
