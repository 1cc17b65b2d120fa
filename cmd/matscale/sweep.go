package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"matscale"
)

// cmdGridSweep runs a whole experiment grid — the cross product of
// algorithms × machines × processor counts × matrix sizes × optional
// fault scenarios — fanning the independent simulations over a host
// worker pool. For a fixed spec the emitted CSV/JSON/table bytes are
// identical at every -jobs value; see docs/SWEEP.md.
func cmdGridSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	algs := fs.String("alg", "cannon,gk", "comma-separated algorithms: "+strings.Join(matscale.SweepAlgorithms(), ", "))
	machines := fs.String("machine", "ncube2", "comma-separated machine presets: "+machinePresets)
	ns := fs.String("n", "16,32", "comma-separated matrix dimensions")
	ps := fs.String("p", "16,64", "comma-separated processor counts")
	faultsList := fs.String("faults", "", "semicolon-separated fault scenarios; an empty entry is a clean run (docs/FAULTS.md)")
	seed := fs.Uint64("seed", 1, "matrix seed")
	ts, tw := paramFlags(fs, 150, 3)
	jobs := fs.Int("jobs", 0, "host worker goroutines (0 = all CPUs); never changes the output bytes")
	csvPath := fs.String("csv", "", "write the cells as CSV to this file ('-' for stdout)")
	jsonPath := fs.String("json", "", "write the full result as JSON to this file ('-' for stdout)")
	progress := fs.Bool("progress", false, "print each cell to stderr as it completes")
	fs.Parse(args)

	spec := &matscale.SweepSpec{
		Algorithms: splitList(*algs),
		Machines:   splitList(*machines),
		Ts:         *ts, Tw: *tw,
		Seed: *seed,
	}
	var err error
	if spec.Ps, err = splitInts(*ps); err != nil {
		return fmt.Errorf("-p: %w", err)
	}
	if spec.Ns, err = splitInts(*ns); err != nil {
		return fmt.Errorf("-n: %w", err)
	}
	if *faultsList != "" {
		for _, f := range strings.Split(*faultsList, ";") {
			spec.Faults = append(spec.Faults, strings.TrimSpace(f))
		}
	}

	opts := []matscale.Option{matscale.WithWorkers(*jobs)}
	if *progress {
		opts = append(opts, matscale.WithProgress(func(done, total int, c matscale.SweepCell) {
			status := fmt.Sprintf("Tp=%.1f", c.Tp)
			if c.Err != "" {
				status = "n/a: " + c.Err
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s %s\n", done, total, c.Key(), status)
		}))
	}

	res, err := matscale.Sweep(spec, opts...)
	if err != nil {
		return err
	}

	wrote := false
	if *csvPath != "" {
		if err := writeSink(*csvPath, func(w io.Writer) error { return res.WriteCSV(w) }); err != nil {
			return err
		}
		wrote = true
	}
	if *jsonPath != "" {
		if err := writeSink(*jsonPath, func(w io.Writer) error { return res.WriteJSON(w) }); err != nil {
			return err
		}
		wrote = true
	}
	if !wrote {
		fmt.Print(res.Render())
	}
	fmt.Fprintf(os.Stderr, "sweep: %d cells ran, %d inapplicable, %d prediction cache hits\n",
		res.Ran, res.Skipped, res.PredCacheHits)
	return nil
}

// writeSink writes through emit to path, with "-" meaning stdout.
func writeSink(path string, emit func(io.Writer) error) error {
	if path == "-" {
		return emit(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// splitList splits a comma-separated flag value, dropping empty and
// whitespace-only entries.
func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// splitInts parses a comma-separated list of integers.
func splitInts(s string) ([]int, error) {
	var out []int
	for _, v := range splitList(s) {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", v)
		}
		out = append(out, n)
	}
	return out, nil
}
