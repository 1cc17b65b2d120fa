package main

import (
	"flag"
	"fmt"
	"os"

	"matscale/internal/collective"
	"matscale/internal/core"
	"matscale/internal/machine"
	"matscale/internal/matrix"
	"matscale/internal/simulator"
	"matscale/internal/topology"
)

// cmdTrace renders the virtual-time schedule of one collective
// operation — the building blocks whose closed-form costs underpin
// every equation in the paper. C = computing, S = sending, . = waiting.
// With -chrome the same trace is also written as Chrome trace_event
// JSON for chrome://tracing or Perfetto.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	op := fs.String("op", "broadcast", "operation: broadcast, allgather, reduce, reducescatter, alltoall, allreduce, gk")
	p := fs.Int("p", 8, "processors (power of two)")
	words := fs.Int("m", 64, "message words per processor")
	ts, tw := paramFlags(fs, 17, 3)
	width := fs.Int("width", 72, "timeline width in columns")
	chrome := fs.String("chrome", "", "also write the trace as Chrome trace_event JSON to this file")
	fs.Parse(args)

	exportChrome := func(tr *simulator.Trace) error {
		if *chrome == "" {
			return nil
		}
		f, err := os.Create(*chrome)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := tr.WriteChromeTrace(f); err != nil {
			return err
		}
		fmt.Printf("chrome trace written to %s\n", *chrome)
		return nil
	}

	m := machine.Hypercube(*p, *ts, *tw)
	m.CollectTrace = true
	group := make([]int, *p)
	for i := range group {
		group[i] = i
	}

	var body func(pr *simulator.Proc)
	switch *op {
	case "broadcast":
		body = func(pr *simulator.Proc) {
			var data []float64
			if pr.Rank() == 0 {
				data = make([]float64, *words)
			}
			collective.Broadcast(pr, group, 0, 1, data)
		}
	case "allgather":
		body = func(pr *simulator.Proc) {
			collective.AllGather(pr, group, 1, make([]float64, *words))
		}
	case "reduce":
		body = func(pr *simulator.Proc) {
			collective.Reduce(pr, group, 0, 1, make([]float64, *words))
		}
	case "reducescatter":
		body = func(pr *simulator.Proc) {
			collective.ReduceScatter(pr, group, 1, make([]float64, *words**p))
		}
	case "alltoall":
		body = func(pr *simulator.Proc) {
			collective.AllToAll(pr, group, 1, make([]float64, *words**p))
		}
	case "allreduce":
		body = func(pr *simulator.Proc) {
			collective.AllReduce(pr, group, 1, make([]float64, *words**p))
		}
	case "gk":
		// Trace the paper's algorithm itself: its three-stage structure
		// (distribute A and B, multiply, reduce) shows in the timeline.
		n := 4 * topology.IntCbrt(*p)
		res, err := core.GK(m, matrix.RandomInts(n, n, 1), matrix.RandomInts(n, n, 2))
		if err != nil {
			return err
		}
		tr := res.Sim.Trace
		fmt.Printf("GK algorithm, n=%d, %s\n", n, m)
		fmt.Print(tr.Timeline(*width))
		fmt.Printf("Tp = %.1f   messages = %d   words moved = %d\n", res.Sim.Tp, res.Sim.Messages, res.Sim.Words)
		return exportChrome(tr)
	default:
		return fmt.Errorf("unknown operation %q", *op)
	}

	res, err := simulator.Run(m, body)
	if err != nil {
		return err
	}
	fmt.Printf("%s over %d processors, %d words, %s\n", *op, *p, *words, m)
	fmt.Print(res.Trace.Timeline(*width))
	fmt.Printf("Tp = %.1f   messages = %d   words moved = %d\n", res.Tp, res.Messages, res.Words)
	return exportChrome(res.Trace)
}
