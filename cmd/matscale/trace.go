package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"matscale/internal/collective"
	"matscale/internal/core"
	"matscale/internal/experiments"
	"matscale/internal/machine"
	"matscale/internal/matrix"
	"matscale/internal/simulator"
)

// cmdTrace renders the virtual-time schedule of one collective
// operation — the building blocks whose closed-form costs underpin
// every equation in the paper — or of a formulation, on n = 4·NStep(p).
// C = computing, S = sending, . = waiting.
// With -chrome the same trace is also written as Chrome trace_event
// JSON for chrome://tracing or Perfetto.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	op := fs.String("op", "broadcast", "operation: broadcast, allgather, reduce, reducescatter, alltoall, allreduce, or a formulation: "+strings.Join(core.Keys(), ", "))
	p := fs.Int("p", 8, "processors (power of two)")
	words := fs.Int("m", 64, "message words per processor")
	ts, tw := paramFlags(fs, 17, 3)
	width := fs.Int("width", 72, "timeline width in columns")
	chrome := fs.String("chrome", "", "also write the trace as Chrome trace_event JSON to this file")
	fs.Parse(args)

	m := machine.Hypercube(*p, *ts, *tw)
	m.CollectTrace = true
	group := make([]int, *p)
	for i := range group {
		group[i] = i
	}
	one := func() []float64 { return make([]float64, *words) }    // one message
	all := func() []float64 { return make([]float64, *words**p) } // one per rank
	collectives := map[string]func(pr *simulator.Proc){
		"broadcast": func(pr *simulator.Proc) {
			var data []float64
			if pr.Rank() == 0 {
				data = one()
			}
			collective.Broadcast(pr, group, 0, 1, data)
		},
		"allgather":     func(pr *simulator.Proc) { collective.AllGather(pr, group, 1, one()) },
		"reduce":        func(pr *simulator.Proc) { collective.Reduce(pr, group, 0, 1, one()) },
		"reducescatter": func(pr *simulator.Proc) { collective.ReduceScatter(pr, group, 1, all()) },
		"alltoall":      func(pr *simulator.Proc) { collective.AllToAll(pr, group, 1, all()) },
		"allreduce":     func(pr *simulator.Proc) { collective.AllReduce(pr, group, 1, all()) },
	}

	var sim *simulator.Result
	var err error
	if f, ok := core.Lookup(*op); ok {
		// A formulation traces the algorithm itself: its phases (for GK,
		// distribute A and B, multiply, reduce) show in the timeline.
		if f.NStep == nil || f.NStep(*p) == 0 {
			return fmt.Errorf("%w for %s at p=%d", experiments.ErrNoProcessorGrid, f.Name, *p)
		}
		n := 4 * f.NStep(*p)
		res, err := f.Run(m, matrix.RandomInts(n, n, 1), matrix.RandomInts(n, n, 2))
		if err != nil {
			return err
		}
		sim = res.Sim
		fmt.Printf("%s algorithm, n=%d, %s\n", f.Name, n, m)
	} else if body, ok := collectives[*op]; ok {
		if sim, err = simulator.Run(m, body); err != nil {
			return err
		}
		fmt.Printf("%s over %d processors, %d words, %s\n", *op, *p, *words, m)
	} else {
		return fmt.Errorf("unknown operation %q", *op)
	}
	fmt.Print(sim.Trace.Timeline(*width))
	fmt.Printf("Tp = %.1f   messages = %d   words moved = %d\n", sim.Tp, sim.Messages, sim.Words)
	if *chrome == "" {
		return nil
	}
	f, err := os.Create(*chrome)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := sim.Trace.WriteChromeTrace(f); err != nil {
		return err
	}
	fmt.Printf("chrome trace written to %s\n", *chrome)
	return nil
}
