package experiments

import (
	"fmt"
	"io"
	"sync"

	"matscale/internal/core"
	"matscale/internal/machine"
	"matscale/internal/matrix"
)

// MillionRankStudy renders the strong-scaling study the events backend
// unlocks: Cannon's algorithm and the GK algorithm on n×n matrices at
// processor counts the goroutine engine cannot reach — up to p = n²,
// one matrix element per processor, which is 2^20 ranks at the
// default n = 1024 — on the paper's nCUBE-2-like hypercube and
// a wraparound mesh with the same cost constants. Every run executes
// on the events backend, the presets' default, and reports the usual
// virtual-time quantities, so the table extends the paper's
// fixed-problem-size speedup analysis (Section 3) into the
// million-rank regime: Cannon's efficiency collapses as
// 2·ts·√p + 2·tw·n²/√p overwhelms n³/p, and GK holds on longer at its
// p = q³ sizes. Every row is measured through Formulation.Measure, so
// on these machines it is timed from the formulation's skeleton alone,
// with no operands and no product. Results and the wall-clock story
// are discussed in docs/BACKENDS.md.
//
// The output is deterministic for a fixed n: virtual time is
// independent of the event schedule and of the operands' values, which
// are seeded should a row ever need them.
func MillionRankStudy(w io.Writer, n int) error {
	if n < 4 || n&(n-1) != 0 {
		return fmt.Errorf("experiments: million-rank study needs a power-of-two n ≥ 4, got %d", n)
	}
	operands := sync.OnceValue(func() [2]*matrix.Dense {
		return [2]*matrix.Dense{matrix.Random(n, n, 1), matrix.Random(n, n, 2)}
	})

	type row struct {
		alg  string // formulation key
		mach string
		p    int
	}
	var rows []row
	// Cannon strong-scales on √p × √p grids from p = (n/32)² up to the
	// one-element-per-processor limit p = n².
	for q := max(2, n/32); q <= n; q *= 2 {
		rows = append(rows, row{"cannon", "ncube2", q * q})
	}
	for q := max(2, n/32); q <= n; q *= 2 {
		rows = append(rows, row{"cannon", "mesh", q * q})
	}
	// GK runs at its structural sizes p = q³ (q | n); the mesh preset
	// additionally needs p to be a perfect square (a √p × √p torus), so
	// only q values that are themselves squares qualify there.
	for _, q := range []int{8, 16, 32} {
		if n%q == 0 && q*q*q <= n*n {
			rows = append(rows, row{"gk", "ncube2", q * q * q})
		}
	}
	for _, q := range []int{4, 16} {
		if n%q == 0 && q*q*q <= n*n {
			rows = append(rows, row{"gk", "mesh", q * q * q})
		}
	}

	work := float64(n) * float64(n) * float64(n) // W = n³
	fmt.Fprintf(w, "strong scaling on the events backend — n=%d, W=n³=%.0f flops\n", n, work)
	fmt.Fprintf(w, "%-8s %-7s %9s %16s %12s %12s %12s\n",
		"alg", "machine", "p", "Tp", "speedup", "efficiency", "messages")
	for _, r := range rows {
		var m *machine.Machine
		switch r.mach {
		case "ncube2":
			m = machine.NCube2(r.p)
		case "mesh":
			m = machine.Mesh(r.p, 150, 3)
		}
		f, _ := core.Lookup(r.alg)
		sim, err := f.Measure(m, n, operands)
		if err != nil {
			fmt.Fprintf(w, "%-8s %-7s %9d n/a: %v\n", r.alg, r.mach, r.p, err)
			continue
		}
		fmt.Fprintf(w, "%-8s %-7s %9d %16.1f %12.2f %12.6f %12d\n",
			r.alg, r.mach, r.p, sim.Tp, sim.Speedup(work), sim.Efficiency(work), sim.Messages)
	}
	return nil
}
