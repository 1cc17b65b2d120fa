// Package core implements the parallel matrix multiplication
// algorithms analyzed by the paper, running them for real on the
// virtual-time multicomputer of internal/simulator:
//
//   - Simple     — the all-to-all broadcast algorithm of Section 4.1
//   - Cannon     — Cannon's algorithm, Section 4.2 (Eq. 3)
//   - Fox        — Fox's algorithm, Section 4.3, binomial-broadcast and
//     pipelined variants (Eq. 4)
//   - Berntsen   — Berntsen's subcube algorithm, Section 4.4 (Eq. 5)
//   - DNS        — the Dekel–Nassimi–Sahni algorithm with more than one
//     element per processor, Section 4.5.2 (Eq. 6)
//   - GK         — the paper's own contribution, Section 4.6 (Eq. 7),
//     plus the improved-broadcast variant of Section 5.4.1 and the
//     CM-5 variant of Section 9 (Eq. 18)
//   - SimpleAllPort, GKAllPort — the all-port variants of Section 7
//     (Eqs. 16–17)
//
// Every algorithm distributes the input blocks (untimed setup),
// executes the timed communication and computation phases, and gathers
// the product at zero virtual cost for verification. The measured
// parallel time of each algorithm equals the paper's closed-form
// expression for it; the tests assert this equality exactly.
package core

import (
	"fmt"

	"matscale/internal/machine"
	"matscale/internal/matrix"
	"matscale/internal/simulator"
	"matscale/internal/topology"
)

// Result is the outcome of one parallel multiplication.
type Result struct {
	C   *matrix.Dense     // the assembled product
	Sim *simulator.Result // virtual-time measurements
	N   int               // matrix dimension
	P   int               // processors used
	// Algorithm is the name of the formulation that produced the
	// result ("Cannon", "GK", ...), stamped by every entry point.
	Algorithm string
	// Metrics is the per-rank/per-link breakdown with the derived
	// scalability quantities, populated when the machine had
	// CollectMetrics set (e.g. via matscale.Run with WithMetrics);
	// nil otherwise.
	Metrics *Metrics
}

// Metrics enriches the simulator's per-rank/per-link breakdown with
// the derived quantities of the paper's analysis for problem size
// W = n³.
type Metrics struct {
	*simulator.Metrics

	W float64 // problem size n³
	// Overhead is the measured total overhead To = p·Tp − W
	// (Section 2) — the quantity whose growth with p determines every
	// isoefficiency result in the paper.
	Overhead float64
	// CommComputeRatio is total charged communication time over total
	// compute time.
	CommComputeRatio float64
	// LoadImbalance is max over mean per-rank busy time (1.0 =
	// perfectly balanced).
	LoadImbalance float64
	// CriticalRank is the lowest rank finishing at Tp.
	CriticalRank int
	// TotalCompute, TotalComm and TotalIdle decompose p·Tp: the Σ of
	// the per-rank Compute, Send and Idle columns. TotalComm +
	// TotalIdle equals the measured Overhead when W = TotalCompute.
	TotalCompute float64
	TotalComm    float64
	TotalIdle    float64
}

// deriveMetrics computes the derived quantities from the simulator's
// raw breakdown.
func deriveMetrics(sm *simulator.Metrics, w float64) *Metrics {
	return &Metrics{
		Metrics:          sm,
		W:                w,
		Overhead:         sm.Overhead(w),
		CommComputeRatio: sm.CommComputeRatio(),
		LoadImbalance:    sm.LoadImbalance(),
		CriticalRank:     sm.CriticalRank(),
		TotalCompute:     sm.TotalCompute(),
		TotalComm:        sm.TotalComm(),
		TotalIdle:        sm.TotalIdle(),
	}
}

// newResult assembles the Result every algorithm returns, stamping the
// algorithm name and deriving Metrics when the run collected them.
func newResult(name string, c *matrix.Dense, sim *simulator.Result, n, p int) *Result {
	r := &Result{Algorithm: name, C: c, Sim: sim, N: n, P: p}
	if sim.Metrics != nil {
		r.Metrics = deriveMetrics(sim.Metrics, r.W())
	}
	return r
}

// W returns the problem size W = n³ (Section 2).
func (r *Result) W() float64 { return float64(r.N) * float64(r.N) * float64(r.N) }

// Efficiency returns E = W/(p·Tp).
func (r *Result) Efficiency() float64 { return r.Sim.Efficiency(r.W()) }

// Speedup returns S = W/Tp.
func (r *Result) Speedup() float64 { return r.Sim.Speedup(r.W()) }

// Overhead returns To = p·Tp − W.
func (r *Result) Overhead() float64 { return r.Sim.Overhead(r.W()) }

// Algorithm runs a parallel multiplication of two n×n matrices on m.
type Algorithm func(m *machine.Machine, a, b *matrix.Dense) (*Result, error)

// checkInputs validates the common preconditions.
func checkInputs(m *machine.Machine, a, b *matrix.Dense) (n int, err error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	if !a.IsSquare() || !b.IsSquare() || a.Rows != b.Rows {
		return 0, fmt.Errorf("core: need equal square matrices, got %dx%d and %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	return a.Rows, nil
}

// squareMeshSide returns √p for algorithms that need a square processor
// mesh with √p dividing n.
func squareMeshSide(n, p int) (int, error) {
	q := topology.IntSqrt(p)
	if q*q != p {
		return 0, fmt.Errorf("core: p = %d is not a perfect square", p)
	}
	if n%q != 0 {
		return 0, fmt.Errorf("core: mesh side %d does not divide n = %d", q, n)
	}
	return q, nil
}

// cubeSide returns p^(1/3) for algorithms on the 3-D processor grid,
// requiring p a perfect cube (a power of 8 on a hypercube) and the side
// dividing n.
func cubeSide(n, p int) (int, error) {
	q := topology.IntCbrt(p)
	if q*q*q != p {
		return 0, fmt.Errorf("core: p = %d is not a perfect cube", p)
	}
	if _, ok := topology.Log2(q); !ok {
		return 0, fmt.Errorf("core: cube side %d is not a power of two", q)
	}
	if n%q != 0 {
		return 0, fmt.Errorf("core: cube side %d does not divide n = %d", q, n)
	}
	return q, nil
}

// wire converts between matrix blocks and message payloads.
func blockData(m *matrix.Dense) []float64 { return m.Data }

func blockFrom(data []float64, rows, cols int) *matrix.Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("core: payload of %d words is not a %dx%d block", len(data), rows, cols))
	}
	return &matrix.Dense{Rows: rows, Cols: cols, Data: data}
}

// recvBlock receives the next (src, tag) payload and views it as a
// rows×cols block without copying. The block's backing buffer is owned
// by the caller; hand it to releaseBlock when the block is dead to keep
// the message path allocation-free.
func recvBlock(pr *simulator.Proc, src, tag, rows, cols int) *matrix.Dense {
	return blockFrom(pr.Recv(src, tag), rows, cols)
}

// releaseBlock recycles the backing buffer of a block produced by
// recvBlock (or any block whose buffer the caller owns exclusively).
// The block must not be used afterwards.
func releaseBlock(pr *simulator.Proc, blk *matrix.Dense) {
	pr.Recycle(blk.Data)
}

// allRanks returns [0, p).
func allRanks(p int) []int {
	out := make([]int, p)
	for i := range out {
		out[i] = i
	}
	return out
}

// gatherGrid collects one block per processor at rank 0 (zero cost,
// verification only) and assembles the n×n product. ranks is indexed
// [i*gc+j] giving the rank holding block (i, j). gatherGrid consumes
// mine: senders give the block away on the zero-copy path and the root
// recycles received payloads, so callers must not use mine afterwards.
func gatherGrid(pr *simulator.Proc, ranks []int, gr, gc int, tag int, mine *matrix.Dense, out **matrix.Dense) {
	if pr.Rank() != ranks[0] {
		for _, r := range ranks {
			if r == pr.Rank() {
				pr.SendFreeOwned(ranks[0], tag, blockData(mine))
				return
			}
		}
		return // not a holder of any block
	}
	h, w := mine.Rows, mine.Cols
	c := matrix.New(gr*h, gc*w)
	for i := 0; i < gr; i++ {
		for j := 0; j < gc; j++ {
			r := ranks[i*gc+j]
			if r == pr.Rank() {
				c.SetBlock(i*h, j*w, mine)
				continue
			}
			blk := recvBlock(pr, r, tag, h, w)
			c.SetBlock(i*h, j*w, blk)
			releaseBlock(pr, blk)
		}
	}
	*out = c
}

// tagGatherC is the tag of the final verification gather, above every
// algorithm phase's tag range so it never collides with a collective.
const tagGatherC = 1 << 20
