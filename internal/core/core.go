// Package core implements the parallel matrix multiplication
// algorithms analyzed by the paper, running them for real on the
// virtual-time multicomputer of internal/simulator:
//
//   - Simple     — the all-to-all broadcast algorithm of Section 4.1,
//     with the all-port SimpleAllPort of Section 7.1 (Eq. 16) and its
//     memory-efficient counterpart SimpleMemEfficientAllPort
//   - Cannon     — Cannon's algorithm, Section 4.2 (Eq. 3)
//   - Fox        — Fox's algorithm, Section 4.3, in five executions:
//     binomial broadcast (Fox), charged pipeline (FoxPipelined, Eq. 4),
//     mesh relay (FoxMesh), real packet pipeline (FoxPacketPipelined)
//     and asynchronous (FoxAsync)
//   - Berntsen   — Berntsen's subcube algorithm, Section 4.4 (Eq. 5)
//   - DNS        — the Dekel–Nassimi–Sahni algorithm with more than one
//     element per processor, Section 4.5.2 (Eq. 6)
//   - GK         — the paper's own contribution, Section 4.6 (Eq. 7, and
//     Eq. 18 on the CM-5 of Section 9), with the improved-broadcast
//     GKImprovedBroadcast of Section 5.4.1 and the all-port GKAllPort of
//     Section 7.2 (Eq. 17)
//
// Formulations, the formulation table, holds one row per algorithm:
// its key, name, Algorithm, timed skeleton, paper equation, the Checks
// (small cells and machines) its equation is checked on, the NStep of
// the matrix sizes its processor grid accepts and, for the four
// algorithms Section 6 compares, its Table 1 entry (overhead,
// applicability, isoefficiency, region letter and efficiency ceiling);
// the row's Measure method times a sweep cell. A family's variants
// differ only in data. Each Fox execution is a foxVariant
// (its row delivery of A, tags, barrier and, for the broadcast
// variants, the skeleton's broadcast cost) run by the one foxImpl loop;
// each GK variant is a gkVariant (its per-stage charge, nil for
// binomial trees) run by gkImpl. Cannon, the GK variants and Fox's
// broadcast variants also describe their timed skeleton, each in one
// skeletonBuilder that validates the geometry. The simulator's wave
// tier runs the skeleton without a rank program when the machine
// allows it: the Algorithm (through onWave) then builds the product on
// the host in the formulation's own addition order (cannonProduct for
// Cannon and Fox, gkProduct for GK), and Measure stops at the
// measurement, with no operands and no product. Every 2-D mesh
// formulation validates its geometry with squareSide; its rank program
// — Simple, SimpleMemEfficientAllPort, and the Fox loop's and Cannon's
// fallbacks — runs through onMesh, which partitions, runs and gathers.
//
// Every algorithm distributes the input blocks (untimed setup),
// executes the timed communication and computation phases, and gathers
// the product at zero virtual cost for verification. On its Checks,
// each row's measured parallel time equals the exact form of the
// paper's expression for it, where the row has one.
package core

import (
	"fmt"
	"math"
	"slices"

	"matscale/internal/iso"
	"matscale/internal/machine"
	"matscale/internal/matrix"
	"matscale/internal/model"
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

// meshSide validates the inputs of a formulation on a √p × √p
// processor mesh and returns n and the mesh side q (see squareSide).
func meshSide(m *machine.Machine, a, b *matrix.Dense, pow2Err string) (n, q int, err error) {
	n, err = checkInputs(m, a, b)
	if err != nil {
		return 0, 0, err
	}
	q, err = squareSide(n, m.P(), pow2Err)
	return n, q, err
}

// squareSide returns the side q of the √p × √p processor mesh of a
// formulation on n×n operands, requiring p a perfect square, q dividing
// n and, when pow2Err (the error format, given the side) is not empty,
// q a power of two.
func squareSide(n, p int, pow2Err string) (int, error) {
	q := meshStep(p)
	if q == 0 {
		return 0, fmt.Errorf("core: p = %d is not a perfect square", p)
	}
	if n%q != 0 {
		return 0, fmt.Errorf("core: mesh side %d does not divide n = %d", q, n)
	}
	if _, ok := topology.Log2(q); !ok && pow2Err != "" {
		return 0, fmt.Errorf(pow2Err, q)
	}
	return q, nil
}

// Formulation is one row of the formulation table: the one place a
// formulation's key, its name, its rank program, its timed skeleton,
// its paper equation, its check cells, its grid step and its Table 1
// entry meet. Sweeps, Select/RunAuto, the region maps, the experiment
// drivers, the CLI and the per-formulation tests all read rows here.
type Formulation struct {
	// Key names the formulation in sweep specs, -alg flags and cell
	// keys; empty for a formulation no spec names.
	Key string
	// Name is the Result.Algorithm stamp of Run, also used as
	// Selection.Name and in report rows.
	Name string
	Run  Algorithm
	// skeleton builds the timed skeleton Run also runs on the wave tier;
	// nil for the formulations that run only as rank programs.
	skeleton skeletonBuilder
	// PaperTp is the paper's closed-form parallel time for n×n matrices
	// on p processors (Eqs. 2–7; GK on a fully connected network uses
	// Eq. 18). nil when the paper prints no equation for the key, and
	// for the unkeyed rows.
	PaperTp func(pr model.Params, n, p float64, fullyConnected bool) float64
	// Checks are the small cells the row is checked on against its
	// equation; Checks[0] is the row's standard test cell.
	Checks []Check
	// NStep(p) divides every n the row accepts on p processors; it is 0
	// when p has no grid of the row's shape. nil for DNS, whose grid
	// p = n²·r depends on n.
	NStep func(p int) int
	// Table1 is the row's entry in Table 1, set on the four algorithms
	// Section 6 chooses among and nil elsewhere. Their order here is
	// Table 1's: it breaks ties in the region maps and orders reports.
	Table1 *model.Spec
}

// Check is one small cell a formulation is checked on: N×N operands on
// P processors of the machine Machine builds with constants ts and tw,
// where Tp, the exact form of equation Eq, must give the parallel time.
// Tp is nil for a row with no exact form: the product alone is checked.
type Check struct {
	Eq      string
	N, P    int
	Machine func(p int, ts, tw float64) *machine.Machine
	Tp      func(pr model.Params, n, p int) float64
}

// Formulations is the formulation table, one row per Algorithm the
// package exports. Callers read it; none modifies it.
var Formulations = []Formulation{
	{"simple", "Simple", Simple, nil, hypercubeTp(model.PaperSimpleTp),
		[]Check{{"Eq.(2)", 16, 16, machine.Hypercube, model.ExactSimpleTp}}, meshStep, nil},
	{"", "SimpleAllPort", SimpleAllPort, nil, nil,
		[]Check{{"Eq.(16)", 16, 16, allPort, model.ExactSimpleAllPortTp}}, meshStep, nil},
	{"", "SimpleMemEfficientAllPort", SimpleMemEfficientAllPort, nil, nil,
		[]Check{{"§7.1", 16, 16, allPort, model.ExactSimpleMemEffAllPortTp}}, meshStep, nil},
	{"berntsen", "Berntsen", Berntsen, nil, hypercubeTp(model.PaperBerntsenTp),
		[]Check{{"Eq.(5)", 16, 64, machine.Hypercube, model.ExactBerntsenTp}},
		func(p int) int { return cubeStep(p) * cubeStep(p) }, &model.Spec{
			Letter: 'b', To: model.BerntsenTo,
			Overhead: "2·ts·p^(4/3) + (1/3)·ts·p·log p + 3·tw·n²·p^(1/3)",
			// p ≤ n^(3/2) written as p² ≤ n³, which is exact in floating
			// point for power-of-two grids (math.Pow(n, 1.5) is not).
			Applicable:    func(n, p float64) bool { return p >= 1 && p*p <= n*n*n },
			Range:         "1 ≤ p ≤ n^(3/2)",
			Concurrency:   func(n float64) float64 { return math.Pow(n, 1.5) },
			Isoefficiency: "O(p^2)",
		}},
	{"cannon", "Cannon", Cannon, cannonSkeleton, hypercubeTp(model.PaperCannonTp),
		[]Check{{"Eq.(3)", 16, 16, machine.Hypercube, model.ExactCannonTp}}, meshStep, &model.Spec{
			Letter: 'c', To: model.CannonTo,
			Overhead:      "2·ts·p^(3/2) + 2·tw·n²·√p",
			Applicable:    func(n, p float64) bool { return p >= 1 && p <= n*n },
			Range:         "1 ≤ p ≤ n²",
			Concurrency:   func(n float64) float64 { return n * n },
			Isoefficiency: "O(p^1.5)",
		}},
	{"fox", "Fox", Fox, foxBinomial.skeleton, hypercubeTp(model.PaperFoxTp),
		[]Check{{"§4.3", 16, 16, machine.Hypercube, model.ExactFoxTp}}, meshStep, nil},
	{"foxpipe", "FoxPipelined", FoxPipelined, foxPipelined.skeleton, hypercubeTp(model.PaperFoxTp),
		[]Check{{"Eq.(4)", 16, 16, machine.Hypercube, model.ExactFoxPipelinedTp}}, meshStep, nil},
	{"", "FoxAsync", FoxAsync, nil, nil,
		[]Check{{"§4.3 async", 16, 16, machine.Hypercube, nil}}, meshStep, nil},
	{"", "FoxMesh", FoxMesh, nil, nil,
		[]Check{{"§4.3 mesh", 16, 16, machine.Mesh, model.ExactFoxMeshTp}}, meshStep, nil},
	{"", "FoxPacketPipelined", FoxPacketPipelined, nil, nil,
		[]Check{{"§4.3 pkts", 16, 16, machine.Mesh, nil}}, meshStep, nil},
	{"gk", "GK", GK, gkBinomial.skeleton, func(pr model.Params, n, p float64, fullyConnected bool) float64 {
		if fullyConnected {
			return model.PaperGKCM5Tp(pr, n, p)
		}
		return model.PaperGKTp(pr, n, p)
	}, []Check{
		{"Eq.(7)", 16, 64, machine.Hypercube, model.ExactGKTp},
		{"Eq.(18)", 16, 64, cm5, model.ExactGKCM5Tp},
	}, cubeStep, &model.Spec{
		Letter: 'a', To: model.GKTo,
		Overhead:      "(5/3)·ts·p·log p + (5/3)·tw·n²·p^(1/3)·log p",
		Applicable:    func(n, p float64) bool { return p >= 1 && p <= n*n*n },
		Range:         "1 ≤ p ≤ n³",
		Concurrency:   func(n float64) float64 { return n * n * n },
		Isoefficiency: "O(p (log p)^3)",
	}},
	{"gkimproved", "GKImprovedBroadcast", GKImprovedBroadcast, gkImproved.skeleton, nil,
		[]Check{{"§5.4.1", 16, 64, machine.Hypercube, model.ExactGKImprovedTp}}, cubeStep, nil},
	{"", "GKAllPort", GKAllPort, gkAllPort.skeleton, nil,
		[]Check{{"Eq.(17)", 16, 64, allPort, model.ExactGKAllPortTp}}, cubeStep, nil},
	{"dns", "DNS", DNS, nil, hypercubeTp(model.PaperDNSTp),
		[]Check{{"Eq.(6)", 8, 128, machine.Hypercube, func(pr model.Params, n, p int) float64 {
			return model.ExactDNSTp(pr, n, p, n)
		}}}, nil, &model.Spec{
			Letter: 'd', To: model.DNSTo,
			Overhead:      "(ts + tw)·((5/3)·p·log p + 2·n³)",
			Applicable:    func(n, p float64) bool { return p >= n*n && p <= n*n*n },
			Range:         "n² ≤ p ≤ n³",
			Concurrency:   func(n float64) float64 { return n * n * n },
			Isoefficiency: "O(p log p)",
			Ceiling:       iso.MaxEfficiencyDNS,
		}},
}

// hypercubeTp adapts a hypercube equation (Eqs. 2–6) that the paper
// applies on every network.
func hypercubeTp(tp func(model.Params, float64, float64) float64) func(model.Params, float64, float64, bool) float64 {
	return func(pr model.Params, n, p float64, _ bool) float64 { return tp(pr, n, p) }
}

// allPort and cm5 build the all-port hypercube of Section 7 and the
// CM-5 of Section 9 for Check.Machine.
func allPort(p int, ts, tw float64) *machine.Machine {
	return machine.Hypercube(p, ts, tw).WithAllPort(true)
}
func cm5(p int, ts, tw float64) *machine.Machine { return machine.CM5(p).WithCost(ts, tw) }

// meshStep and cubeStep return √p and ∛p, the sides of the 2-D and
// 3-D processor grids, or 0 when p has no such grid (p < 1 has none).
func meshStep(p int) int {
	if p < 1 {
		return 0
	}
	if q := topology.IntSqrt(p); q*q == p {
		return q
	}
	return 0
}

func cubeStep(p int) int {
	if p < 1 {
		return 0
	}
	if q := topology.IntCbrt(p); q*q*q == p {
		return q
	}
	return 0
}

// Keys returns the keys of the keyed rows, sorted.
func Keys() []string {
	var keys []string
	for _, f := range Formulations {
		if f.Key != "" {
			keys = append(keys, f.Key)
		}
	}
	slices.Sort(keys)
	return keys
}

// Lookup returns the formulation registered under key, the names the
// CLI and sweep specs use.
func Lookup(key string) (Formulation, bool) {
	if i := slices.IndexFunc(Formulations, func(f Formulation) bool { return key != "" && f.Key == key }); i >= 0 {
		return Formulations[i], true
	}
	return Formulation{}, false
}

// Measure returns f's virtual-time measurement for n×n operands on m.
// It times f's skeleton alone when f has one and the simulator takes m
// for the wave tier; otherwise it runs f.Run on operands(), which is
// then the only call that builds operands. Both paths return the same
// Result for the same cell, and the same error for a rejected geometry.
func (f Formulation) Measure(m *machine.Machine, n int, operands func() [2]*matrix.Dense) (*simulator.Result, error) {
	if f.skeleton != nil {
		if sim, ok, err := timeSkeleton(m, n, f.skeleton); ok || err != nil {
			return sim, err
		}
	}
	ab := operands()
	res, err := f.Run(m, ab[0], ab[1])
	if err != nil {
		return nil, err
	}
	return res.Sim, nil
}

// skeletonBuilder validates the geometry of a formulation for n×n
// operands on m and returns its timed skeleton and the side of its
// processor grid: the mesh side q, or the cube side q₃. It is the one
// description of the skeleton that both the formulation's Algorithm
// (through onWave) and Measure (through timeSkeleton) run.
type skeletonBuilder func(m *machine.Machine, n int) (sk simulator.Skeleton, side int, err error)

// timeSkeleton measures the formulation build describes for n×n
// operands on m from its skeleton alone: no operands, no host product
// and no rank program. It rejects an invalid machine or geometry with
// the error the formulation's Algorithm returns for valid operands of
// that size. ok is false, with no error, when the simulator declines m
// for the wave tier (metrics, traces, contention, loss, checkpoints,
// the goroutine backend; see simulator.RunSkeleton): only the rank
// program measures such a machine. When ok is true the Result equals
// the Algorithm's Result.Sim.
func timeSkeleton(m *machine.Machine, n int, build skeletonBuilder) (*simulator.Result, bool, error) {
	if err := m.Validate(); err != nil {
		return nil, false, err
	}
	sk, _, err := build(m, n)
	if err != nil {
		return nil, false, err
	}
	return simulator.RunSkeleton(m, sk)
}

// onWave runs a formulation that has a timed skeleton on the event
// engine's wave tier: it checks the operands, builds the skeleton and,
// when the simulator takes m, runs it and builds the product on the
// host with product(side), in the formulation's own addition order. ok
// is false, with no error, when the simulator declines m; the operands
// and the geometry are then valid, and the caller runs the rank
// program.
func onWave(m *machine.Machine, a, b *matrix.Dense, name string, build skeletonBuilder, product func(side int) *matrix.Dense) (res *Result, ok bool, err error) {
	n, err := checkInputs(m, a, b)
	if err != nil {
		return nil, false, err
	}
	sk, side, err := build(m, n)
	if err != nil {
		return nil, false, err
	}
	sim, ok, err := simulator.RunSkeleton(m, sk)
	if !ok || err != nil {
		return nil, false, err
	}
	return newResult(name, product(side), sim, n, sk.P), true, nil
}

// meshRank is one rank's place on the √p × √p mesh onMesh runs.
type meshRank struct {
	pr       *simulator.Proc
	mesh     topology.Torus2D
	i, j     int   // mesh coordinates
	q, bs    int   // mesh side and block side
	row, col []int // the ranks of mesh row i and of mesh column j
	everyone []int // every rank, for barriers
}

// onMesh runs a formulation's rank program on the q×q processor mesh
// of n×n operands that meshSide validated: it runs body on every rank
// with its resident blocks A_ij and B_ij, and gathers the C blocks body
// returns into the product at rank 0. body owns the resident blocks;
// gatherGrid consumes the block it returns.
func onMesh(m *machine.Machine, a, b *matrix.Dense, n, q int, name string, body func(r meshRank, myA, myB *matrix.Dense) *matrix.Dense) (*Result, error) {
	p := m.P()
	mesh := topology.NewTorus2D(q, q)
	ga := matrix.Partition(a, q, q)
	gb := matrix.Partition(b, q, q)
	everyone := allRanks(p)

	var product *matrix.Dense
	sim, err := simulator.Run(m, func(pr *simulator.Proc) {
		i, j := mesh.Coords(pr.Rank())
		r := meshRank{pr: pr, mesh: mesh, i: i, j: j, q: q, bs: n / q, row: mesh.RowRanks(i), col: mesh.ColRanks(j), everyone: everyone}
		c := body(r, ga.Block(i, j), gb.Block(i, j))
		gatherGrid(pr, everyone, q, q, tagGatherC, c, &product)
	})
	if err != nil {
		return nil, err
	}
	return newResult(name, product, sim, n, p), nil
}

// cubeSide returns p^(1/3) for algorithms on the 3-D processor grid,
// requiring p a perfect cube (a power of 8 on a hypercube) and the side
// dividing n.
func cubeSide(n, p int) (int, error) {
	q := cubeStep(p)
	if q == 0 {
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
