// Package matscale is a library for studying the performance and
// scalability of parallel dense matrix multiplication, reproducing
// Gupta & Kumar, "Scalability of Parallel Algorithms for Matrix
// Multiplication" (ICPP 1993 / TR 91-54).
//
// It provides:
//
//   - the parallel formulations the paper analyzes — the simple
//     all-to-all-broadcast algorithm, Cannon's, Fox's, Berntsen's, the
//     DNS algorithm, and the paper's GK algorithm with its improved-
//     broadcast, CM-5 and all-port variants — executing for real on a
//     deterministic virtual-time multicomputer whose measured times
//     equal the paper's closed-form equations;
//   - machine models (nCUBE-2-like, SIMD/CM-2-like, CM-5, arbitrary
//     hypercubes) with the paper's ts/tw communication cost model;
//   - the analytic toolkit: parallel-time and overhead functions,
//     isoefficiency solving, equal-overhead crossovers and
//     best-algorithm region maps;
//   - RunAuto and Select, the paper's concluding suggestion realized:
//     "all the algorithms can be stored in a library and the best
//     algorithm can be pulled out by a smart preprocessor depending on
//     the various parameters";
//   - a real shared-memory parallel multiply for the host machine.
//
// Quick start:
//
//	m := matscale.CM5(64)
//	a := matscale.RandomMatrix(128, 128, 1)
//	b := matscale.RandomMatrix(128, 128, 2)
//	res, err := matscale.GK(m, a, b)
//	// res.C is the product; res.Efficiency(), res.Sim.Tp are the
//	// virtual-time measurements.
package matscale

import (
	"matscale/internal/core"
	"matscale/internal/machine"
	"matscale/internal/matrix"
	"matscale/internal/model"
)

// Core types, re-exported.
type (
	// Matrix is a row-major dense matrix.
	Matrix = matrix.Dense
	// Machine couples a topology with the ts/tw cost model.
	Machine = machine.Machine
	// Result is the outcome of one parallel multiplication: the product
	// and the virtual-time measurements.
	Result = core.Result
	// Algorithm runs one parallel formulation on a machine.
	Algorithm = core.Algorithm
	// Params carries the normalized communication constants ts and tw
	// for the analytic model.
	Params = model.Params
)

// Matrix constructors and the serial baseline.
var (
	// NewMatrix returns a zero r×c matrix.
	NewMatrix = matrix.New
	// RandomMatrix returns a deterministic pseudo-random matrix.
	RandomMatrix = matrix.Random
	// Identity returns the n×n identity.
	Identity = matrix.Identity
	// Mul is the conventional O(n³) serial multiplication — the paper's
	// W = n³ baseline.
	Mul = matrix.Mul
	// ReadCSV parses a matrix from comma-separated rows.
	ReadCSV = matrix.ReadCSV
	// WriteCSV writes a matrix as comma-separated rows.
	WriteCSV = matrix.WriteCSV
)

// Machine presets (Sections 6 and 9 of the paper).
var (
	// NCube2 is a store-and-forward hypercube with ts=150, tw=3 (Figure 1).
	NCube2 = machine.NCube2
	// FutureHypercube has ts=10, tw=3 (Figure 2).
	FutureHypercube = machine.FutureHypercube
	// SIMD is a CM-2-like machine with ts=0.5, tw=3 (Figure 3).
	SIMD = machine.SIMD
	// CM5 is a fully connected machine with the paper's measured CM-5
	// constants (Section 9).
	CM5 = machine.CM5
	// Hypercube builds a store-and-forward hypercube with arbitrary
	// constants.
	Hypercube = machine.Hypercube
)

// The parallel formulations (Section 4), each returning the verified
// product and virtual-time measurements.
var (
	// Simple is the all-to-all broadcast algorithm (§4.1, Eq. 2).
	Simple Algorithm = core.Simple
	// Cannon is Cannon's algorithm (§4.2, Eq. 3).
	Cannon Algorithm = core.Cannon
	// Fox is Fox's algorithm with binomial row broadcasts (§4.3).
	Fox Algorithm = core.Fox
	// FoxPipelined is Fox's algorithm with pipelined broadcasts (Eq. 4).
	FoxPipelined Algorithm = core.FoxPipelined
	// Berntsen is Berntsen's subcube algorithm (§4.4, Eq. 5).
	Berntsen Algorithm = core.Berntsen
	// DNS is the Dekel–Nassimi–Sahni algorithm (§4.5, Eq. 6).
	DNS Algorithm = core.DNS
	// GK is the paper's contribution (§4.6, Eq. 7 / Eq. 18 on the CM-5).
	GK Algorithm = core.GK
	// GKImprovedBroadcast uses the Johnsson–Ho broadcast (§5.4.1).
	GKImprovedBroadcast Algorithm = core.GKImprovedBroadcast
	// GKAllPort uses simultaneous all-port communication (§7.2, Eq. 17).
	GKAllPort Algorithm = core.GKAllPort
	// SimpleAllPort is the all-port simple algorithm (§7.1, Eq. 16).
	SimpleAllPort Algorithm = core.SimpleAllPort
	// SimpleMemEfficientAllPort is the constant-storage all-port
	// streaming variant in the spirit of Ho–Johnsson–Edelman [18]
	// (§7.1).
	SimpleMemEfficientAllPort Algorithm = core.SimpleMemEfficientAllPort
	// FoxMesh is Fox's algorithm with mesh row relays (§4.3's mesh
	// expression).
	FoxMesh Algorithm = core.FoxMesh
	// FoxAsync is the asynchronous Fox execution (§4.3).
	FoxAsync Algorithm = core.FoxAsync
)
