// Package config is the single source of truth for the package
// classification the matscale-vet analyzers enforce. Every analyzer in
// internal/analysis consults these tables instead of hard-coding import
// paths, so widening or narrowing a contract's scope is a one-line
// change here.
//
// The contracts (see docs/ANALYSIS.md):
//
//   - Deterministic packages may not consult wall clocks, global random
//     sources, or scheduler state, and may not range over maps when the
//     iteration feeds ordered output. This is what makes a run
//     byte-identical for a fixed seed.
//   - Charged packages implement the paper's algorithms; every transfer
//     must flow through the simulator's charged Send/Recv API so it is
//     accounted at ts + tw·m. Raw channels and sync primitives would
//     move data the cost model never sees.
//   - Clock-owner packages are the only ones allowed to mutate the
//     machine's cost constants and the simulator's measured results;
//     everywhere else those fields are read-only, preserving the
//     accounting identity To = p·Tp − W.
//   - Cost-doc packages expose quantities measured in the paper's units
//     (ts, tw, flops); their exported float64-returning API must say so
//     in its doc comment.
//   - Ownership packages consume the simulator's pooled zero-copy
//     messaging API; the ownflow analyzer tracks buffer ownership
//     through their dataflow (owned → transferred → dead).
//   - Unit packages hold the cost model's float64 arithmetic; the
//     unitflow analyzer infers each expression's physical unit and
//     rejects cross-unit addition and comparison.
package config

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// Import paths of the packages the contracts name. Analyzer testdata
// mirrors these paths under testdata/src so fixtures exercise the same
// classification as the real tree.
const (
	MachinePath   = "matscale/internal/machine"
	SimulatorPath = "matscale/internal/simulator"
	DesPath       = "matscale/internal/des"
)

// deterministicPkgs lists the packages whose behavior must be
// byte-identical run to run: the simulator and fault layer (replays),
// the algorithm formulations, the experiment drivers that emit tables
// compared against golden output, the sweep engine whose merged
// results must not depend on the host worker count, and the sweep
// server whose cached responses must be byte-identical to cold ones —
// its only wall-clock access is the injected server.Clock, so job
// results stay a pure function of (spec, seed, backend) — and the
// checkpoint container, whose canonical encodings the des backend's
// verified restore byte-compares.
var deterministicPkgs = map[string]bool{
	SimulatorPath:                   true,
	DesPath:                         true,
	"matscale/internal/faults":      true,
	"matscale/internal/core":        true,
	"matscale/internal/collective":  true,
	MachinePath:                     true,
	"matscale/internal/experiments": true,
	"matscale/internal/sweep":       true,
	"matscale/internal/server":      true,
	"matscale/internal/checkpoint":  true,
}

// chargedPkgs lists the algorithm/collective packages in which all
// communication must be charged through the simulator's Proc API.
// internal/matrix is deliberately absent: it hosts the parallel host
// matmul kernel, whose goroutines and sync primitives run real
// computation and move no simulated data, so there is no ts + tw·m
// transfer for the model to miss. Paper algorithm code belongs in a
// charged package, never in the kernel's.
var chargedPkgs = map[string]bool{
	"matscale/internal/core":       true,
	"matscale/internal/collective": true,
}

// clockOwnerPkgs are the packages allowed to mutate machine cost
// constants and simulator measurement fields. internal/des is an
// engine like the simulator itself: its native systolic tier assembles
// Result values directly from its wave clocks.
var clockOwnerPkgs = map[string]bool{
	MachinePath:   true,
	SimulatorPath: true,
	DesPath:       true,
}

// costDocPkgs expose the paper's measured quantities; their exported
// float64 API must document its units.
var costDocPkgs = map[string]bool{
	MachinePath:               true,
	"matscale/internal/model": true,
	"matscale/internal/iso":   true,
}

// ownershipPkgs consume the pooled zero-copy messaging API
// (SendOwned/Recycle/…); ownflow verifies their buffer dataflow. The
// simulator and des packages own the pool itself and are excluded —
// the contract binds the API's clients, not its implementation.
var ownershipPkgs = map[string]bool{
	"matscale/internal/core":       true,
	"matscale/internal/collective": true,
}

// unitPkgs hold the cost model's closed-form float64 arithmetic;
// unitflow infers units for their expressions and rejects cross-unit
// addition/comparison (a ts-seconds term added to a word count).
var unitPkgs = map[string]bool{
	MachinePath:                 true,
	"matscale/internal/model":   true,
	"matscale/internal/iso":     true,
	"matscale/internal/regions": true,
}

// Normalize canonicalizes a package path for classification. The go
// command presents a package's external test variant as "<path>_test"
// and its synthesized test main as "<path>.test"; both are classified
// like the base package (their non-test files — there are none — would
// be bound by the same contracts). Vendored packages ("vendor/…" or
// any path containing "/vendor/") are third-party code outside every
// contract and normalize to "", which no classification table
// contains.
func Normalize(path string) string {
	if strings.HasPrefix(path, "vendor/") || strings.Contains(path, "/vendor/") {
		return ""
	}
	path = strings.TrimSuffix(path, ".test")
	path = strings.TrimSuffix(path, "_test")
	return path
}

// Deterministic reports whether the package at path is bound by the
// determinism contract (nodetbreak).
func Deterministic(path string) bool { return deterministicPkgs[Normalize(path)] }

// Charged reports whether the package at path is bound by the
// cost-charging contract (costcharge).
func Charged(path string) bool { return chargedPkgs[Normalize(path)] }

// ClockOwner reports whether the package at path may mutate guarded
// clock/metrics fields (clockguard).
func ClockOwner(path string) bool { return clockOwnerPkgs[Normalize(path)] }

// CostDoc reports whether the package at path is bound by the
// unit-documentation contract (accretion).
func CostDoc(path string) bool { return costDocPkgs[Normalize(path)] }

// Ownership reports whether the package at path is bound by the buffer
// ownership contract (ownflow).
func Ownership(path string) bool { return ownershipPkgs[Normalize(path)] }

// UnitInference reports whether the package at path is bound by the
// unit-consistency contract (unitflow).
func UnitInference(path string) bool { return unitPkgs[Normalize(path)] }

// guardedMachineFields are the cost constants of machine.Machine: the
// ts + tw·m postal model's parameters plus the routing/port regime that
// selects how they are applied. Mutating them after construction
// changes the meaning of every subsequently charged transfer, so
// outside the clock owners they are read-only; copies are configured
// through the With* helpers on Machine.
var guardedMachineFields = map[string]bool{
	"Ts":      true,
	"Tw":      true,
	"Th":      true,
	"Routing": true,
	"AllPort": true,
}

// guardedSimulatorTypes are the simulator's measurement carriers. Every
// exported field of these types is an output of the virtual clock;
// writing one outside the simulator would falsify Tp, To = p·Tp − W, or
// the per-rank breakdown they feed.
var guardedSimulatorTypes = map[string]bool{
	"Result":      true,
	"Metrics":     true,
	"RankMetrics": true,
	"LinkMetrics": true,
	"Degradation": true,
	"Trace":       true,
	"Event":       true,
}

// GuardedMachineField reports whether the named machine.Machine field
// is a guarded cost constant.
func GuardedMachineField(name string) bool { return guardedMachineFields[name] }

// GuardedSimulatorType reports whether the named simulator type carries
// measured results and is therefore write-protected outside the
// simulator.
func GuardedSimulatorType(name string) bool { return guardedSimulatorTypes[name] }

// UnitDocPattern matches a doc comment that states cost-model units:
// the paper's constants (ts, tw, th), flop counts, words moved, or the
// derived quantities (time, cost, overhead, efficiency, speedup, …).
var UnitDocPattern = regexp.MustCompile(`(?i)\b(ts|tw|th|flops?|time|times|cost|costs|words?|efficiency|isoefficiency|seconds?|speedup|ratio|fraction|factor|factors|overhead|utilization|granularity)\b`)

// TestFile reports whether pos lies in a _test.go file. The contracts
// bind production code; tests may freely construct machines, perturb
// results, and measure wall time.
func TestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.File(pos).Name(), "_test.go")
}

// MarkedLines returns the lines of f carrying a comment that begins
// with marker. Every analyzer's suppression grammar is the same: a
// '//<analyzer>:<word>' comment (optionally followed by a free-form
// justification) on the reported line or the line directly above it.
func MarkedLines(fset *token.FileSet, f *ast.File, marker string) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, marker) {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

// SuppressedAt reports whether pos's line, or the line directly above
// it, is in lines (as returned by MarkedLines).
func SuppressedAt(lines map[int]bool, fset *token.FileSet, pos token.Pos) bool {
	line := fset.Position(pos).Line
	return lines[line] || lines[line-1]
}

// UnusedKeepers lists the declarations the whole-module unused check
// (matscale-vet unused) must not report, each with the reason it stays
// although no non-test code reaches it. Keys are "importpath.Name" or
// "importpath.Type.Method". An entry naming no declaration, or one
// that production code reaches, is stale and fails the check.
var UnusedKeepers = map[string]string{
	// Closed-form oracles: the collective and core tests assert that the
	// live operation's measured time equals them exactly.
	"matscale/internal/collective.ReduceTime":         "closed-form cost of the live Reduce; the collective tests check measured time against it",
	"matscale/internal/collective.AllToAllTime":       "closed-form cost of the live AllToAll; the collective tests check measured time against it",
	"matscale/internal/collective.AllReduceTime":      "closed-form cost of the live AllReduce; the collective tests check measured time against it",
	"matscale/internal/collective.PipelinedChainTime": "closed-form cost of the pipelined chain broadcast FoxPacketPipelined runs",
	"matscale/internal/model.PaperSimpleAllPortTp":    "Eq. (16) as printed; the model tests bound the live SimpleAllPortTo against it",
	"matscale/internal/model.ImprovedGKTo":            "Table 1's improved-GK overhead; the iso tests derive its isoefficiency from it",
	"matscale/internal/model.DNSToExact":              "exact DNS overhead; the model and regions tests bound the asymptotic DNSTo against it",
	"matscale/internal/model.Efficiency":              "E = W/(W + To) (Section 2); the model, iso and tech tests check solved W against it",
	"matscale/internal/core.FoxPacketPipelined":       "mechanism check for the packet-pipelined broadcast charge behind Eq. (4)",
	// References the tests compare a live path against.
	"matscale/internal/simulator.Proc.Send":  "copying send; the pool tests compare the live SendOwned path against it",
	"matscale/internal/simulator.Proc.Clock": "a rank's virtual clock mid-program; the charge tests assert it",
	"matscale/internal/matrix.Add":           "reference for the live AddInPlace and the Mul distributivity property test",
	"matscale/internal/matrix.Grid.Assemble": "inverse of Partition; the partition round-trip and blocked-product tests compare against it",
	// Workload generators core/property_test.go multiplies.
	"matscale/internal/matrix.Banded":    "structured input of the core property tests",
	"matscale/internal/matrix.Bandwidth": "checks the banded product of the core property tests",
	"matscale/internal/matrix.Symmetric": "structured input of the core property tests",
	"matscale/internal/matrix.Hilbert":   "structured input of the core property tests",
	"matscale/internal/matrix.Diagonal":  "structured input of the core property tests",
	// Per-processor memory, the input to the memory-dependent
	// communication lower bound (ROADMAP item 5).
	"matscale/internal/model.SimpleMemoryPerProc":   "input to the memory-dependent lower-bound oracle",
	"matscale/internal/model.CannonMemoryPerProc":   "input to the memory-dependent lower-bound oracle",
	"matscale/internal/model.BerntsenMemoryPerProc": "input to the memory-dependent lower-bound oracle",
	"matscale/internal/model.GKMemoryPerProc":       "input to the memory-dependent lower-bound oracle",
	// Test infrastructure.
	"matscale/internal/analysis/analyzertest.Run": "fixture harness every analyzer test runs on",
}
