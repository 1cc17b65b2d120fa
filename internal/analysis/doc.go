// Package analysis hosts the matscale-vet analyzer suite: custom
// go/analysis passes that machine-check the contracts the repository's
// numbers depend on. The paper's accounting — Tp from the virtual
// clock, To = p·Tp − W, efficiency and isoefficiency derived from them
// — is only meaningful if (a) every transfer is charged through the
// ts + tw·m postal model and (b) a run is byte-identical for a fixed
// seed. Generic linters cannot see those domain contracts; these
// analyzers can.
//
// Subpackages:
//
//   - config: the single source of truth classifying which packages
//     each contract binds.
//   - nodetbreak: forbids wall clocks, the global rand source,
//     scheduler introspection, and order-sensitive map iteration in
//     deterministic packages.
//   - costcharge: forbids raw channels, select, goroutines, and sync
//     primitives in formulation packages — communication must be
//     charged through the simulator's Proc API.
//   - clockguard: machine cost constants and simulator results are
//     read-only outside internal/machine and internal/simulator.
//   - seedflow: seed parameters must be threaded, never dropped.
//   - accretion: exported float64 API in cost-model packages must
//     document its units.
//   - suite: the assembled analyzer list shared by cmd/matscale-vet
//     and the meta-test.
//   - unused: the whole-module dead-code check behind
//     `matscale-vet unused`. It reports every package-level
//     declaration or method no non-test code reaches from the roots
//     (the root package's API and the methods of the types it
//     aliases, main and init functions, nested modules, and methods
//     satisfying an interface). Declarations kept on purpose are
//     listed with a reason in config.UnusedKeepers; a stale keeper
//     fails the check. `make vet` runs it after the vettool pass.
//   - analyzertest: a self-contained fixture harness (the vendored
//     x/tools subset does not include analysistest).
//
// See docs/ANALYSIS.md for the full contract rationale.
package analysis
