// Command matscale-vet is the repository's domain vettool: a
// go/analysis suite enforcing the simulator's determinism and
// cost-model contracts (see docs/ANALYSIS.md). It speaks the standard
// unitchecker protocol, so it is driven through the go command:
//
//	go build -o bin/matscale-vet ./cmd/matscale-vet
//	go vet -vettool=$PWD/bin/matscale-vet ./...
//
// or simply `make vet`. Analyzers: accretion, clockguard, costcharge,
// nodetbreak, ownflow, seedflow, unitflow.
//
// `matscale-vet unused [dir]` runs the whole-module dead-code check on
// the module at dir (default "."): it prints "file:line: name" for each
// declaration no non-test code reaches from the roots — the root
// package's API with every method of the types it aliases, main and
// init functions, nested modules, and methods satisfying an interface
// — and exits 1 on any finding or stale keeper (config.UnusedKeepers
// lists, with reasons, what stays anyway). `make vet` runs it after the
// vettool pass.
package main

import (
	"os"

	"golang.org/x/tools/go/analysis/unitchecker"

	"matscale/internal/analysis/config"
	"matscale/internal/analysis/suite"
	"matscale/internal/analysis/unused"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "unused" {
		dir := "."
		if len(os.Args) > 2 {
			dir = os.Args[2]
		}
		os.Exit(unused.Run(os.Stdout, dir, config.UnusedKeepers))
	}
	unitchecker.Main(suite.All()...)
}
