GO ?= go

# Every recipe runs under bash with pipefail, so a `cmd | tee file`
# recipe fails when cmd fails, not only when tee does.
SHELL := bash
.SHELLFLAGS := -eo pipefail -c

.PHONY: all build test race bench bench-smoke bench-json bench-gate backend-equivalence checkpoint-equivalence kernel-equivalence sweep-determinism cli-identical examples perf lint vet vet-tool fuzz cover verify repro server loadtest loadtest-json clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark — catches bit-rot without the cost.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# The CI bench protocol: short repeated runs plus the JSON archive.
bench-json:
	$(GO) test -bench=. -benchtime=3x -count=2 -run='^$$' ./... | tee bench_pr.txt
	$(GO) run ./scripts/bench2json -in bench_pr.txt -out BENCH_pr.json

# The CI regression gate: fail on >10% geomean ns/op slowdown in the
# engine benchmarks (both backends) and the host matmul kernel between
# two bench-json style runs.
BENCH_OLD ?= bench_main.txt
BENCH_NEW ?= bench_pr.txt
bench-gate:
	$(GO) run ./scripts/benchgate -old $(BENCH_OLD) -new $(BENCH_NEW) -pkg 'internal/(simulator|matrix)' -max 0.10

SIM_DIFF_TESTS = TestNativeCannon|TestNativeGK|TestNativeFox|TestGKTakesWaveTier|TestWaveStepsMatchFiber|TestWaveAllocsIndependentOfSteps|TestWaveRunAllocatesOnlyResult|TestWaveEvaluatesRankMapsOnce|TestRunSkeletonConcurrentRunsAgree|TestSkeletonDeclinesGoroutines|TestSystolicEligibility|TestRunSystolicRejectsMismatch|FuzzBackendEquivalence

# The cross-backend differential suite under the race detector: the
# goroutine engine and the discrete-event engine's fiber and wave tiers
# must produce byte-identical Result/Metrics/CSV/Chrome-trace output,
# fresh and resumed (docs/BACKENDS.md).
backend-equivalence:
	$(GO) test -race -count=1 ./internal/des
	$(GO) test -race -count=1 -run '$(SIM_DIFF_TESTS)' ./internal/simulator
	$(GO) test -race -count=1 -run 'TestBackend(Run|Sweep)' ./internal/sweep

# The checkpoint/resume differential suites under the race detector: a
# resumed run/sweep/job must produce byte-identical output to an
# uninterrupted one, at every cut (docs/BACKENDS.md, docs/SERVER.md).
checkpoint-equivalence:
	$(GO) test -race -count=1 ./internal/checkpoint
	$(GO) test -race -count=1 -run 'TestResumeDifferential|TestCheckpoint|TestSuspend' ./internal/des ./internal/sweep ./internal/server
	$(GO) test -race -count=1 -run 'TestCheckpoint|TestRestore|TestResume' .

# The host-kernel differential suite under the race detector: the
# parallel matmul kernel must be byte-identical to the serial kernel at
# workers ∈ {1, 2, 4, NumCPU}, on both partition axes, on every tile
# target the host has (portable, avx2, avx512; docs/PERFORMANCE.md).
# Mirrors sweep-determinism for the kernel. The purego build then runs
# the portable tile kernel everywhere, against the naive oracle and the
# golden digests.
kernel-equivalence:
	$(GO) test -race -count=1 -run 'TestKernelWorkerEquivalence|TestMulAddIntoParallel' ./internal/matrix
	$(GO) test -count=1 -tags purego ./internal/matrix ./internal/core

# The CI determinism check: the same sweep spec must emit byte-identical
# CSV at 1 and 8 host workers, under the race detector (docs/SWEEP.md).
# The clean and straggler cells of the skeleton formulations are timed
# from their skeletons alone; berntsen's cells and the lossy scenario
# run rank programs on seeded operands, so both paths are covered. The
# worker pool's own tests run first, under the race detector at 1, 2
# and 4 CPUs.
SWEEP_ARGS = sweep -alg cannon,gk,berntsen,fox,foxpipe -machine custom -ts 17 -n 16,32 -p 16,64 -faults ';straggler=2@rank0,seed=42;loss=0.02,seed=7'
sweep-determinism:
	$(GO) test -race -count=1 -cpu 1,2,4 -run 'TestForEach|TestBackendSweep' ./internal/sweep
	$(GO) build -race -o bin/matscale ./cmd/matscale
	./bin/matscale $(SWEEP_ARGS) -jobs 1 -csv sweep_serial.csv
	./bin/matscale $(SWEEP_ARGS) -jobs 8 -csv sweep_parallel.csv
	cmp sweep_serial.csv sweep_parallel.csv
	@echo "sweep output is byte-identical at -jobs=1 and -jobs=8"

# Compare the CLI's output with revision BASE's, command by command:
# BASE is checked out in a temporary git worktree, both binaries are
# built into bin/, and the first command whose output differs is named.
# Not part of CI, since some changes alter the output on purpose.
# Usage: make cli-identical BASE=<rev>
# When a change alters a command's output on purpose, compare the rest
# by overriding the list, e.g. make cli-identical BASE=<rev>
# CLI_COMMANDS="table1 isoeff" — and show the altered command's diff.
CLI_COMMANDS = table1 'regions -fig 1' 'regions -fig 2' 'regions -fig 3' isoeff compare allport tech improved verify isoval 'isoval -alg gk' tssweep predict robust saturation 'millionrank -n 64' 'all -quick' 'trace -op gk'
cli-identical:
	@test -n '$(BASE)' || { echo 'usage: make cli-identical BASE=<rev>' >&2; exit 2; }
	$(GO) build -o bin/matscale ./cmd/matscale
	@tmp=$$(mktemp -d); \
	trap 'git worktree remove --force "$$tmp/base" 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	git worktree add --quiet --detach "$$tmp/base" '$(BASE)'; \
	(cd "$$tmp/base" && $(GO) build -o '$(CURDIR)/bin/matscale-base' ./cmd/matscale); \
	for c in $(CLI_COMMANDS); do \
		echo "matscale $$c"; \
		bin/matscale-base $$c > "$$tmp/want"; \
		bin/matscale $$c > "$$tmp/got"; \
		cmp "$$tmp/want" "$$tmp/got" || { echo "cli-identical: 'matscale $$c' differs from $(BASE)" >&2; exit 1; }; \
	done; \
	echo "CLI output is byte-identical to $(BASE)"

# The repository benchmark (BENCHMARK.json, perfbench/README.md): all
# three end-to-end workloads, 30 s each. Override with e.g.
# `make perf PERF_ARGS='--workload host-mul --seed 2 --seconds 30 --trace 1'`.
PERF_ARGS ?= --workload all --seed 1 --seconds 30 --trace 0
perf:
	bash perfbench/run.sh $(PERF_ARGS)

# Same linters as CI (.golangci.yml); requires golangci-lint on PATH.
lint: vet
	golangci-lint run

# Build the repo's own vettool (the matscale-vet analyzer suite; see
# docs/ANALYSIS.md) and print its path — `-s` makes the path the only
# stdout output, so `go vet -vettool=$$(make -s vet-tool) ./...` works.
vet-tool:
	@$(GO) build -o bin/matscale-vet ./cmd/matscale-vet 1>&2
	@echo $(CURDIR)/bin/matscale-vet

# Run the determinism/cost-model analyzers over the whole module,
# reusing the binary vet-tool just built, then the whole-module unused
# check (dead code outside config.UnusedKeepers fails with file:line).
vet: vet-tool
	$(GO) vet -vettool=$(CURDIR)/bin/matscale-vet ./...
	$(CURDIR)/bin/matscale-vet unused .

# The CI fuzz targets, briefly.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) -run='^$$' ./internal/faults
	$(GO) test -fuzz=FuzzRandomPrograms -fuzztime=$(FUZZTIME) -run='^$$' ./internal/simulator
	$(GO) test -fuzz=FuzzFaultedPrograms -fuzztime=$(FUZZTIME) -run='^$$' ./internal/simulator
	$(GO) test -fuzz=FuzzBackendEquivalence -fuzztime=$(FUZZTIME) -run='^$$' ./internal/simulator
	$(GO) test -fuzz=FuzzCheckpointRoundTrip -fuzztime=$(FUZZTIME) -run='^$$' ./internal/checkpoint
	$(GO) test -fuzz=FuzzKernelWorkerEquivalence -fuzztime=$(FUZZTIME) -run='^$$' ./internal/matrix

# Coverage with the CI floor check (75% of statements in internal/...).
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./internal/...
	$(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print "total: " $$3 "%"; if ($$3 + 0 < 75) { print "coverage fell below the 75% floor"; exit 1 }}'

# Run every program under examples/; the first non-zero exit fails the
# target. CI builds the examples with go build ./..., which cannot catch
# an example that fails at run time.
examples:
	@set -e; for d in examples/*/; do echo "go run ./$$d"; $(GO) run ./$$d > /dev/null; done

# End-to-end self-check: every algorithm vs its paper equation.
verify:
	$(GO) run ./cmd/matscale verify

# Regenerate the complete reproduction (all tables and figures). The
# run writes a temporary file that replaces REPRODUCTION.txt only when
# it succeeds, so a failed run leaves the committed file untouched.
repro:
	$(GO) run ./cmd/matscale all | tee REPRODUCTION.txt.tmp || { rm -f REPRODUCTION.txt.tmp; exit 1; }
	mv REPRODUCTION.txt.tmp REPRODUCTION.txt

# Build and run the HTTP sweep server (docs/SERVER.md).
server:
	$(GO) build -o bin/matscale-server ./cmd/matscale-server
	./bin/matscale-server

# The CI load-test protocol: 200 concurrent clients, half of them
# submitting overlapping specs, against an in-process server.
LOADTEST_ARGS ?= -clients 200 -overlap 0.5
loadtest:
	$(GO) build -o bin/matscale-loadtest ./cmd/matscale-loadtest
	./bin/matscale-loadtest $(LOADTEST_ARGS)

# Load test in bench format, folded into the benchmark archive the way
# the CI server job does it.
loadtest-json:
	$(GO) build -o bin/matscale-loadtest ./cmd/matscale-loadtest
	./bin/matscale-loadtest $(LOADTEST_ARGS) -bench | tee loadtest_bench.txt
	$(GO) run ./scripts/bench2json -in loadtest_bench.txt -merge BENCH_pr.json -out BENCH_pr.json

clean:
	rm -f bench_pr.txt bench_main.txt bench_delta.txt coverage.out sweep_serial.csv sweep_parallel.csv
	rm -f REPRODUCTION.txt.tmp loadtest_bench.txt events_cold.txt events_warm.txt result_cold.json result_warm.json
	rm -rf bin
	git worktree prune
