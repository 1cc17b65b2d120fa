package matscale

import (
	"fmt"
	"io"
	"reflect"
	"strconv"

	"matscale/internal/checkpoint"
	"matscale/internal/core"
	"matscale/internal/experiments"
	"matscale/internal/faults"
	"matscale/internal/machine"
	"matscale/internal/matrix"
	"matscale/internal/model"
	"matscale/internal/regions"
	"matscale/internal/server"
	"matscale/internal/simulator"
	"matscale/internal/sweep"
)

// Observability types, re-exported.
type (
	// Metrics is the per-rank/per-link breakdown of a run with the
	// derived scalability quantities (measured To = p·Tp − W,
	// comm/compute ratio, load imbalance, critical rank). Populated on
	// Result by Run with WithMetrics.
	Metrics = core.Metrics
	// RankMetrics is one processor's virtual-time budget:
	// compute + send + idle == Tp per rank.
	RankMetrics = simulator.RankMetrics
	// LinkMetrics is the charged traffic of one directed link.
	LinkMetrics = simulator.LinkMetrics
	// Trace is the ordered per-processor event history of a run; it
	// exports to Chrome trace_event JSON (WriteChromeTrace), CSV
	// (WriteCSV) and an ASCII timeline (Timeline).
	Trace = simulator.Trace
	// Faults is a seeded, deterministic perturbation of the virtual
	// machine: per-rank compute slowdowns (stragglers), per-link
	// latency/bandwidth perturbation, and probabilistic message loss
	// repaired by timeout + bounded retry. Attach one to a run with
	// WithFaults; see docs/FAULTS.md for the model and grammar.
	Faults = faults.Config
	// Degradation attributes fault-induced overhead to its sources
	// (straggler-inflated compute vs retry-inflated communication);
	// populated on Metrics when a run executes under enabled faults.
	Degradation = simulator.Degradation
)

// ParseFaults builds a fault scenario from the textual grammar the CLI
// accepts, e.g. "straggler=3@rank7,loss=0.01,seed=42". See
// docs/FAULTS.md for the full grammar.
var ParseFaults = faults.Parse

// Checkpoint is an encoded snapshot of a suspended Run: the state of
// the event engine at a consistent cut, wrapped in a versioned,
// integrity-hashed container. Write one with WithCheckpoint +
// WithSuspendAfter, reload it with Restore, and feed it back with
// WithResume; the resumed run's Result, Metrics, CSV and trace bytes
// are identical to an uninterrupted run's. See docs/BACKENDS.md for
// the consistent-cut and verified-restore argument.
type Checkpoint struct {
	// Events is the number of event-loop dispatches before the cut.
	Events uint64
	// Data is the encoded snapshot container.
	Data []byte
}

// WriteTo writes the encoded snapshot to w, making *Checkpoint an
// io.WriterTo.
func (c *Checkpoint) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(c.Data)
	return int64(n), err
}

// Restore reads a checkpoint previously written through a
// WithCheckpoint sink, verifying the container's magic, length and
// integrity hash — a truncated or corrupted snapshot is a typed error
// here, not undefined behavior later. Configuration-level validation
// (same machine, same program, same build) happens when the checkpoint
// is handed to Run via WithResume, where a mismatch surfaces as a
// *ResumeMismatchError.
func Restore(r io.Reader) (*Checkpoint, error) {
	snap, err := checkpoint.Read(r)
	if err != nil {
		return nil, err
	}
	events, _ := strconv.ParseUint(snap.Meta["events"], 10, 64)
	return &Checkpoint{Events: events, Data: snap.Encode()}, nil
}

// Typed checkpoint/resume errors, re-exported for errors.As.
type (
	// SuspendedError is how Run reports a suspension requested with
	// WithSuspendAfter: not a failure — the snapshot it carries (already
	// delivered to the WithCheckpoint sink) resumes the run, on this
	// process or another, with byte-identical output.
	SuspendedError = simulator.SuspendedError
	// ResumeMismatchError reports a WithResume checkpoint that cannot
	// resume under the given configuration: a different machine,
	// program, or build, caught either by the snapshot fingerprint or
	// by the byte-for-byte verification of the restored state.
	ResumeMismatchError = simulator.ResumeMismatchError
	// UnsupportedCapabilityError reports an option a call cannot
	// honor — today, a Sweep call asked for run-level suspension. The
	// API returns it instead of silently ignoring the option.
	UnsupportedCapabilityError = simulator.UnsupportedCapabilityError
)

// Sweep types, re-exported. See docs/SWEEP.md for the spec grammar and
// the determinism guarantee.
type (
	// SweepSpec declares an experiment grid: the cross product of
	// algorithms × machines × processor counts × matrix sizes ×
	// optional fault scenarios. Zero-value fields have sensible
	// defaults only where documented on the type; Validate reports
	// what a spec is missing.
	SweepSpec = sweep.Spec
	// SweepCell is one measured grid cell: its coordinates plus the
	// simulated and model-predicted quantities (or the structural
	// rejection that kept it from running).
	SweepCell = sweep.CellResult
	// SweepResult is a completed sweep: the spec that produced it, the
	// per-cell measurements in deterministic sorted order, and the run
	// tallies. It exports to CSV, JSON and an aligned text table.
	SweepResult = sweep.Result
)

// SweepAlgorithms lists the algorithm names a SweepSpec accepts,
// sorted.
var SweepAlgorithms = sweep.AlgorithmNames

// SweepCellCache memoizes completed sweep cells across runs. Sweep
// results served from a cache are byte-identical to freshly simulated
// ones — the differential suite asserts it — because a cell is a pure
// function of its canonical (spec-cell, seed, backend) key. The sweep
// server keys its LRU with it; embed one in long-lived tooling the
// same way.
type SweepCellCache = sweep.CellCache

// Sweep server types, re-exported. SweepServer is an embeddable
// HTTP/JSON sweep service: bounded job queue, token-bucket admission,
// SSE progress streaming, and an LRU cell cache shared by overlapping
// sweeps. See docs/SERVER.md for the API, the cache-key derivation and
// the backpressure contract; cmd/matscale-server is the thin binary
// front.
type (
	SweepServer       = server.Server
	SweepServerConfig = server.Config
	SweepServerStats  = server.Stats
	// SweepServerClock injects time into a SweepServer. The server core
	// is wall-clock-free by construction (it sits under the repo's
	// determinism analyzers); binaries supply a wall clock, tests a
	// fake one.
	SweepServerClock = server.Clock
)

// NewSweepServer validates the config and starts the job workers. The
// caller owns shutdown: call SweepServer.Shutdown to drain.
var NewSweepServer = server.New

// Job-control types, re-exported. A SweepServer job is a uniform
// resource: Submit admits it, Suspend parks it at the next cell
// boundary with a resumable checkpoint, Resume re-enqueues it, Cancel
// terminates it. See docs/SERVER.md for the state machine.
type (
	// SweepJob is one admitted sweep of a SweepServer.
	SweepJob = server.Job
	// SweepJobState is a job's position in the lifecycle machine
	// queued → running → {suspended, done, failed, cancelled}.
	SweepJobState = server.State
)

// The SweepJobState values.
const (
	JobQueued    = server.StateQueued
	JobRunning   = server.StateRunning
	JobDone      = server.StateDone
	JobFailed    = server.StateFailed
	JobSuspended = server.StateSuspended
	JobCancelled = server.StateCancelled
)

// ServerErrorKind classifies every typed error a SweepServer method
// can return — one enum in place of per-type matching. Each kind value
// is itself an error, so it works directly as an errors.Is target:
//
//	if _, err := srv.Submit(spec, -1); errors.Is(err, matscale.ServerKindQueueFull) {
//	        // back off and retry
//	}
//
// ServerErrorKindOf recovers the kind of any server error (including
// ones wrapped with fmt.Errorf %w), and the HTTP layer maps each kind
// to its status code with HTTPStatus.
type ServerErrorKind = server.ErrorKind

// The ServerErrorKind values.
const (
	ServerKindSweepError        = server.KindSweepError
	ServerKindInternal          = server.KindInternal
	ServerKindBadRequest        = server.KindBadRequest
	ServerKindBadSpec           = server.KindBadSpec
	ServerKindQueueFull         = server.KindQueueFull
	ServerKindRateLimited       = server.KindRateLimited
	ServerKindShuttingDown      = server.KindShuttingDown
	ServerKindJobTimeout        = server.KindJobTimeout
	ServerKindUnknownJob        = server.KindUnknownJob
	ServerKindInvalidTransition = server.KindInvalidTransition
	ServerKindSuspended         = server.KindSuspended
	ServerKindNotDone           = server.KindNotDone
	ServerKindCanceled          = server.KindCanceled
)

// ServerErrorKindOf returns the ServerErrorKind of any error returned
// by a SweepServer method, defaulting to ServerKindSweepError for
// untyped sweep failures.
var ServerErrorKindOf = server.KindOf

// Option configures a Run, RunAuto or HostMul call.
type Option func(*runConfig)

type runConfig struct {
	metrics      bool
	traceSink    io.Writer
	dnsGrid      int
	workers      int
	faults       *faults.Config
	progress     func(done, total int, c SweepCell)
	suspendAfter uint64
	ckptSink     io.Writer
	resume       *Checkpoint
}

// checkpointing reports whether any checkpoint/resume option was set.
func (c runConfig) checkpointing() bool {
	return c.suspendAfter > 0 || c.ckptSink != nil || c.resume != nil
}

func newRunConfig(opts []Option) runConfig {
	var cfg runConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithMetrics asks Run to populate Result.Metrics with the per-rank
// and per-link breakdown of the simulation and its derived quantities.
// Collection charges zero virtual time: Tp and the product are
// byte-identical with and without it.
func WithMetrics() Option {
	return func(c *runConfig) { c.metrics = true }
}

// WithTrace asks Run to record the per-processor event history and
// write it to sink as Chrome trace_event JSON, loadable in
// chrome://tracing or Perfetto (https://ui.perfetto.dev). The trace is
// also left on Result.Sim.Trace for programmatic use. Zero virtual
// cost.
func WithTrace(sink io.Writer) Option {
	return func(c *runConfig) { c.traceSink = sink }
}

// WithDNSGrid runs the DNS algorithm on a gridSide × gridSide block
// grid coarser than one element per processor, letting the DNS
// communication structure run with p < n² processors. It may only be
// combined with a nil or DNS algorithm argument to Run.
func WithDNSGrid(gridSide int) Option {
	return func(c *runConfig) { c.dnsGrid = gridSide }
}

// WithWorkers sets the number of host goroutine workers used by the
// entry points that parallelize on the host: Sweep and RunAll fan
// their independent simulations over n workers, and HostMul splits
// the multiplication itself. 0 or less means all CPUs. It does not
// affect the simulated algorithms, whose processor count is the
// machine's, and it never changes any measured or emitted byte — only
// the wall-clock time.
//
// Host-kernel semantics: for HostMul the worker count selects how many
// goroutines the host matmul kernel runs, over a static ownership
// partition of the output (ncBlock-aligned column panels when the
// output is wide enough, whole-row bands otherwise) computed from the
// input shapes alone. Every output element is written by exactly one
// worker running the serial kernel's own accumulation loop, so the
// product is bit-identical — including Inf/NaN propagation — at every
// worker count; see docs/PERFORMANCE.md. Worker counts the shape
// cannot feed are clamped rather than erroring.
func WithWorkers(n int) Option {
	return func(c *runConfig) { c.workers = n }
}

// WithProgress asks Sweep to call fn after each grid cell finishes,
// with the running completion count, the total cell count and the
// cell's result. Calls arrive in completion order — which depends on
// the worker schedule, unlike the returned SweepResult, whose cell
// order does not. fn must be safe for concurrent use only in the sense
// that Sweep serializes the calls itself; fn may write to a terminal
// directly.
func WithProgress(fn func(done, total int, c SweepCell)) Option {
	return func(c *runConfig) { c.progress = fn }
}

// WithFaults runs the algorithm on a deterministically perturbed
// machine: f's stragglers slow per-rank compute, its link factors and
// jitter scale transfer costs, and its loss rate forces timeout +
// bounded-retry retransmissions, all charged at the ts/tw cost model so
// the damage appears in the measured To = p·Tp − W. A fixed (machine,
// faults, program) triple reproduces byte-identical results. Combine
// with WithMetrics to get the Degradation breakdown of the damage:
//
//	f, _ := matscale.ParseFaults("straggler=2@rank0,seed=42")
//	res, err := matscale.Run(matscale.GK, matscale.NCube2(64), a, b,
//	        matscale.WithFaults(f), matscale.WithMetrics())
//	// res.Metrics.Degradation attributes the extra overhead.
//
// A nil f is a no-op. The caller's machine is never mutated.
func WithFaults(f *Faults) Option {
	return func(c *runConfig) { c.faults = f }
}

// WithCheckpoint asks Run to deliver the encoded snapshot of a
// suspended run to sink before returning. Pair it with
// WithSuspendAfter, which picks the cut; the run then returns a
// *SuspendedError (not a failure) and the snapshot reloads with
// Restore + WithResume:
//
//	var buf bytes.Buffer
//	_, err := matscale.Run(matscale.Cannon, m, a, b,
//	        matscale.WithCheckpoint(&buf), matscale.WithSuspendAfter(500))
//	// errors.As(err, &suspended) — buf holds the snapshot.
//	ck, _ := matscale.Restore(&buf)
//	res, err := matscale.Run(matscale.Cannon, m, a, b, matscale.WithResume(ck))
//	// res is byte-identical to an uninterrupted run.
//
// Checkpointing requires an explicit algorithm; an unsupported
// combination fails with a typed error instead of being ignored.
func WithCheckpoint(sink io.Writer) Option {
	return func(c *runConfig) { c.ckptSink = sink }
}

// WithSuspendAfter stops the run at the consistent cut reached after
// exactly events event-loop dispatches, delivering the snapshot to the
// WithCheckpoint sink (which it requires). A run that completes in
// fewer dispatches finishes normally.
func WithSuspendAfter(events uint64) Option {
	return func(c *runConfig) { c.suspendAfter = events }
}

// WithResume continues a run from a checkpoint loaded with Restore.
// The machine, matrices and algorithm must match the
// suspended run's exactly — the engine verifies the restored state
// byte-for-byte and rejects divergence with a *ResumeMismatchError.
// Combine with WithCheckpoint + WithSuspendAfter to suspend again
// further on.
func WithResume(ck *Checkpoint) Option {
	return func(c *runConfig) { c.resume = ck }
}

// validateCheckpoint rejects meaningless checkpoint option
// combinations up front.
func (c runConfig) validateCheckpoint() error {
	if c.suspendAfter > 0 && c.ckptSink == nil {
		return fmt.Errorf("matscale: WithSuspendAfter requires WithCheckpoint (the snapshot needs a destination)")
	}
	if c.ckptSink != nil && c.suspendAfter == 0 && c.resume == nil {
		return fmt.Errorf("matscale: WithCheckpoint does nothing without WithSuspendAfter (no cut is ever taken)")
	}
	return nil
}

// machineFor returns the machine the algorithm should run on: m
// itself when no observability, faults or checkpointing were
// requested, otherwise a copy with the collection flags raised, the
// fault scenario and checkpoint control attached, so the caller's
// machine is never mutated.
func (c runConfig) machineFor(m *Machine) *Machine {
	if !c.metrics && c.traceSink == nil && c.faults == nil && !c.checkpointing() {
		return m
	}
	mm := *m
	mm.CollectMetrics = mm.CollectMetrics || c.metrics
	mm.CollectTrace = mm.CollectTrace || c.traceSink != nil
	if c.faults != nil {
		mm.Faults = c.faults
	}
	if c.checkpointing() {
		ctl := &machine.CheckpointControl{StopAfter: c.suspendAfter}
		if c.resume != nil {
			ctl.Resume = c.resume.Data
		}
		if sink := c.ckptSink; sink != nil {
			ctl.Sink = func(snapshot []byte, events uint64) error {
				_, err := sink.Write(snapshot)
				return err
			}
		}
		mm.Checkpoint = ctl
	}
	return &mm
}

// export writes the Chrome trace if a sink was requested.
func (c runConfig) export(res *Result) error {
	if c.traceSink == nil {
		return nil
	}
	if res.Sim == nil || res.Sim.Trace == nil {
		return fmt.Errorf("matscale: algorithm produced no trace")
	}
	return res.Sim.Trace.WriteChromeTrace(c.traceSink)
}

// Run executes one parallel formulation on a simulated machine and
// returns the enriched Result. It is the primary entry point of the
// library:
//
//	res, err := matscale.Run(matscale.GK, matscale.NCube2(64), a, b,
//	        matscale.WithMetrics(),
//	        matscale.WithTrace(traceFile))
//	// res.C is the verified product, res.Sim.Tp the virtual time,
//	// res.Metrics the per-rank/per-link breakdown.
//
// A nil alg auto-selects the predicted-fastest applicable algorithm
// (see RunAuto, which additionally reports the Selection). The
// algorithm package variables (GK, Cannon, ...) remain callable
// directly; Run adds the observability options on top without changing
// any measured quantity.
func Run(alg Algorithm, m *Machine, a, b *Matrix, opts ...Option) (*Result, error) {
	cfg := newRunConfig(opts)
	if err := cfg.validateCheckpoint(); err != nil {
		return nil, err
	}
	if cfg.dnsGrid > 0 {
		if alg != nil && !sameAlgorithm(alg, DNS) {
			return nil, fmt.Errorf("matscale: WithDNSGrid requires the DNS algorithm (or nil)")
		}
		g := cfg.dnsGrid
		alg = func(m *Machine, a, b *Matrix) (*Result, error) {
			return core.DNSWithGrid(m, a, b, g)
		}
	}
	if alg == nil {
		res, _, err := runAuto(cfg, m, a, b)
		return res, err
	}
	res, err := alg(cfg.machineFor(m), a, b)
	if err != nil {
		return nil, err
	}
	return res, cfg.export(res)
}

// sameAlgorithm reports whether two Algorithm values refer to the same
// function (used to validate option/algorithm combinations; Go func
// values are otherwise not comparable).
func sameAlgorithm(a, b Algorithm) bool {
	return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
}

// Selection names an algorithm choice of the paper's Section 6
// analysis: the formulation, its name, and the parallel time the
// closed-form model predicts for it on the queried (machine, n).
type Selection struct {
	Name        string
	Algorithm   Algorithm
	PredictedTp float64
}

// Select returns the algorithm the paper's Section 6 analysis predicts
// to be fastest for multiplying n×n matrices on m, with its model-
// predicted parallel time. It compares the Table 1 overhead functions
// of the applicable algorithms without running anything.
func Select(m *Machine, n int) Selection {
	letter := regions.Best(Params{Ts: m.Ts, Tw: m.Tw}, float64(n), float64(m.P()))
	var name string
	var alg Algorithm
	switch letter {
	case 'b':
		name, alg = "Berntsen", core.Berntsen
	case 'c':
		name, alg = "Cannon", core.Cannon
	case 'd':
		name, alg = "DNS", core.DNS
	default: // 'a', serial (p=1, any algorithm degenerates), infeasible
		name, alg = "GK", core.GK
	}
	return Selection{Name: name, Algorithm: alg, PredictedTp: predictedTp(name, m, n)}
}

// predictedTp evaluates the paper's closed-form parallel time of the
// named algorithm (Eqs. 2–7) for n×n matrices on m; 0 when the model
// has no equation for the name.
func predictedTp(name string, m *Machine, n int) float64 {
	pr := Params{Ts: m.Ts, Tw: m.Tw}
	nf, pf := float64(n), float64(m.P())
	switch name {
	case "Simple":
		return model.PaperSimpleTp(pr, nf, pf)
	case "Cannon":
		return model.PaperCannonTp(pr, nf, pf)
	case "Fox":
		return model.PaperFoxTp(pr, nf, pf)
	case "Berntsen":
		return model.PaperBerntsenTp(pr, nf, pf)
	case "DNS":
		return model.PaperDNSTp(pr, nf, pf)
	case "GK":
		return model.PaperGKTp(pr, nf, pf)
	}
	return 0
}

// RunAuto picks the predicted-fastest applicable algorithm for (m, n)
// and runs it with the given options, falling back along the overhead
// ordering when the preferred formulation's structural requirements
// (perfect square/cube processor counts, divisibility) do not hold for
// this exact configuration. The returned Selection identifies what
// actually ran.
func RunAuto(m *Machine, a, b *Matrix, opts ...Option) (*Result, Selection, error) {
	return runAuto(newRunConfig(opts), m, a, b)
}

func runAuto(cfg runConfig, m *Machine, a, b *Matrix) (*Result, Selection, error) {
	if cfg.checkpointing() {
		// Auto-selection falls back across algorithms on error, which
		// would misread a SuspendedError as a failure and could resume a
		// snapshot under a different program than suspended it.
		return nil, Selection{}, fmt.Errorf("matscale: checkpoint options require an explicit algorithm; auto-selection cannot guarantee the resumed program matches")
	}
	if a.Rows != a.Cols || b.Rows != b.Cols || a.Rows != b.Rows {
		return nil, Selection{}, fmt.Errorf("matscale: auto-selection needs equal square matrices, got %dx%d and %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	first := Select(m, a.Rows)
	candidates := []Selection{first}
	for _, c := range []struct {
		name string
		alg  Algorithm
	}{
		{"GK", core.GK}, {"Berntsen", core.Berntsen}, {"Cannon", core.Cannon},
		{"Simple", core.Simple}, {"DNS", core.DNS}, {"Fox", core.Fox},
	} {
		if c.name != first.Name {
			candidates = append(candidates, Selection{Name: c.name, Algorithm: c.alg, PredictedTp: predictedTp(c.name, m, a.Rows)})
		}
	}
	mm := cfg.machineFor(m)
	var lastErr error
	for _, c := range candidates {
		res, err := c.Algorithm(mm, a, b)
		if err == nil {
			return res, c, cfg.export(res)
		}
		lastErr = err
	}
	return nil, Selection{}, fmt.Errorf("matscale: no algorithm accepts n=%d on %s: %w", a.Rows, m, lastErr)
}

// Sweep runs a whole experiment grid — every cell of spec's
// algorithms × machines × Ps × Ns × fault-scenarios cross product —
// fanning the independent simulations over a host worker pool and
// returning the merged result:
//
//	spec := &matscale.SweepSpec{
//	        Algorithms: []string{"cannon", "gk"},
//	        Machines:   []string{"ncube2"},
//	        Ps:         []int{16, 64, 256},
//	        Ns:         []int{64, 128},
//	}
//	res, err := matscale.Sweep(spec, matscale.WithWorkers(4))
//	// res.Cells holds one SweepCell per grid point, sorted;
//	// res.CSV() / res.WriteJSON(w) / res.Render() export it.
//
// WithWorkers selects the pool size (default all CPUs) and
// WithProgress observes cells as they complete. The checkpoint options
// are rejected with a typed *UnsupportedCapabilityError — a sweep's
// suspension granularity is the cell, exposed through the SweepServer
// job-control API, not the run-level cut. The remaining options are
// ignored — per-cell fault scenarios come from spec.Faults, so that
// clean-vs-faulted grids are part of the declarative spec. For a fixed
// spec the result — including its CSV, JSON and rendered forms — is
// byte-identical at every worker count; see docs/SWEEP.md.
func Sweep(spec *SweepSpec, opts ...Option) (*SweepResult, error) {
	cfg := newRunConfig(opts)
	if cfg.checkpointing() {
		return nil, &UnsupportedCapabilityError{
			Backend:    machine.BackendEvents,
			Capability: "run-level checkpoint/resume",
			Reason:     "sweeps checkpoint at cell granularity; use the SweepServer job-control API (suspend/resume)",
		}
	}
	return sweep.Run(spec, sweep.Options{Workers: cfg.workers, Progress: cfg.progress})
}

// RunAll regenerates the full paper reproduction — every table, figure
// and analysis — writing the rendered reports to w in the paper's
// order. quick skips the two CM-5 efficiency sweeps (Figures 4 and 5),
// which dominate the running time. The report sections and their inner
// experiment grids run concurrently on the WithWorkers pool (default
// all CPUs); the bytes written to w are identical for every worker
// count. The other options are ignored.
func RunAll(w io.Writer, quick bool, opts ...Option) error {
	return experiments.RunAll(w, quick, newRunConfig(opts).workers)
}

// HostMul multiplies on the host machine with real goroutine workers —
// the library's non-simulated fast path, in the error style of the rest
// of the public API. WithWorkers selects the worker count (default all
// CPUs); the other options are ignored. It returns an error on an
// inner-dimension mismatch (a and b may be rectangular).
//
// The result is bit-identical to Mul at any worker count: the kernel
// partitions the output into statically owned slabs and runs the
// serial accumulation loop inside each, so parallelism only changes
// wall-clock time, never a single output bit.
func HostMul(a, b *Matrix, opts ...Option) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("matscale: HostMul inner dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	c := matrix.New(a.Rows, b.Cols)
	matrix.MulAddIntoParallel(c, a, b, newRunConfig(opts).workers)
	return c, nil
}
