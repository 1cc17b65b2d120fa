package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"matscale/internal/core"
	"matscale/internal/faults"
	"matscale/internal/machine"
	"matscale/internal/matrix"
	"matscale/internal/model"
	"matscale/internal/topology"
)

// Spec declares an experiment grid: the cross product of formulations,
// machine presets, processor counts, matrix sizes and fault scenarios.
// Every combination is one independent simulation cell.
type Spec struct {
	// Algorithms names the formulations to run by their keys in the
	// formulation table (core.Keys lists them).
	Algorithms []string `json:"algorithms"`
	// Machines names the machine presets: "ncube2", "fast", "simd",
	// "cm5", "custom". A "custom" machine is a store-and-forward
	// hypercube with the spec's Ts/Tw constants.
	Machines []string `json:"machines"`
	// Ts and Tw are the cost constants of "custom" machines, in flop
	// units (ignored by the named presets, which carry their own).
	Ts float64 `json:"ts,omitempty"`
	Tw float64 `json:"tw,omitempty"`
	// Ps and Ns are the processor counts and matrix dimensions of the
	// grid.
	Ps []int `json:"ps"`
	Ns []int `json:"ns"`
	// Faults lists fault scenarios in the docs/FAULTS.md grammar; the
	// empty string is the clean (unperturbed) machine. An empty or nil
	// slice means clean only. Scenarios are canonicalized (parsed and
	// re-rendered) before they become cell keys.
	Faults []string `json:"faults,omitempty"`
	// Seed is the base matrix seed: a cell at dimension n that runs a
	// rank program multiplies Random(n, n, Seed+2n) by
	// Random(n, n, Seed+2n+1). Cells timed from a skeleton alone (see
	// core.Formulation.Measure) use no operands, so the seed reaches only
	// the others, and no cell's timing depends on it. It stays part of
	// CellKey, so cache and checkpoint keys keep their meaning.
	Seed uint64 `json:"seed,omitempty"`
}

// Cell is one point of an expanded grid. Cells order lexicographically
// by (Algorithm, Machine, P, N, Faults) — the sorted cell keys that
// make sweep output independent of scheduling.
type Cell struct {
	Algorithm string `json:"algorithm"`
	Machine   string `json:"machine"`
	P         int    `json:"p"`
	N         int    `json:"n"`
	// Faults is the canonicalized fault scenario, "" when clean.
	Faults string `json:"faults,omitempty"`
}

// Key renders the cell's identity as a stable string, usable as a map
// key or log label.
func (c Cell) Key() string {
	return fmt.Sprintf("%s|%s|p%d|n%d|%s", c.Algorithm, c.Machine, c.P, c.N, c.Faults)
}

// less orders cells by (Algorithm, Machine, P, N, Faults).
func (c Cell) less(o Cell) bool {
	if c.Algorithm != o.Algorithm {
		return c.Algorithm < o.Algorithm
	}
	if c.Machine != o.Machine {
		return c.Machine < o.Machine
	}
	if c.P != o.P {
		return c.P < o.P
	}
	if c.N != o.N {
		return c.N < o.N
	}
	return c.Faults < o.Faults
}

// CellResult is the measured outcome of one cell. All times are in the
// paper's flop units.
type CellResult struct {
	Cell
	// Tp is the simulated parallel time; Speedup, Efficiency and
	// Overhead are the derived quantities for W = n³.
	Tp         float64 `json:"tp"`
	Speedup    float64 `json:"speedup"`
	Efficiency float64 `json:"efficiency"`
	Overhead   float64 `json:"overhead"`
	// PredictedTp is the closed-form model prediction for the cell
	// (memoized across the grid; 0 when the model has no equation for
	// the formulation).
	PredictedTp float64 `json:"predicted_tp,omitempty"`
	// Retries and RetryTime report the reliable-delivery layer's work
	// under a lossy fault scenario (zero when clean).
	Retries   int     `json:"retries,omitempty"`
	RetryTime float64 `json:"retry_time,omitempty"`
	// Err is non-empty when the formulation rejected the configuration
	// (structural requirements like perfect-square p or divisibility);
	// such cells are recorded, not fatal.
	Err string `json:"error,omitempty"`
}

// Result is a completed sweep: one CellResult per cell, in sorted cell
// order regardless of the worker count that produced them.
type Result struct {
	Spec  Spec         `json:"spec"`
	Cells []CellResult `json:"cells"`
	// Ran counts cells that produced a measurement, Skipped those the
	// formulation rejected.
	Ran     int `json:"ran"`
	Skipped int `json:"skipped"`
	// PredCacheHits counts closed-form predictions served from the
	// memo cache rather than recomputed — cells sharing
	// (algorithm, machine, n, p) across fault scenarios hit it.
	PredCacheHits int `json:"pred_cache_hits"`
}

// Options configures a sweep run.
type Options struct {
	// Workers is the number of host goroutines executing cells
	// (≤ 0: all CPUs). The worker count never changes the Result.
	Workers int
	// Progress, when non-nil, is called after each cell completes with
	// the number done so far and the total. Calls are serialized but
	// arrive in completion order, which is scheduling-dependent — sinks
	// that need determinism must consume the Result instead.
	Progress func(done, total int, r CellResult)
	// Backend is the simulation engine every cell executes on
	// (events by default; only tests and the benchmark set it). Like
	// Workers it never changes the Result: the backends are
	// byte-equivalent for a fixed spec.
	Backend machine.Backend
	// Cache, when non-nil, memoizes measured cell results across
	// sweeps keyed by Spec.CellKey. Because a cell's measurement is a
	// pure function of its canonical key, a hit returns the identical
	// CellResult the miss path would compute, so cached and uncached
	// sweeps of the same spec render byte-identically — the contract
	// matscale-server's cross-client cache relies on (docs/SERVER.md).
	Cache CellCache
	// Cancel, when non-nil, aborts the sweep when closed: cells not yet
	// started return ErrCanceled and Run reports it. Cells already
	// executing run to completion (a cell is the abort granularity), so
	// cancellation never tears a simulation mid-flight.
	Cancel <-chan struct{}
	// Suspend, when non-nil, suspends the sweep when closed: cells not
	// yet started are skipped, cells already executing finish (a cell is
	// the suspension granularity, mirroring Cancel), and Run returns a
	// *SuspendedError whose Checkpoint carries every completed cell.
	// When Cancel and Suspend close together, cancellation wins.
	Suspend <-chan struct{}
	// Resume, when non-nil, seeds the run with a prior suspension's
	// completed cells: they are merged into the Result (and replayed
	// through Progress, in cell order, before any simulation starts) and
	// only the remainder is simulated. The checkpoint's spec and backend
	// must match this run's exactly, else Run returns a typed
	// *CheckpointMismatchError.
	Resume *Checkpoint
}

// CellCache memoizes measured cell results across sweep runs. Get
// returns the cached result for a canonical cell key (see
// Spec.CellKey) and whether it was present; Put stores a freshly
// measured result. Implementations must be safe for concurrent use:
// the worker pool calls them from every worker, and a server shares
// one cache across jobs. Both hit and miss paths yield identical
// bytes for identical keys, so a cache can only change wall-clock
// time, never a Result.
type CellCache interface {
	Get(key string) (CellResult, bool)
	Put(key string, r CellResult)
}

// ErrCanceled is the error Run returns when Options.Cancel closes
// before the grid finishes; errors.Is recognizes it through any
// wrapping.
var ErrCanceled = errors.New("sweep: canceled")

// Validate checks the spec's names, ranges and fault grammar without
// running anything.
func (s *Spec) Validate() error {
	if len(s.Algorithms) == 0 {
		return fmt.Errorf("sweep: spec names no algorithms (have: %s)", strings.Join(core.Keys(), ", "))
	}
	for _, a := range s.Algorithms {
		if _, ok := core.Lookup(a); !ok {
			return fmt.Errorf("sweep: unknown algorithm %q (have: %s)", a, strings.Join(core.Keys(), ", "))
		}
	}
	if len(s.Machines) == 0 {
		return fmt.Errorf("sweep: spec names no machines")
	}
	for _, m := range s.Machines {
		if _, _, _, ok := machine.LookupPreset(m, s.Ts, s.Tw); !ok {
			return fmt.Errorf("sweep: unknown machine preset %q", m)
		}
	}
	if len(s.Ps) == 0 || len(s.Ns) == 0 {
		return fmt.Errorf("sweep: spec needs at least one p and one n")
	}
	for _, p := range s.Ps {
		if p < 1 {
			return fmt.Errorf("sweep: invalid processor count %d", p)
		}
	}
	for _, n := range s.Ns {
		if n < 1 {
			return fmt.Errorf("sweep: invalid matrix dimension %d", n)
		}
	}
	for _, f := range s.Faults {
		if f == "" {
			continue
		}
		if _, err := faults.Parse(f); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	return nil
}

// Cells expands the spec to its sorted, deduplicated cell list with
// canonicalized fault scenarios. The order is the merge order of every
// sweep output.
func (s *Spec) Cells() ([]Cell, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	scenarios, _, err := s.scenarios()
	if err != nil {
		return nil, err
	}
	var cells []Cell
	for _, alg := range s.Algorithms {
		for _, m := range s.Machines {
			for _, p := range s.Ps {
				for _, n := range s.Ns {
					for _, f := range scenarios {
						cells = append(cells, Cell{Algorithm: alg, Machine: m, P: p, N: n, Faults: f})
					}
				}
			}
		}
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].less(cells[j]) })
	// Deduplicate: repeated list entries must not run (or print) twice.
	out := cells[:0]
	for i, c := range cells {
		if i == 0 || cells[i-1] != c {
			out = append(out, c)
		}
	}
	return out, nil
}

// scenarios canonicalizes the spec's fault list: parsed configs keyed
// by their canonical rendering, with "" (clean) preserved. The clean
// scenario is implied when the list is empty.
func (s *Spec) scenarios() ([]string, map[string]*faults.Config, error) {
	list := s.Faults
	if len(list) == 0 {
		list = []string{""}
	}
	var keys []string
	cfgs := map[string]*faults.Config{}
	for _, f := range list {
		if f == "" {
			keys = append(keys, "")
			continue
		}
		cfg, err := faults.Parse(f)
		if err != nil {
			return nil, nil, fmt.Errorf("sweep: %w", err)
		}
		key := cfg.String()
		if _, dup := cfgs[key]; !dup {
			cfgs[key] = cfg
		}
		keys = append(keys, key)
	}
	return keys, cfgs, nil
}

// CellKey renders the canonical identity of one measured grid cell:
// every input that can change the cell's measurement — formulation,
// machine preset, the effective ts/tw constants, p, n, the
// canonicalized fault scenario, the base matrix seed, and the
// simulation backend. Two cells with equal keys produce byte-identical
// CellResults no matter which spec, sweep or process computed them,
// which is what makes the key safe as a cross-client CellCache key.
// c.Faults must already be canonical (cells from Spec.Cells are); the
// effective ts/tw folding means specs that differ only in constants a
// preset ignores still share keys. The backend is part of the key out
// of caution — the backends are byte-equivalent (docs/BACKENDS.md), so
// this only costs duplicate entries, never a wrong hit.
func (s *Spec) CellKey(c Cell, backend machine.Backend) string {
	_, ts, tw, _ := machine.LookupPreset(c.Machine, s.Ts, s.Tw)
	return strings.Join([]string{
		"cell", "v1",
		c.Algorithm, c.Machine,
		"ts=" + csvFloat(ts), "tw=" + csvFloat(tw),
		"p=" + strconv.Itoa(c.P), "n=" + strconv.Itoa(c.N),
		"f=" + c.Faults,
		"seed=" + strconv.FormatUint(s.Seed, 10),
		"backend=" + backend.String(),
	}, "|")
}

// predKey identifies one closed-form prediction.
type predKey struct {
	alg, mach string
	ts, tw    float64
	n, p      int
}

// Run executes the grid: it expands and sorts the cells, memoizes the
// closed-form predictions in a serial pre-pass (so the hit count is
// deterministic), fans the simulations out over the worker pool, and
// merges the results in cell order. The Result is identical — byte for
// byte once rendered — for every worker count.
func Run(s *Spec, opt Options) (*Result, error) {
	cells, err := s.Cells()
	if err != nil {
		return nil, err
	}
	_, cfgs, err := s.scenarios()
	if err != nil {
		return nil, err
	}

	res := &Result{Spec: *s, Cells: make([]CellResult, len(cells))}

	// Seed the grid from a resumed checkpoint. completed marks cells the
	// fan-out must not re-run; its slots are only touched by the owning
	// worker afterwards, so the post-ForEach read is race-free (the pool
	// joins before returning).
	completed := make([]bool, len(cells))
	if ck := opt.Resume; ck != nil {
		if err := validateResume(ck, s, opt.Backend); err != nil {
			return nil, err
		}
		index := make(map[string]int, len(cells))
		for i, c := range cells {
			index[c.Key()] = i
		}
		for _, r := range ck.Done {
			i, ok := index[r.Cell.Key()]
			if !ok {
				return nil, &CheckpointMismatchError{Reason: fmt.Sprintf(
					"checkpoint cell %q is not in the grid", r.Cell.Key())}
			}
			res.Cells[i] = r
			completed[i] = true
		}
	}

	// Serial pre-pass: closed-form predictions, memoized. Cells that
	// share (algorithm, machine, n, p) — e.g. the same grid point under
	// different fault scenarios — hit the cache.
	preds := make([]float64, len(cells))
	cache := map[predKey]float64{}
	for i, c := range cells {
		build, ts, tw, _ := machine.LookupPreset(c.Machine, s.Ts, s.Tw)
		k := predKey{alg: c.Algorithm, mach: c.Machine, ts: ts, tw: tw, n: c.N, p: c.P}
		v, ok := cache[k]
		if ok {
			res.PredCacheHits++
		} else {
			// A preset's network kind does not depend on p, so a
			// one-processor instance, valid on every network, answers
			// for every cell.
			one, _ := build(1)
			_, full := one.Topo.(topology.FullyConnected)
			if f, _ := core.Lookup(k.alg); f.PaperTp != nil {
				v = f.PaperTp(model.Params{Ts: ts, Tw: tw}, float64(k.n), float64(k.p), full)
			}
			cache[k] = v
		}
		preds[i] = v
	}

	// Input matrices, shared read-only by every cell at the same
	// dimension. Each dimension's pair is generated by the first cell
	// that has to run a rank program (see core.Formulation.Measure), so a
	// grid served from the cache, or timed from skeletons alone,
	// generates none. The pair is a pure function of (seed, n): which
	// worker builds it changes no byte.
	mats := map[int]func() [2]*matrix.Dense{}
	for _, c := range cells {
		if mats[c.N] == nil {
			n, seed := c.N, s.Seed+2*uint64(c.N)
			mats[n] = sync.OnceValue(func() [2]*matrix.Dense {
				return [2]*matrix.Dense{matrix.Random(n, n, seed), matrix.Random(n, n, seed+1)}
			})
		}
	}

	// Fan out. Each worker writes only its own cell's slot; progress is
	// the one serialized cross-worker channel. Cells are the cancel and
	// cache granularity: a canceled sweep aborts between cells, and a
	// cache hit replaces exactly one cell's simulation.
	var mu sync.Mutex
	done := 0
	report := func(r CellResult) {
		if opt.Progress != nil {
			mu.Lock()
			done++
			opt.Progress(done, len(cells), r)
			mu.Unlock()
		}
	}
	// Replay resumed cells through Progress in cell order before the
	// fan-out, so a resumed sweep's progress stream still accounts for
	// every cell of the grid.
	for i, ok := range completed {
		if ok {
			report(res.Cells[i])
		}
	}
	err = ForEach(opt.Workers, len(cells), func(i int) error {
		if completed[i] {
			return nil
		}
		if opt.Cancel != nil {
			select {
			case <-opt.Cancel:
				return ErrCanceled
			default:
			}
		}
		if opt.Suspend != nil {
			select {
			case <-opt.Suspend:
				return errSuspended
			default:
			}
		}
		c := cells[i]
		key := ""
		if opt.Cache != nil {
			key = s.CellKey(c, opt.Backend)
			if r, ok := opt.Cache.Get(key); ok {
				res.Cells[i] = r
				completed[i] = true
				report(r)
				return nil
			}
		}
		r := runCell(s, c, cfgs[c.Faults], mats[c.N], opt.Backend)
		r.PredictedTp = preds[i]
		if opt.Cache != nil {
			opt.Cache.Put(key, r)
		}
		res.Cells[i] = r
		completed[i] = true
		report(r)
		return nil
	})
	if errors.Is(err, errSuspended) {
		ck := &Checkpoint{Spec: *s, Backend: opt.Backend}
		for i, ok := range completed {
			if ok {
				ck.Done = append(ck.Done, res.Cells[i])
			}
		}
		return nil, &SuspendedError{Checkpoint: ck}
	}
	if err != nil {
		return nil, err
	}
	for _, r := range res.Cells {
		if r.Err == "" {
			res.Ran++
		} else {
			res.Skipped++
		}
	}
	return res, nil
}

// runCell executes one cell on its own machine instance and records
// either the measurements or the formulation's rejection.
func runCell(s *Spec, c Cell, fc *faults.Config, operands func() [2]*matrix.Dense, backend machine.Backend) CellResult {
	r := CellResult{Cell: c}
	build, _, _, ok := machine.LookupPreset(c.Machine, s.Ts, s.Tw)
	if !ok {
		r.Err = fmt.Sprintf("sweep: unknown machine preset %q", c.Machine)
		return r
	}
	m, err := build(c.P)
	if err != nil {
		r.Err = err.Error()
		return r
	}
	m.Backend = backend
	if fc != nil {
		m = m.WithFaults(fc)
	}
	f, _ := core.Lookup(c.Algorithm)
	sim, err := f.Measure(m, c.N, operands)
	if err != nil {
		r.Err = err.Error()
		return r
	}
	w := float64(c.N) * float64(c.N) * float64(c.N) // W = n³
	r.Tp = sim.Tp
	r.Speedup = sim.Speedup(w)
	r.Efficiency = sim.Efficiency(w)
	r.Overhead = sim.Overhead(w)
	r.Retries = sim.Retries
	r.RetryTime = sim.RetryTime
	return r
}

// csvFloat renders a float for CSV with full round-trip precision —
// the shortest representation that parses back exactly, so emission is
// deterministic and lossless.
func csvFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteCSV emits the sweep as comma-separated values with a header
// row, one line per cell in sorted cell order. For a fixed spec the
// bytes are identical for every worker count.
func (r *Result) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "algorithm,machine,p,n,faults,tp,speedup,efficiency,overhead,predicted_tp,retries,retry_time,error\n"); err != nil {
		return err
	}
	for _, c := range r.Cells {
		line := strings.Join([]string{
			c.Algorithm, c.Machine,
			strconv.Itoa(c.P), strconv.Itoa(c.N),
			csvQuote(c.Faults),
			csvFloat(c.Tp), csvFloat(c.Speedup), csvFloat(c.Efficiency), csvFloat(c.Overhead),
			csvFloat(c.PredictedTp),
			strconv.Itoa(c.Retries), csvFloat(c.RetryTime),
			csvQuote(c.Err),
		}, ",")
		if _, err := io.WriteString(w, line+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// csvQuote wraps fields that contain commas (fault scenarios, error
// messages) in double quotes per RFC 4180.
func csvQuote(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// CSV renders WriteCSV to a string.
func (r *Result) CSV() string {
	var sb strings.Builder
	r.WriteCSV(&sb) // strings.Builder never errors
	return sb.String()
}

// WriteJSON emits the sweep — spec, cells and counters — as indented
// JSON. Deterministic for a fixed spec.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Render formats the sweep as the aligned table the CLI prints.
func (r *Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "sweep: %d cells (%d ran, %d inapplicable), %d memoized predictions\n",
		len(r.Cells), r.Ran, r.Skipped, r.PredCacheHits)
	fmt.Fprintf(&sb, "%-10s %-7s %6s %6s %-26s %14s %12s %10s %14s\n",
		"algorithm", "machine", "p", "n", "faults", "Tp", "predicted", "eff.", "overhead")
	for _, c := range r.Cells {
		f := c.Faults
		if f == "" {
			f = "-"
		}
		if c.Err != "" {
			fmt.Fprintf(&sb, "%-10s %-7s %6d %6d %-26s n/a: %s\n",
				c.Algorithm, c.Machine, c.P, c.N, f, c.Err)
			continue
		}
		fmt.Fprintf(&sb, "%-10s %-7s %6d %6d %-26s %14.1f %12.1f %10.4f %14.1f\n",
			c.Algorithm, c.Machine, c.P, c.N, f, c.Tp, c.PredictedTp, c.Efficiency, c.Overhead)
	}
	return sb.String()
}
