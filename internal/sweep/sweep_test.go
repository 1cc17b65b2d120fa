package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"matscale/internal/core"
	"matscale/internal/machine"
	"matscale/internal/matrix"
	"matscale/internal/model"
)

func gridSpec() *Spec {
	return &Spec{
		Algorithms: []string{"cannon", "gk"},
		Machines:   []string{"custom"},
		Ts:         17, Tw: 3,
		Ps:   []int{16, 64},
		Ns:   []int{16, 32},
		Seed: 1,
	}
}

func TestSpecCellsSortedAndDeduplicated(t *testing.T) {
	s := gridSpec()
	s.Algorithms = []string{"gk", "cannon", "gk"} // unsorted, duplicated
	cells, err := s.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*2*2 { // 2 algs × 2 p × 2 n
		t.Fatalf("got %d cells, want 8", len(cells))
	}
	for i := 1; i < len(cells); i++ {
		if !cells[i-1].less(cells[i]) {
			t.Fatalf("cells not strictly sorted at %d: %v !< %v", i, cells[i-1], cells[i])
		}
	}
	if cells[0].Algorithm != "cannon" {
		t.Fatalf("first cell %v, want cannon first", cells[0])
	}
}

func TestSpecValidateRejectsBadInput(t *testing.T) {
	cases := []func(*Spec){
		func(s *Spec) { s.Algorithms = nil },
		func(s *Spec) { s.Algorithms = []string{"nope"} },
		func(s *Spec) { s.Machines = nil },
		func(s *Spec) { s.Machines = []string{"nope"} },
		func(s *Spec) { s.Ps = nil },
		func(s *Spec) { s.Ns = nil },
		func(s *Spec) { s.Ps = []int{0} },
		func(s *Spec) { s.Ns = []int{-4} },
		func(s *Spec) { s.Faults = []string{"straggler=???"} },
	}
	for i, mutate := range cases {
		s := gridSpec()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: bad spec accepted", i)
		}
	}
	if err := gridSpec().Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
}

func TestFaultScenariosCanonicalized(t *testing.T) {
	s := gridSpec()
	// Same scenario spelled twice plus clean: three spellings, two
	// distinct scenarios.
	s.Faults = []string{"", "straggler=2@rank0,seed=42", "seed=42,straggler=2@rank0"}
	cells, err := s.Cells()
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{}
	for _, c := range cells {
		distinct[c.Faults] = true
	}
	if len(distinct) != 2 {
		t.Fatalf("distinct scenarios = %v, want clean + one canonical faulted", distinct)
	}
	if !distinct[""] {
		t.Fatal("clean scenario lost")
	}
}

// TestRunByteIdenticalAcrossWorkerCounts is the engine's core
// guarantee: a fixed spec emits byte-identical CSV, JSON and rendered
// output at 1 worker, 4 workers and NumCPU workers — including under a
// seeded fault scenario.
func TestRunByteIdenticalAcrossWorkerCounts(t *testing.T) {
	s := gridSpec()
	s.Faults = []string{"", "straggler=2@rank0,seed=42"}
	var base *Result
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		r, err := Run(s, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if base == nil {
			base = r
			continue
		}
		if got, want := r.CSV(), base.CSV(); got != want {
			t.Fatalf("workers=%d: CSV diverged\n--- got ---\n%s--- want ---\n%s", workers, got, want)
		}
		var gotJ, wantJ strings.Builder
		if err := r.WriteJSON(&gotJ); err != nil {
			t.Fatal(err)
		}
		if err := base.WriteJSON(&wantJ); err != nil {
			t.Fatal(err)
		}
		if gotJ.String() != wantJ.String() {
			t.Fatalf("workers=%d: JSON diverged", workers)
		}
		if r.Render() != base.Render() {
			t.Fatalf("workers=%d: rendered table diverged", workers)
		}
	}
}

func TestRunMeasurementsMatchModel(t *testing.T) {
	s := &Spec{
		Algorithms: []string{"cannon"},
		Machines:   []string{"custom"},
		Ts:         17, Tw: 3,
		Ps: []int{16}, Ns: []int{16},
	}
	r, err := Run(s, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 1 || r.Ran != 1 || r.Skipped != 0 {
		t.Fatalf("unexpected result shape: %+v", r)
	}
	c := r.Cells[0]
	want := model.ExactCannonTp(model.Params{Ts: 17, Tw: 3}, 16, 16)
	if c.Tp != want {
		t.Fatalf("Tp = %v, want Eq.(3) = %v", c.Tp, want)
	}
	if c.PredictedTp != model.PaperCannonTp(model.Params{Ts: 17, Tw: 3}, 16, 16) {
		t.Fatalf("PredictedTp = %v", c.PredictedTp)
	}
	if c.Efficiency <= 0 || c.Speedup <= 0 {
		t.Fatalf("derived quantities not populated: %+v", c)
	}
}

func TestRunRecordsInapplicableCells(t *testing.T) {
	// GK needs a perfect-cube p; p=16 is rejected, p=64 runs.
	s := &Spec{
		Algorithms: []string{"gk"},
		Machines:   []string{"custom"},
		Ts:         17, Tw: 3,
		Ps: []int{16, 64}, Ns: []int{16},
	}
	r, err := Run(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Ran != 1 || r.Skipped != 1 {
		t.Fatalf("ran=%d skipped=%d, want 1/1", r.Ran, r.Skipped)
	}
	var rejected *CellResult
	for i := range r.Cells {
		if r.Cells[i].Err != "" {
			rejected = &r.Cells[i]
		}
	}
	if rejected == nil || rejected.P != 16 {
		t.Fatalf("expected the p=16 cell rejected, got %+v", r.Cells)
	}
	if !strings.Contains(r.Render(), "n/a:") {
		t.Fatal("rendered table does not show the rejection")
	}
}

// TestRunRejectsNonPowerOfTwoHypercubeCells pins that a processor
// count a hypercube preset cannot have rejects its own cells, naming
// the preset and p, instead of failing the sweep: every other cell of
// the grid still runs.
func TestRunRejectsNonPowerOfTwoHypercubeCells(t *testing.T) {
	s := &Spec{
		Algorithms: []string{"cannon", "gk"},
		Machines:   []string{"ncube2", "custom", "cm5"},
		Ts:         17, Tw: 3,
		Ps: []int{9, 27}, Ns: []int{18},
	}
	r, err := Run(s, Options{Workers: 2})
	if err != nil {
		t.Fatalf("sweep failed: %v", err)
	}
	if len(r.Cells) != 12 || r.Ran != 1 || r.Skipped != 11 {
		t.Fatalf("cells=%d ran=%d skipped=%d, want 12/1/11", len(r.Cells), r.Ran, r.Skipped)
	}
	for _, c := range r.Cells {
		hypercube := c.Machine != "cm5"
		if !hypercube {
			// The CM-5 is fully connected, so Cannon runs p = 9; the
			// other cells are the formulations' own rejections (GK
			// needs a power-of-two cube side).
			if ran := c.Err == ""; ran != (c.Algorithm == "cannon" && c.P == 9) {
				t.Errorf("%s: err %q", c.Key(), c.Err)
			}
			continue
		}
		want := fmt.Sprintf("preset %q is a hypercube, and p = %d is not a power of two", c.Machine, c.P)
		if !strings.Contains(c.Err, want) {
			t.Errorf("%s: err %q, want it to contain %q", c.Key(), c.Err, want)
		}
	}
}

func TestPredictionMemoizationAcrossFaultScenarios(t *testing.T) {
	s := gridSpec()
	s.Faults = []string{"", "straggler=3@rank0,seed=7"}
	r, err := Run(s, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Every (alg, machine, p, n) appears once clean and once faulted:
	// the second occurrence must hit the cache.
	if want := len(r.Cells) / 2; r.PredCacheHits != want {
		t.Fatalf("PredCacheHits = %d, want %d", r.PredCacheHits, want)
	}
	// The faulted twin predicts the same closed-form Tp but measures a
	// slower simulated one.
	byKey := map[string]CellResult{}
	for _, c := range r.Cells {
		byKey[c.Key()] = c
	}
	for _, c := range r.Cells {
		if c.Faults == "" || c.Err != "" {
			continue
		}
		clean := byKey[Cell{Algorithm: c.Algorithm, Machine: c.Machine, P: c.P, N: c.N}.Key()]
		if c.PredictedTp != clean.PredictedTp {
			t.Fatalf("%s: faulted prediction %v != clean %v", c.Key(), c.PredictedTp, clean.PredictedTp)
		}
		if c.Tp <= clean.Tp {
			t.Fatalf("%s: straggler did not slow the run (%v <= %v)", c.Key(), c.Tp, clean.Tp)
		}
	}
}

func TestProgressReportsEveryCell(t *testing.T) {
	s := gridSpec()
	var mu sync.Mutex
	var dones []int
	total := 0
	r, err := Run(s, Options{Workers: 4, Progress: func(done, tot int, c CellResult) {
		mu.Lock()
		dones = append(dones, done)
		total = tot
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(dones) != len(r.Cells) || total != len(r.Cells) {
		t.Fatalf("progress calls = %d (total %d), want %d", len(dones), total, len(r.Cells))
	}
	seen := map[int]bool{}
	for _, d := range dones {
		seen[d] = true
	}
	for i := 1; i <= len(r.Cells); i++ {
		if !seen[i] {
			t.Fatalf("done count %d never reported", i)
		}
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	r, err := Run(gridSpec(), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal([]byte(sb.String()), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Cells) != len(r.Cells) || back.Ran != r.Ran {
		t.Fatalf("round trip lost cells: %d/%d", len(back.Cells), back.Ran)
	}
}

func TestCSVQuoting(t *testing.T) {
	r := &Result{Cells: []CellResult{{
		Cell: Cell{Algorithm: "gk", Machine: "custom", P: 64, N: 16, Faults: "straggler=2@rank0,seed=42"},
	}}}
	csv := r.CSV()
	if !strings.Contains(csv, `"straggler=2@rank0,seed=42"`) {
		t.Fatalf("comma-bearing field not quoted:\n%s", csv)
	}
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 2 {
		t.Fatalf("want header + 1 row, got %d lines", len(lines))
	}
}

// TestAlgorithmNamesSorted checks that a spec accepts every key of the
// formulation table and that the algorithm list Validate reports to a
// spec naming none is the sorted key list.
func TestAlgorithmNamesSorted(t *testing.T) {
	const keys = "berntsen, cannon, dns, fox, foxpipe, gk, gkimproved, simple"
	for _, missing := range [][]string{nil, {"nope"}} {
		s := gridSpec()
		s.Algorithms = missing
		err := s.Validate()
		if err == nil || !strings.HasSuffix(err.Error(), "(have: "+keys+")") {
			t.Errorf("Algorithms = %q: Validate = %v, want the key list %s", missing, err, keys)
		}
	}
	s := gridSpec()
	s.Algorithms = strings.Split(keys, ", ")
	if err := s.Validate(); err != nil {
		t.Fatalf("every key: %v", err)
	}
}

// TestFormulationTable sweeps every key of the formulation table on a
// hypercube and on the fully connected CM-5 and checks each cell
// against the row it names: PredictedTp is the paper equation of the
// key on that network (0 where the paper prints none), and Tp or Err
// is what the row's Run gives for the sweep's operands.
func TestFormulationTable(t *testing.T) {
	type tp = func(model.Params, float64, float64) float64
	equations := map[string][2]tp{
		"berntsen":   {model.PaperBerntsenTp, model.PaperBerntsenTp},
		"cannon":     {model.PaperCannonTp, model.PaperCannonTp},
		"dns":        {model.PaperDNSTp, model.PaperDNSTp},
		"fox":        {model.PaperFoxTp, model.PaperFoxTp},
		"foxpipe":    {model.PaperFoxTp, model.PaperFoxTp},
		"gk":         {model.PaperGKTp, model.PaperGKCM5Tp},
		"gkimproved": {nil, nil},
		"simple":     {model.PaperSimpleTp, model.PaperSimpleTp},
	}
	presets := []string{"ncube2", "cm5"}
	s := &Spec{Machines: presets, Ps: []int{16, 64}, Ns: []int{8, 16}, Seed: 3}
	for k := range equations {
		s.Algorithms = append(s.Algorithms, k)
	}
	res, err := Run(s, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ran := map[string]bool{}
	for _, c := range res.Cells {
		i := slices.Index(presets, c.Machine)
		build, ts, tw, _ := machine.LookupPreset(c.Machine, 0, 0)
		pr := model.Params{Ts: ts, Tw: tw}
		want := 0.0
		if eq := equations[c.Algorithm][i]; eq != nil {
			want = eq(pr, float64(c.N), float64(c.P))
		}
		if c.PredictedTp != want {
			t.Errorf("%v: PredictedTp = %v, want %v", c.Cell, c.PredictedTp, want)
		}
		f, _ := core.Lookup(c.Algorithm)
		m, err := build(c.P)
		if err != nil {
			t.Fatal(err)
		}
		seed := s.Seed + 2*uint64(c.N)
		out, err := f.Run(m, matrix.Random(c.N, c.N, seed), matrix.Random(c.N, c.N, seed+1))
		switch {
		case err != nil:
			if c.Err != err.Error() {
				t.Errorf("%v: Err = %q, want Run's %q", c.Cell, c.Err, err)
			}
		case c.Err != "" || c.Tp != out.Sim.Tp:
			t.Errorf("%v: Tp = %v, Err = %q, want Run's Tp %v", c.Cell, c.Tp, c.Err, out.Sim.Tp)
		default:
			ran[c.Algorithm+"/"+c.Machine] = true
		}
	}
	for k := range equations {
		for _, mach := range presets {
			if !ran[k+"/"+mach] {
				t.Errorf("%s on %s: no cell ran", k, mach)
			}
		}
	}
}

// countingCache is a CellCache that tracks hit/miss traffic for tests.
type countingCache struct {
	mu           sync.Mutex
	m            map[string]CellResult
	hits, misses int
}

func newCountingCache() *countingCache {
	return &countingCache{m: map[string]CellResult{}}
}

func (c *countingCache) Get(key string) (CellResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return r, ok
}

func (c *countingCache) Put(key string, r CellResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = r
}

func TestCellKeyCanonicalization(t *testing.T) {
	s := gridSpec()
	cells, err := s.Cells()
	if err != nil {
		t.Fatal(err)
	}
	// Distinct cells get distinct keys.
	seen := map[string]Cell{}
	for _, c := range cells {
		k := s.CellKey(c, 0)
		if prev, dup := seen[k]; dup {
			t.Fatalf("cells %v and %v share key %q", prev, c, k)
		}
		seen[k] = c
	}
	// Preset machines fold their own constants: specs differing only in
	// the (ignored) custom Ts/Tw share keys.
	a := &Spec{Algorithms: []string{"gk"}, Machines: []string{"ncube2"}, Ps: []int{16}, Ns: []int{16}, Ts: 1}
	b := &Spec{Algorithms: []string{"gk"}, Machines: []string{"ncube2"}, Ps: []int{16}, Ns: []int{16}, Ts: 99}
	cell := Cell{Algorithm: "gk", Machine: "ncube2", P: 16, N: 16}
	if a.CellKey(cell, 0) != b.CellKey(cell, 0) {
		t.Fatalf("preset machine keys fragment on ignored constants:\n%s\n%s", a.CellKey(cell, 0), b.CellKey(cell, 0))
	}
	// ...but custom machines do key on them.
	a.Machines, b.Machines = []string{"custom"}, []string{"custom"}
	cell.Machine = "custom"
	if a.CellKey(cell, 0) == b.CellKey(cell, 0) {
		t.Fatal("custom machine keys must include ts/tw")
	}
	// Seed and backend are part of the key.
	c := *a
	c.Seed = 7
	if a.CellKey(cell, 0) == c.CellKey(cell, 0) {
		t.Fatal("seed not in key")
	}
	if a.CellKey(cell, 0) == a.CellKey(cell, 1) {
		t.Fatal("backend not in key")
	}
}

func TestCacheHitsAreByteIdenticalToMisses(t *testing.T) {
	s := gridSpec()
	cold, err := Run(s, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cache := newCountingCache()
	miss, err := Run(s, Options{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if cache.hits != 0 || cache.misses != len(miss.Cells) {
		t.Fatalf("first cached run: %d hits, %d misses, want 0/%d", cache.hits, cache.misses, len(miss.Cells))
	}
	hit, err := Run(s, Options{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if cache.hits != len(hit.Cells) {
		t.Fatalf("second cached run: %d hits, want %d", cache.hits, len(hit.Cells))
	}
	for name, r := range map[string]*Result{"uncached": cold, "miss": miss, "hit": hit} { //nodetbreak:ordered — test-only comparison
		if r.CSV() != cold.CSV() {
			t.Fatalf("%s CSV differs from uncached run", name)
		}
		var a, b strings.Builder
		if err := r.WriteJSON(&a); err != nil {
			t.Fatal(err)
		}
		if err := cold.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("%s JSON differs from uncached run", name)
		}
	}
}

func TestCacheSharedAcrossOverlappingSpecs(t *testing.T) {
	cache := newCountingCache()
	s := gridSpec()
	if _, err := Run(s, Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	// A different spec whose grid overlaps in (cannon, custom, 16, 16)
	// hits the shared cells and misses only its new ones.
	o := &Spec{
		Algorithms: []string{"cannon"},
		Machines:   []string{"custom"},
		Ts:         17, Tw: 3,
		Ps:   []int{16},
		Ns:   []int{16, 64},
		Seed: 1,
	}
	cache.hits, cache.misses = 0, 0
	if _, err := Run(o, Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if cache.hits != 1 || cache.misses != 1 {
		t.Fatalf("overlapping spec: %d hits, %d misses, want 1/1", cache.hits, cache.misses)
	}
}

// TestCachedRunGeneratesNoOperands pins the lazy operands: once a cache
// holds every cell, re-running the spec allocates less than one of its
// n×n operand matrices, and returns the cold run's Result.
func TestCachedRunGeneratesNoOperands(t *testing.T) {
	const n = 352
	s := &Spec{
		Algorithms: []string{"cannon"},
		Machines:   []string{"custom"},
		Ts:         17, Tw: 3,
		Ps:   []int{16},
		Ns:   []int{n},
		Seed: 1,
	}
	cache := newCountingCache()
	cold, err := Run(s, Options{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	hit, err := Run(s, Options{Workers: 1, Cache: cache})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if cache.hits != len(hit.Cells) {
		t.Fatalf("re-run: %d cache hits, want %d", cache.hits, len(hit.Cells))
	}
	if got, matrixBytes := after.TotalAlloc-before.TotalAlloc, uint64(n*n*8); got >= matrixBytes {
		t.Errorf("cached re-run allocated %d bytes, want fewer than one %dx%d matrix (%d)", got, n, n, matrixBytes)
	}
	if !reflect.DeepEqual(hit, cold) {
		t.Error("cached re-run's Result differs from the cold run's")
	}
}

// TestColdSweepTimesWithoutOperands pins the payload-free cells: a
// cold, uncached sweep whose cells all take the wave tier times them
// from their skeletons and allocates less than one of its n×n operand
// matrices. A silent fallback to operands and a host product fails it.
func TestColdSweepTimesWithoutOperands(t *testing.T) {
	const n = 352
	s := &Spec{
		Algorithms: []string{"cannon", "fox", "foxpipe", "gk", "gkimproved"},
		Machines:   []string{"custom", "cm5"},
		Ts:         17, Tw: 3,
		Ps:   []int{1, 64},
		Ns:   []int{n},
		Seed: 1,
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(s, Options{Workers: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ran != len(res.Cells) {
		t.Fatalf("%d of %d cells ran; every cell must take the wave tier", res.Ran, len(res.Cells))
	}
	if got, matrixBytes := after.TotalAlloc-before.TotalAlloc, uint64(n*n*8); got >= matrixBytes {
		t.Errorf("cold sweep allocated %d bytes, want fewer than one %dx%d matrix (%d)", got, n, n, matrixBytes)
	}
}

// TestRankProgramCellsUnchanged pins the operand path: formulations
// without a skeleton (simple) and lossy scenarios, which the wave tier
// declines, still multiply seeded operands through their rank
// programs, with the CSV the sweep emitted before skeleton timing.
func TestRankProgramCellsUnchanged(t *testing.T) {
	s := &Spec{
		Algorithms: []string{"simple", "cannon"},
		Machines:   []string{"custom"},
		Ts:         17, Tw: 3,
		Ps:     []int{4, 16},
		Ns:     []int{16, 24},
		Faults: []string{"", "loss=0.02,seed=7"},
		Seed:   1,
	}
	res, err := Run(s, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	const want = `algorithm,machine,p,n,faults,tp,speedup,efficiency,overhead,predicted_tp,retries,retry_time,error
cannon,custom,4,16,,1860,2.2021505376344086,0.5505376344086022,3344,1860,0,0,
cannon,custom,4,16,"seed=7,loss=0.02",1860,2.2021505376344086,0.5505376344086022,3344,1860,0,0,
cannon,custom,4,24,,5252,2.6321401370906323,0.6580350342726581,7184,5252,0,0,
cannon,custom,4,24,"seed=7,loss=0.02",5252,2.6321401370906323,0.6580350342726581,7184,5252,0,0,
cannon,custom,16,16,,776,5.278350515463917,0.32989690721649484,8320,776,0,0,
cannon,custom,16,16,"seed=7,loss=0.02",1036,3.9536679536679538,0.2471042471042471,12480,776,5,650,
cannon,custom,16,24,,1864,7.416309012875536,0.463519313304721,16000,1864,0,0,
cannon,custom,16,24,"seed=7,loss=0.02",2364,5.847715736040609,0.36548223350253806,24000,1864,5,1250,
simple,custom,4,16,,1442,2.840499306518724,0.710124826629681,1672,1860,0,0,
simple,custom,4,16,"seed=7,loss=0.02",1442,2.840499306518724,0.710124826629681,1672,1860,0,0,
simple,custom,4,24,,4354,3.175011483693156,0.793752870923289,3592,5252,0,0,
simple,custom,4,24,"seed=7,loss=0.02",4354,3.175011483693156,0.793752870923289,3592,5252,0,0,
simple,custom,16,16,,612,6.69281045751634,0.41830065359477125,5696,776,0,0,
simple,custom,16,16,"seed=7,loss=0.02",968,4.231404958677686,0.2644628099173554,11392,776,4,712,
simple,custom,16,24,,1580,8.749367088607595,0.5468354430379747,11456,1864,0,0,
simple,custom,16,24,"seed=7,loss=0.02",2296,6.020905923344948,0.37630662020905925,22912,1864,4,1432,
`
	if got := res.CSV(); got != want {
		t.Errorf("CSV differs from the rank programs' output:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestCancelAbortsBetweenCells(t *testing.T) {
	s := gridSpec()
	cancel := make(chan struct{})
	close(cancel)
	_, err := Run(s, Options{Workers: 2, Cancel: cancel})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled sweep returned %v, want ErrCanceled", err)
	}
	// A nil Cancel channel never aborts.
	if _, err := Run(s, Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
}
