package simulator_test

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"matscale/internal/collective"
	"matscale/internal/core"
	"matscale/internal/faults"
	"matscale/internal/machine"
	"matscale/internal/matrix"
	"matscale/internal/simulator"
	"matscale/internal/topology"
)

// waveEligible reports whether the simulator takes a skeleton run
// on m on the wave tier, probing RunSkeleton with an empty skeleton.
func waveEligible(m *machine.Machine) bool {
	_, ok, err := simulator.RunSkeleton(m, simulator.Skeleton{P: m.P()})
	return ok && err == nil
}

// nativeCases exercises both data paths of Cannon's wave-tier product:
// blk > 1 (blocked multiply) and blk == 1 (one element per processor,
// the million-rank shape), from a single rank up. The blocked cases
// include block sides 3 and 11, which leave the kernel's row and
// column edges inside every block.
var nativeCases = []struct {
	name string
	p, n int
}{
	{"blocked/p1", 1, 4},
	{"blocked/p16", 16, 16},
	{"blocked/p64", 64, 32},
	{"blocked/bs3/p16", 16, 12},
	{"blocked/bs3/p64", 64, 24},
	{"blocked/bs11/p16", 16, 44},
	{"blocked/bs11/p64", 64, 88},
	{"element/p16", 16, 4},
	{"element/p64", 64, 8},
	{"element/p1024", 1024, 32},
}

// stragglersAndJitter is the faulted configuration of the native
// suites: two stragglers and link jitter, no loss (a lossy machine
// takes the fiber tier).
func stragglersAndJitter() *faults.Config {
	return &faults.Config{
		Seed:       42,
		Stragglers: map[int]float64{5: 1.7, 11: 1.2},
		Jitter:     0.3,
	}
}

// faultLabel names a fault setting of the native suites in a subtest.
func faultLabel(fc *faults.Config) string {
	if fc == nil {
		return "clean"
	}
	return "faulted"
}

// assertWaveMatchesFiber runs alg on m, which must be eligible for the
// wave tier, and on its fiber-tier reference: the same machine with
// metrics on, whose Metrics are then dropped, since the wave tier
// collects none. The Results must be deeply equal and the products
// bitwise equal; the operands are real-valued, so any accumulation-
// order divergence shows up.
func assertWaveMatchesFiber(t *testing.T, alg core.Algorithm, m *machine.Machine, n int) {
	t.Helper()
	a := matrix.Random(n, n, 91)
	b := matrix.Random(n, n, 92)
	fm := *m
	fm.CollectMetrics = true
	fiber, err := alg(&fm, a, b)
	if err != nil {
		t.Fatalf("fiber: %v", err)
	}
	fiber.Sim.Metrics = nil
	if !waveEligible(m) {
		t.Fatal("expected machine to be eligible for the wave tier")
	}
	wave, err := alg(m, a, b)
	if err != nil {
		t.Fatalf("wave: %v", err)
	}
	if !reflect.DeepEqual(fiber.Sim, wave.Sim) {
		t.Errorf("Result differs: fiber Tp=%v msgs=%d words=%d, wave Tp=%v msgs=%d words=%d",
			fiber.Sim.Tp, fiber.Sim.Messages, fiber.Sim.Words, wave.Sim.Tp, wave.Sim.Messages, wave.Sim.Words)
	}
	if matrix.MaxAbsDiff(fiber.C, wave.C) != 0 {
		t.Error("product differs bitwise between message-passing and native accumulation")
	}
}

// TestNativeCannonMatchesGoroutines asserts the wave tier's lockstep
// (clean-machine) path is byte-identical to the fiber tier across block
// shapes and rank counts.
func TestNativeCannonMatchesGoroutines(t *testing.T) {
	for _, tc := range nativeCases {
		t.Run(tc.name, func(t *testing.T) {
			assertWaveMatchesFiber(t, core.Cannon, machine.NCube2(tc.p), tc.n)
		})
	}
}

// TestNativeCannonFaultedMatchesGoroutines drives the per-rank wave
// path: stragglers and link jitter make clocks diverge, so the wave
// passes must reproduce every rank's idle alignment exactly.
func TestNativeCannonFaultedMatchesGoroutines(t *testing.T) {
	for _, tc := range nativeCases {
		t.Run(tc.name, func(t *testing.T) {
			m := machine.NCube2(tc.p).WithFaults(stragglersAndJitter())
			assertWaveMatchesFiber(t, core.Cannon, m, tc.n)
		})
	}
}

// waveRows returns the rows of the formulation table that core's
// recorded golden digests time on the wave tier, read from their
// "wave/" lines, and those names.
func waveRows(t *testing.T) ([]core.Formulation, map[string]bool) {
	t.Helper()
	data, err := os.ReadFile("../core/testdata/golden_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "wave/"); ok {
			name, _, _ := strings.Cut(rest, "/")
			names[name] = true
		}
	}
	var rows []core.Formulation
	for _, f := range core.Formulations {
		if names[f.Name] {
			rows = append(rows, f)
		}
	}
	return rows, names
}

// checkMachines returns the machines the CLI's verify command checks
// row f on (its Checks, at ts = 17, tw = 3), named by family as these
// subtests were named when the machines were listed by hand.
func checkMachines(f core.Formulation) map[string]func(p int) *machine.Machine {
	out := map[string]func(int) *machine.Machine{}
	for _, c := range f.Checks {
		mk := func(p int) *machine.Machine { return c.Machine(p, 17, 3) }
		name := "hypercube"
		if m := mk(1); m.AllPort {
			name = "allport"
		} else if _, full := m.Topo.(topology.FullyConnected); full {
			name = "cm5-17-3"
		}
		out[name] = mk
	}
	return out
}

// TestNativeGKFamilyMatchesFiber asserts the wave-tier runs of the rows
// on a 3-D grid, the GK family — MsgTime routes and binomial trees for
// GK, charged stages for its two variants — are byte-identical to the
// fiber tier on their check machines, the CM-5 preset and a custom
// hypercube, clean and under stragglers plus jitter, from one rank to
// 512.
func TestNativeGKFamilyMatchesFiber(t *testing.T) {
	rows, _ := waveRows(t)
	for _, f := range rows {
		if f.NStep(8) == 0 {
			continue // not on a 3-D grid
		}
		machines := checkMachines(f)
		machines["cm5"] = machine.CM5
		machines["custom"] = func(p int) *machine.Machine { return machine.Hypercube(p, 40, 0.5) }
		for name, mk := range machines {
			for _, p := range []int{1, 8, 64, 512} {
				for _, fc := range []*faults.Config{nil, stragglersAndJitter()} {
					t.Run(fmt.Sprintf("%s/%s/p%d/%s", f.Name, name, p, faultLabel(fc)), func(t *testing.T) {
						assertWaveMatchesFiber(t, f.Run, mk(p).WithFaults(fc), 16)
					})
				}
			}
		}
	}
}

// TestNativeGKFamilyOddBlocks runs the GK family's wave ≡ fiber check
// on its check machines at block sides 3 and 11, whose partial products
// end in the kernel's row and column edges, clean and under stragglers
// plus jitter.
func TestNativeGKFamilyOddBlocks(t *testing.T) {
	rows, _ := waveRows(t)
	for _, f := range rows {
		if f.NStep(8) == 0 {
			continue // not on a 3-D grid
		}
		for name, mk := range checkMachines(f) {
			for _, c := range []struct{ p, bs int }{{8, 3}, {64, 3}, {8, 11}, {64, 11}} {
				for _, fc := range []*faults.Config{nil, stragglersAndJitter()} {
					t.Run(fmt.Sprintf("%s/%s/p%d/bs%d/%s", f.Name, name, c.p, c.bs, faultLabel(fc)), func(t *testing.T) {
						assertWaveMatchesFiber(t, f.Run, mk(c.p).WithFaults(fc), f.NStep(c.p)*c.bs)
					})
				}
			}
		}
	}
}

// foxCases are the mesh shapes of the Fox wave ≡ fiber suite: from a
// single rank to 256, with blocks of side 3 (the kernel's row and
// column edges) and of side 1 (the element-per-processor product).
var foxCases = []struct {
	name string
	p, n int
}{
	{"blocked/p1", 1, 4},
	{"blocked/p4", 4, 8},
	{"blocked/p16", 16, 16},
	{"blocked/p64", 64, 32},
	{"blocked/p256", 256, 32},
	{"blocked/bs3/p16", 16, 12},
	{"blocked/bs3/p64", 64, 24},
	{"element/p64", 64, 8},
	{"element/p256", 256, 16},
}

// TestNativeFoxMatchesFiber asserts the wave-tier runs of the mesh
// rows — Fox (binomial row broadcasts), FoxPipelined (charged row
// broadcasts) and Cannon — are byte-identical to the fiber tier on the
// hypercube presets, the CM-5 and a custom hypercube, clean and under
// stragglers plus jitter.
func TestNativeFoxMatchesFiber(t *testing.T) {
	machines := []struct {
		name string
		mk   func(p int) *machine.Machine
	}{
		{"ncube2", machine.NCube2},
		{"cm5", machine.CM5},
		{"custom", func(p int) *machine.Machine { return machine.Hypercube(p, 6.3, 3) }},
	}
	rows, _ := waveRows(t)
	for _, f := range rows {
		if f.NStep(4) == 0 {
			continue // not on a 2-D mesh
		}
		for _, mc := range machines {
			for _, tc := range foxCases {
				for _, fc := range []*faults.Config{nil, stragglersAndJitter()} {
					t.Run(fmt.Sprintf("%s/%s/%s/%s", f.Name, mc.name, tc.name, faultLabel(fc)), func(t *testing.T) {
						assertWaveMatchesFiber(t, f.Run, mc.mk(tc.p).WithFaults(fc), tc.n)
					})
				}
			}
		}
	}
}

// TestGKTakesWaveTier fails if a row the golden digests time on the
// wave tier — Cannon, the GK family, Fox or FoxPipelined — silently
// falls back to the fiber tier on an eligible machine, or if any other
// row takes it: on the CM-5 at its standard test cell each run must
// count exactly one wave-tier run for those rows and none for the
// others, and a run on a metrics machine none.
func TestGKTakesWaveTier(t *testing.T) {
	_, wave := waveRows(t)
	for _, f := range core.Formulations {
		c := f.Checks[0]
		a := matrix.Random(c.N, c.N, 1)
		b := matrix.Random(c.N, c.N, 2)
		want := int64(0)
		if wave[f.Name] {
			want = 1
		}
		for _, fc := range []*faults.Config{nil, stragglersAndJitter()} {
			m := machine.CM5(c.P).WithFaults(fc)
			before := simulator.WaveRuns()
			if _, err := f.Run(m, a, b); err != nil {
				t.Fatalf("%s: %v", f.Name, err)
			}
			if got := simulator.WaveRuns() - before; got != want {
				t.Errorf("%s (faults %v): %d wave-tier runs, want %d", f.Name, fc != nil, got, want)
			}
			observed := *m
			observed.CollectMetrics = true
			before = simulator.WaveRuns()
			if _, err := f.Run(&observed, a, b); err != nil {
				t.Fatalf("%s with metrics: %v", f.Name, err)
			}
			if got := simulator.WaveRuns() - before; got != 0 {
				t.Errorf("%s with metrics: %d wave-tier runs, want 0", f.Name, got)
			}
		}
	}
}

// TestSystolicEligibility pins the gate: every observability or
// per-message feature, and checkpoint control, must route the run
// through the general fiber tier instead.
func TestSystolicEligibility(t *testing.T) {
	base := func() *machine.Machine { return machine.NCube2(16) }
	if !waveEligible(base()) {
		t.Error("plain events machine should be eligible")
	}
	withMetrics := base()
	withMetrics.CollectMetrics = true
	withTrace := base()
	withTrace.CollectTrace = true
	withContention := base()
	withContention.TrackContention = true
	lossy := base().WithFaults(&faults.Config{Seed: 1, Loss: 0.1})
	checkpointed := base()
	checkpointed.Checkpoint = &machine.CheckpointControl{StopAfter: 1}
	for name, m := range map[string]*machine.Machine{
		"metrics": withMetrics, "trace": withTrace, "contention": withContention, "loss": lossy,
		"checkpoint": checkpointed,
	} {
		if waveEligible(m) {
			t.Errorf("%s machine must not be eligible for the wave tier", name)
		}
	}
	straggled := base().WithFaults(&faults.Config{Seed: 1, Stragglers: map[int]float64{0: 2}})
	if !waveEligible(straggled) {
		t.Error("straggler-only faults are supported by the wave path and should stay eligible")
	}
}

// TestRunSystolicRejectsMismatch pins the decline and error paths of
// RunSkeleton: a declined machine returns no error, and a skeleton
// that does not fit the machine or names ranks badly is an error, not
// a panic or a wrong answer.
func TestRunSystolicRejectsMismatch(t *testing.T) {
	observed := machine.NCube2(16)
	observed.CollectMetrics = true
	if _, ok, err := simulator.RunSkeleton(observed, simulator.Skeleton{P: 16}); ok || err != nil {
		t.Errorf("metrics machine: ok=%v err=%v, want a decline without error", ok, err)
	}
	m := machine.NCube2(16)
	if _, _, err := simulator.RunSkeleton(m, simulator.Skeleton{P: 8}); err == nil {
		t.Error("want error for rank-count mismatch")
	}
	pair := [][]int{{0, 1}}
	for name, step := range map[string]simulator.Step{
		"shift out of range":  simulator.Shift{Words: 1, Dst: func(r int) int { return r + 1 }},
		"send out of range":   simulator.Send{Words: 1, Dst: func(r int) int { return 16 }},
		"negative compute":    simulator.Compute{Flops: -1},
		"roots mismatch":      simulator.Broadcast{Words: 1, Groups: pair},
		"root out of range":   simulator.Reduce{Words: 1, Groups: pair, Roots: []int{2}},
		"overlapping groups":  simulator.Broadcast{Words: 1, Groups: [][]int{{0, 1}, {1, 2}}, Roots: []int{0, 0}},
		"tree not power of 2": simulator.Reduce{Words: 1, Groups: [][]int{{0, 1, 2}}, Roots: []int{0}},
		"negative charge":     simulator.Broadcast{Words: 1, Groups: pair, Roots: []int{0}, Cost: simulator.Charged(-1)},
		"gather out of range": simulator.Gather{Words: 1, Holders: []int{0, 16}},
		"negative repeat":     simulator.Repeat{Times: -1},
	} {
		if _, _, err := simulator.RunSkeleton(m, simulator.Skeleton{P: 16, Steps: []simulator.Step{step}}); err == nil {
			t.Errorf("%s: want an error", name)
		}
	}
}

// waveTotals is the part of a Result the wave tier computes: every
// field RunSkeleton fills in.
type waveTotals struct {
	Tp                                float64
	ProcClocks, ProcCompute, ProcComm []float64
	Messages, Words                   int
}

func totalsOf(res *simulator.Result) waveTotals {
	return waveTotals{res.Tp, res.ProcClocks, res.ProcCompute, res.ProcComm, res.Messages, res.Words}
}

// TestWaveStepsMatchFiber is the one-step differential for the steps
// the wave tier evaluates as clock maxima or by re-walking a body:
// Barrier, Gather and Repeat. Each skeleton starts with a Compute that
// stragglers make uneven, runs on a jittered hypercube, and must
// measure exactly what the equivalent rank program measures on the
// fiber tier.
func TestWaveStepsMatchFiber(t *testing.T) {
	const p, flops, words, tag = 8, 10, 3, 1
	m := machine.Hypercube(p, 7, 2).WithFaults(&faults.Config{
		Seed:       3,
		Stragglers: map[int]float64{2: 1.7, 7: 1.3},
		Jitter:     0.2,
	})
	everyone := []int{0, 1, 2, 3, 4, 5, 6, 7}
	ring := func(r int) int { return (r + 1) % p }
	// gather is the rank program of a Gather over holders: every holder
	// but the collector sends its words free, and the collector receives
	// them in holder order.
	gather := func(holders []int) func(*simulator.Proc) {
		if holders == nil {
			holders = everyone
		}
		return func(pr *simulator.Proc) {
			pr.Compute(flops)
			if len(holders) == 0 {
				return
			}
			c := holders[0]
			for _, r := range holders[1:] {
				switch pr.Rank() {
				case c:
					pr.Recycle(pr.Recv(r, tag))
				case r:
					pr.SendFree(c, tag, make([]float64, words))
				}
			}
		}
	}
	for _, tc := range []struct {
		name  string
		steps []simulator.Step
		body  func(*simulator.Proc)
	}{
		{"barrier", []simulator.Step{simulator.Compute{Flops: flops}, simulator.Barrier{}}, func(pr *simulator.Proc) {
			pr.Compute(flops)
			collective.BarrierFree(pr, everyone, tag)
		}},
		{"gather/all", []simulator.Step{simulator.Compute{Flops: flops}, simulator.Gather{Words: words}}, gather(nil)},
		{"gather/subset", []simulator.Step{simulator.Compute{Flops: flops}, simulator.Gather{Words: words, Holders: []int{5, 2, 7}}}, gather([]int{5, 2, 7})},
		{"gather/empty", []simulator.Step{simulator.Compute{Flops: flops}, simulator.Gather{Words: words, Holders: []int{}}}, gather([]int{})},
		{"repeat", []simulator.Step{simulator.Repeat{Times: 3, Body: []simulator.Step{
			simulator.Compute{Flops: flops}, simulator.Shift{Words: words, Dst: ring},
		}}}, func(pr *simulator.Proc) {
			for range 3 {
				pr.Compute(flops)
				pr.SendNeighbor(ring(pr.Rank()), tag, make([]float64, words))
				pr.Recycle(pr.Recv((pr.Rank()+p-1)%p, tag))
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fiber, err := simulator.Run(m, tc.body)
			if err != nil {
				t.Fatal(err)
			}
			wave, ok, err := simulator.RunSkeleton(m, simulator.Skeleton{P: p, Steps: tc.steps})
			if err != nil || !ok {
				t.Fatalf("RunSkeleton: ok=%v err=%v", ok, err)
			}
			if got, want := totalsOf(wave), totalsOf(fiber); !reflect.DeepEqual(got, want) {
				t.Errorf("wave  %+v\nfiber %+v", got, want)
			}
		})
	}
}

// TestWaveAllocsIndependentOfSteps is the wave tier's allocation gate:
// on both paths, a skeleton's allocations must not depend on how many
// steps it walks — on a faulted machine, so that the per-rank path
// runs, and on a healthy one with only compute, uniform shifts, free
// sends, barriers and gathers, so that the lockstep path runs.
func TestWaveAllocsIndependentOfSteps(t *testing.T) {
	const p = 64
	everyone := make([]int, p)
	for r := range everyone {
		everyone[r] = r
	}
	pairs := func(r int) int { return r ^ 1 }
	for _, tc := range []struct {
		name  string
		m     *machine.Machine
		block []simulator.Step
	}{
		{"per-rank", machine.Hypercube(p, 17, 3).WithFaults(stragglersAndJitter()), []simulator.Step{
			simulator.Broadcast{Words: 4, Groups: [][]int{everyone}, Roots: []int{3}},
			simulator.Reduce{Words: 4, Groups: [][]int{everyone}, Roots: []int{5}},
			simulator.Shift{Words: 4, Dst: pairs},
			simulator.Barrier{},
			simulator.Gather{Words: 4},
		}},
		{"lockstep", machine.Hypercube(p, 17, 3), []simulator.Step{
			simulator.Compute{Flops: 8},
			simulator.Shift{Words: 4, Dst: pairs},
			simulator.Send{Words: 4, Dst: pairs, Cost: simulator.Charged(0)},
			simulator.Barrier{},
			simulator.Gather{Words: 4},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := func(copies int) float64 {
				sk := simulator.Skeleton{P: p}
				for range copies {
					sk.Steps = append(sk.Steps, tc.block...)
				}
				return testing.AllocsPerRun(10, func() {
					if _, ok, err := simulator.RunSkeleton(tc.m, sk); !ok || err != nil {
						t.Fatalf("RunSkeleton: ok=%v err=%v", ok, err)
					}
				})
			}
			if one, many := allocs(1), allocs(16); one != many {
				t.Errorf("RunSkeleton allocates %v times for one copy of the steps and %v for 16", one, many)
			}
		})
	}
}

// TestWaveEvaluatesRankMapsOnce pins the validating pass: the wave
// tier calls every Shift and Send rank map exactly once per rank per
// distinct step, however often a Repeat runs it, and once for a body
// no iteration runs, which is still validated. It counts the calls on
// a Cannon-like skeleton on the lockstep path (healthy machine) and on
// the per-rank path (faulted), and on a GK-like skeleton of routed
// sends and binomial trees.
func TestWaveEvaluatesRankMapsOnce(t *testing.T) {
	const p = 64
	healthy := machine.Hypercube(p, 17, 3)
	mesh := topology.NewTorus2D(8, 8)
	grid := topology.NewGrid3D(4)
	// counted wraps each rank map of a skeleton, counting its calls in
	// its own element of calls.
	var calls []int
	counted := func(dst func(int) int) func(int) int {
		i := len(calls)
		calls = append(calls, 0)
		return func(r int) int {
			calls[i]++
			return dst(r)
		}
	}
	cannonLike := func() []simulator.Step {
		return []simulator.Step{
			simulator.Send{Words: 4, Cost: simulator.Charged(0), Dst: counted(mesh.Right)},
			simulator.Repeat{Times: 16, Body: []simulator.Step{
				simulator.Compute{Flops: 8},
				simulator.Shift{Words: 4, Dst: counted(mesh.Left)},
				simulator.Shift{Words: 4, Dst: counted(mesh.Up)},
			}},
			simulator.Repeat{Times: 0, Body: []simulator.Step{
				simulator.Shift{Words: 4, Dst: counted(mesh.Down)},
			}},
			simulator.Gather{Words: 4},
		}
	}
	lines := func(axis int) [][]int {
		var out [][]int
		for c1 := 0; c1 < grid.Q; c1++ {
			for c2 := 0; c2 < grid.Q; c2++ {
				out = append(out, grid.AxisLine(axis, c1, c2))
			}
		}
		return out
	}
	roots := make([]int, grid.Q*grid.Q)
	route := func(dst func(j, k int) int) simulator.Send {
		return simulator.Send{Words: 4, Dst: counted(func(r int) int {
			i, j, k := grid.Coords(r)
			if i != 0 {
				return -1
			}
			return dst(j, k)
		})}
	}
	gkLike := func() []simulator.Step {
		return []simulator.Step{
			route(func(j, k int) int { return grid.RankOf(k, j, k) }),
			simulator.Barrier{},
			simulator.Broadcast{Words: 4, Groups: lines(2), Roots: roots},
			route(func(j, k int) int { return grid.RankOf(j, j, k) }),
			simulator.Compute{Flops: 8},
			simulator.Reduce{Words: 4, Groups: lines(0), Roots: roots},
			simulator.Gather{Words: 4},
		}
	}
	for _, tc := range []struct {
		name  string
		m     *machine.Machine
		steps func() []simulator.Step
	}{
		{"lockstep", healthy, cannonLike},
		{"per-rank", healthy.WithFaults(stragglersAndJitter()), cannonLike},
		{"gk", healthy, gkLike},
	} {
		t.Run(tc.name, func(t *testing.T) {
			calls = calls[:0]
			sk := simulator.Skeleton{P: p, Steps: tc.steps()}
			if _, ok, err := simulator.RunSkeleton(tc.m, sk); !ok || err != nil {
				t.Fatalf("RunSkeleton: ok=%v err=%v", ok, err)
			}
			for i, n := range calls {
				if n != p {
					t.Errorf("rank map %d called %d times, want %d", i, n, p)
				}
			}
		})
	}
}
