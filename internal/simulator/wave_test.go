package simulator_test

import (
	"reflect"
	"testing"

	"matscale/internal/core"
	"matscale/internal/faults"
	"matscale/internal/machine"
	"matscale/internal/matrix"
	"matscale/internal/simulator"
)

// systolicEligible reports whether the simulator takes a systolic run
// on m on the wave tier, probing RunSystolic with an empty spec.
func systolicEligible(m *machine.Machine) bool {
	_, ok, err := simulator.RunSystolic(m, simulator.SystolicSpec{P: m.P(), GatherRoot: -1})
	return ok && err == nil
}

// nativeCases exercises both data paths of the systolic tier: blk > 1
// (blocked multiply) and blk == 1 (one element per processor, the
// million-rank shape).
var nativeCases = []struct {
	name string
	p, n int
}{
	{"blocked/p16", 16, 16},
	{"blocked/p64", 64, 32},
	{"element/p16", 16, 4},
	{"element/p64", 64, 8},
	{"element/p1024", 1024, 32},
}

// runCannonBoth runs Cannon on the goroutine backend and on the
// events backend's native systolic tier (observability off makes the
// events machine eligible) with real-valued matrices, so any
// accumulation-order divergence shows up bitwise.
func runCannonBoth(t *testing.T, p, n int, fc *faults.Config) (g, e *core.Result) {
	t.Helper()
	a := matrix.Random(n, n, 91)
	b := matrix.Random(n, n, 92)
	g, err := core.Cannon(simulator.OnEngine(machine.NCube2(p).WithFaults(fc), machine.BackendGoroutines), a, b)
	if err != nil {
		t.Fatalf("goroutines: %v", err)
	}
	em := simulator.OnEngine(machine.NCube2(p).WithFaults(fc), machine.BackendEvents)
	if !systolicEligible(em) {
		t.Fatal("expected machine to be eligible for the systolic tier")
	}
	e, err = core.Cannon(em, a, b)
	if err != nil {
		t.Fatalf("events native: %v", err)
	}
	return g, e
}

func assertNativeIdentical(t *testing.T, g, e *core.Result) {
	t.Helper()
	if !reflect.DeepEqual(g.Sim, e.Sim) {
		t.Errorf("Result differs: goroutines Tp=%v msgs=%d words=%d, native Tp=%v msgs=%d words=%d",
			g.Sim.Tp, g.Sim.Messages, g.Sim.Words, e.Sim.Tp, e.Sim.Messages, e.Sim.Words)
	}
	if matrix.MaxAbsDiff(g.C, e.C) != 0 {
		t.Error("product differs bitwise between message-passing and native accumulation")
	}
}

// TestNativeCannonMatchesGoroutines asserts the systolic tier's
// uniform (clean-machine) path is byte-identical to the goroutine
// backend across block shapes and rank counts.
func TestNativeCannonMatchesGoroutines(t *testing.T) {
	for _, tc := range nativeCases {
		t.Run(tc.name, func(t *testing.T) {
			g, e := runCannonBoth(t, tc.p, tc.n, nil)
			assertNativeIdentical(t, g, e)
		})
	}
}

// TestNativeCannonFaultedMatchesGoroutines drives the per-rank wave
// path: stragglers and link jitter make clocks diverge, so the wave
// passes must reproduce every rank's idle alignment exactly.
func TestNativeCannonFaultedMatchesGoroutines(t *testing.T) {
	fc := func() *faults.Config {
		return &faults.Config{
			Seed:       42,
			Stragglers: map[int]float64{5: 1.7, 11: 1.2},
			Jitter:     0.3,
		}
	}
	for _, tc := range nativeCases {
		t.Run(tc.name, func(t *testing.T) {
			g, e := runCannonBoth(t, tc.p, tc.n, fc())
			assertNativeIdentical(t, g, e)
		})
	}
}

// TestSystolicEligibility pins the gate: every observability or
// per-message feature must route the events backend through the
// general fiber engine instead.
func TestSystolicEligibility(t *testing.T) {
	base := func() *machine.Machine { return simulator.OnEngine(machine.NCube2(16), machine.BackendEvents) }
	if !systolicEligible(base()) {
		t.Error("plain events machine should be eligible")
	}
	if systolicEligible(simulator.OnEngine(machine.NCube2(16), machine.BackendGoroutines)) {
		t.Error("goroutines machine must not be eligible")
	}
	withMetrics := base()
	withMetrics.CollectMetrics = true
	withTrace := base()
	withTrace.CollectTrace = true
	withContention := base()
	withContention.TrackContention = true
	lossy := base().WithFaults(&faults.Config{Seed: 1, Loss: 0.1})
	for name, m := range map[string]*machine.Machine{
		"metrics": withMetrics, "trace": withTrace, "contention": withContention, "loss": lossy,
	} {
		if systolicEligible(m) {
			t.Errorf("%s machine must not be eligible for the systolic tier", name)
		}
	}
	straggled := base().WithFaults(&faults.Config{Seed: 1, Stragglers: map[int]float64{0: 2}})
	if !systolicEligible(straggled) {
		t.Error("straggler-only faults are supported by the wave path and should stay eligible")
	}
}

// TestRunSystolicRejectsMismatch pins the decline and error paths of
// the exported entry point.
func TestRunSystolicRejectsMismatch(t *testing.T) {
	m := simulator.OnEngine(machine.NCube2(16), machine.BackendGoroutines)
	if _, ok, err := simulator.RunSystolic(m, simulator.SystolicSpec{P: 16, GatherRoot: -1}); ok || err != nil {
		t.Errorf("non-events machine: ok=%v err=%v, want a decline without error", ok, err)
	}
	em := simulator.OnEngine(m, machine.BackendEvents)
	if _, _, err := simulator.RunSystolic(em, simulator.SystolicSpec{P: 8, GatherRoot: -1}); err == nil {
		t.Error("want error for rank-count mismatch")
	}
}
