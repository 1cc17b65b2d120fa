package core

import (
	"fmt"
	"reflect"
	"testing"

	"matscale/internal/faults"
	"matscale/internal/machine"
	"matscale/internal/matrix"
)

// skeletonRows returns the rows of the formulation table that have a
// timed skeleton.
func skeletonRows() []Formulation {
	var rows []Formulation
	for _, f := range Formulations {
		if f.skeleton != nil {
			rows = append(rows, f)
		}
	}
	return rows
}

// checkTimingMatchesRun times f's skeleton and runs f.Run on m for n×n
// operands and fails unless they agree: the same error text, or an
// accepted timing whose Result deep-equals Run's Result.Sim. It reports
// whether the configuration was accepted.
func checkTimingMatchesRun(t *testing.T, name string, f Formulation, m *machine.Machine, n int) bool {
	t.Helper()
	sim, ok, terr := timeSkeleton(m, n, f.skeleton)
	res, rerr := f.Run(m, matrix.Random(n, n, 91), matrix.Random(n, n, 92))
	switch {
	case rerr != nil:
		if terr == nil || terr.Error() != rerr.Error() {
			t.Errorf("%s: timing error %v, Run error %v", name, terr, rerr)
		}
		if ok || sim != nil {
			t.Errorf("%s: rejected timing returned ok=%v sim=%v", name, ok, sim)
		}
		return false
	case terr != nil || !ok:
		t.Errorf("%s: timing ok=%v err=%v, but Run succeeded", name, ok, terr)
	case !reflect.DeepEqual(sim, res.Sim):
		t.Errorf("%s: timed Result differs from Run's Sim:\n timing %+v\n run    %+v", name, sim, res.Sim)
	}
	return true
}

// TestTimingMatchesRun pins each row's skeleton timing to its Run: on
// every machine, processor count, dimension and scenario of the grid
// both take the same geometry decision, and an accepted configuration's
// timed Result is Run's Result.Sim, field for field. The all-port
// hypercube is GKAllPort's own machine (Section 7.2).
func TestTimingMatchesRun(t *testing.T) {
	machines := []struct {
		name string
		mk   func(p int) *machine.Machine
		ps   []int
	}{
		{"ncube2", machine.NCube2, []int{1, 4, 8, 16, 64, 512}},
		{"cm5", machine.CM5, []int{1, 4, 8, 16, 64, 512}},
		{"hypercube", func(p int) *machine.Machine { return machine.Hypercube(p, 6.3, 3) }, []int{1, 4, 8, 16, 64, 512}},
		{"allport", func(p int) *machine.Machine { return machine.Hypercube(p, 17, 3).WithAllPort(true) }, []int{1, 4, 8, 16, 64, 512}},
		// A torus needs a square p.
		{"mesh", func(p int) *machine.Machine { return machine.Mesh(p, 150, 3) }, []int{1, 4, 16, 64}},
	}
	scenarios := []struct {
		name string
		fc   *faults.Config
	}{
		{"clean", nil},
		{"straggled", &faults.Config{Seed: 42, Stragglers: map[int]float64{3: 1.5}, Jitter: 0.2}},
	}
	for _, f := range skeletonRows() {
		accepted, rejected := 0, 0
		for _, mc := range machines {
			for _, p := range mc.ps {
				for _, n := range []int{8, 12, 16, 32} {
					for _, sc := range scenarios {
						name := fmt.Sprintf("%s/%s/p=%d/n=%d/%s", f.Name, mc.name, p, n, sc.name)
						if checkTimingMatchesRun(t, name, f, mc.mk(p).WithFaults(sc.fc), n) {
							accepted++
						} else {
							rejected++
						}
					}
				}
			}
		}
		if accepted == 0 || rejected == 0 {
			t.Errorf("%s: grid accepted %d and rejected %d configurations; it must do both", f.Name, accepted, rejected)
		}
	}
}

// TestTimingRejectsLikeRun pins the geometry checks themselves: each
// rejection carries Run's error text on both paths, checked
// against the text itself so that a check dropped from a skeleton
// builder fails even though both paths share the builder. An invalid
// machine is reported before the geometry.
func TestTimingRejectsLikeRun(t *testing.T) {
	badCost := machine.NCube2(8).WithCost(-1, 3)
	badBackend := machine.NCube2(64)
	badBackend.Backend = machine.Backend(7)
	cases := []struct {
		form string
		m    *machine.Machine
		n    int
		want string
	}{
		{"Cannon", machine.NCube2(8), 8, "core: p = 8 is not a perfect square"},
		{"Cannon", machine.NCube2(16), 6, "core: mesh side 4 does not divide n = 6"},
		{"Cannon", badCost, 8, "machine: negative cost parameters ts=-1 tw=3 th=0"},
		{"Fox", machine.NCube2(32), 8, "core: p = 32 is not a perfect square"},
		{"Fox", machine.CM5(36), 12, "core: Fox needs a power-of-two mesh side, got 6"},
		{"Fox", machine.Mesh(16, 150, 3), 10, "core: mesh side 4 does not divide n = 10"},
		{"FoxPipelined", machine.CM5(36), 12, "core: Fox needs a power-of-two mesh side, got 6"},
		{"FoxPipelined", badBackend, 16, "machine: unknown backend Backend(7)"},
		{"GK", machine.NCube2(16), 8, "core: p = 16 is not a perfect cube"},
		{"GK", machine.CM5(27), 9, "core: cube side 3 is not a power of two"},
		{"GK", machine.NCube2(64), 6, "core: cube side 4 does not divide n = 6"},
		{"GK", badCost, 8, "machine: negative cost parameters ts=-1 tw=3 th=0"},
		{"GKImprovedBroadcast", machine.CM5(512), 12, "core: cube side 8 does not divide n = 12"},
		{"GKImprovedBroadcast", badBackend, 16, "machine: unknown backend Backend(7)"},
		{"GKAllPort", machine.Hypercube(32, 17, 3).WithAllPort(true), 8, "core: p = 32 is not a perfect cube"},
		{"GKAllPort", machine.Hypercube(64, 17, 3).WithAllPort(true), 10, "core: cube side 4 does not divide n = 10"},
	}
	for _, f := range skeletonRows() {
		checked := 0
		for _, c := range cases {
			if f.Name != c.form {
				continue
			}
			checked++
			name := fmt.Sprintf("%s/%v/n=%d", f.Name, c.m, c.n)
			if _, _, err := timeSkeleton(c.m, c.n, f.skeleton); err == nil || err.Error() != c.want {
				t.Errorf("%s: timing error %v, want %q", name, err, c.want)
			}
			if checkTimingMatchesRun(t, name, f, c.m, c.n) {
				t.Errorf("%s: accepted, want %q", name, c.want)
			}
		}
		if checked == 0 {
			t.Errorf("%s: no rejection case", f.Name)
		}
	}
}

// TestTimingDeclinesOffTheWave pins the machines only a rank program
// measures: with metrics, a trace, contention tracking, message loss,
// a checkpoint control or the goroutine backend, every skeleton timing
// declines with no Result and no error, and the row's Run still runs.
func TestTimingDeclinesOffTheWave(t *testing.T) {
	const p, n = 64, 16
	declining := map[string]func(m *machine.Machine) *machine.Machine{
		"metrics":    func(m *machine.Machine) *machine.Machine { m.CollectMetrics = true; return m },
		"trace":      func(m *machine.Machine) *machine.Machine { m.CollectTrace = true; return m },
		"contention": func(m *machine.Machine) *machine.Machine { m.TrackContention = true; return m },
		"loss": func(m *machine.Machine) *machine.Machine {
			return m.WithFaults(&faults.Config{Seed: 7, Loss: 0.02})
		},
		"checkpoint": func(m *machine.Machine) *machine.Machine {
			m.Checkpoint = &machine.CheckpointControl{StopAfter: 1 << 40}
			return m
		},
		"goroutines": func(m *machine.Machine) *machine.Machine { m.Backend = machine.BackendGoroutines; return m },
	}
	for _, f := range skeletonRows() {
		for what, mk := range declining {
			m := mk(machine.NCube2(p))
			sim, ok, err := timeSkeleton(m, n, f.skeleton)
			if ok || sim != nil || err != nil {
				t.Errorf("%s/%s: timing ok=%v sim=%v err=%v, want a silent decline", f.Name, what, ok, sim, err)
			}
			if _, err := f.Run(m, matrix.Random(n, n, 91), matrix.Random(n, n, 92)); err != nil {
				t.Errorf("%s/%s: Run: %v", f.Name, what, err)
			}
		}
	}
}

// TestGKSkeletonAllocsIndependentOfCube gates GK's skeleton builder:
// its q₃² grid lines per axis fill one backing array each, so building
// the skeleton of the 512-rank cube allocates as often as building the
// 64-rank one's.
func TestGKSkeletonAllocsIndependentOfCube(t *testing.T) {
	const n = 352
	allocs := func(p int) float64 {
		m := machine.CM5(p)
		return testing.AllocsPerRun(10, func() {
			if _, _, err := gkBinomial.skeleton(m, n); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(64), allocs(512); small != large {
		t.Errorf("gkBinomial.skeleton allocates %v times at p = 64 and %v at p = 512", small, large)
	}
}
