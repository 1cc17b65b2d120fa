package sweep

import (
	"reflect"
	"testing"

	"matscale/internal/machine"
	"matscale/internal/matrix"
	"matscale/internal/simulator"
)

// engines lists both simulation engines, goroutines first.
var engines = []machine.Backend{machine.BackendGoroutines, machine.BackendEvents}

// TestBackendRunEquivalence runs single formulations on both engines
// and expects identical simulation results, metrics included.
func TestBackendRunEquivalence(t *testing.T) {
	for _, name := range []string{"cannon", "gk"} {
		alg, ok := LookupAlgorithm(name)
		if !ok {
			t.Fatalf("unknown algorithm %q", name)
		}
		a, b := matrix.Random(16, 16, 1), matrix.Random(16, 16, 2)
		var sims []*simulator.Result
		for _, e := range engines {
			m := machine.NCube2(64)
			m.CollectMetrics = true
			m.Backend = e
			res, err := alg(m, a, b)
			if err != nil {
				t.Fatalf("%s on %v: %v", name, e, err)
			}
			sims = append(sims, res.Sim)
		}
		if !reflect.DeepEqual(sims[0], sims[1]) {
			t.Fatalf("%s on ncube2(64): engines differ", name)
		}
	}
}

// TestBackendRunCannonTp runs Cannon's algorithm on identity operands
// on a 16-node hypercube and expects the same Tp on both engines.
func TestBackendRunCannonTp(t *testing.T) {
	alg, _ := LookupAlgorithm("cannon")
	a := matrix.Identity(16)
	for _, e := range engines {
		m := machine.Hypercube(16, 17, 3)
		m.Backend = e
		res, err := alg(m, a, a)
		if err != nil {
			t.Fatalf("cannon on %v: %v", e, err)
		}
		if res.Sim.Tp != 776 {
			t.Fatalf("cannon on %v: Tp = %v, want 776", e, res.Sim.Tp)
		}
	}
}

// TestBackendSweepEquivalence runs one grid on both engines through
// Options.Backend and expects byte-identical CSV.
func TestBackendSweepEquivalence(t *testing.T) {
	spec := &Spec{
		Algorithms: []string{"cannon", "gk"},
		Machines:   []string{"ncube2"},
		Ps:         []int{16, 64},
		Ns:         []int{16},
	}
	g, err := Run(spec, Options{Backend: machine.BackendGoroutines})
	if err != nil {
		t.Fatal(err)
	}
	e, err := Run(spec, Options{Backend: machine.BackendEvents})
	if err != nil {
		t.Fatal(err)
	}
	if g.CSV() != e.CSV() {
		t.Fatal("sweep CSV differs between backends")
	}
}
