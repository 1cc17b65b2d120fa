package core

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"matscale/internal/machine"
	"matscale/internal/matrix"
)

// observed returns NCube2(p) with metrics collection on.
func observed(p int) *machine.Machine {
	m := machine.NCube2(p)
	m.CollectMetrics = true
	return m
}

// TestPerRankTimeBudget asserts the accounting contract of the
// observability layer on every algorithm: each rank's virtual time
// splits exactly into compute + send + idle summing to Tp, and the
// measured overhead equals To = p·Tp − n³ with no error at all.
func TestPerRankTimeBudget(t *testing.T) {
	for _, f := range Formulations {
		t.Run(f.Name, func(t *testing.T) {
			n := f.Checks[0].N // on p = 64 = 8² = 4³; DNS's n = 8 keeps p ≥ n²
			a, b := matrix.RandomInts(n, n, 1), matrix.RandomInts(n, n, 2)
			res, err := f.Run(observed(64), a, b)
			if err != nil {
				t.Fatal(err)
			}
			mt := res.Metrics
			if mt == nil {
				t.Fatal("Metrics nil with CollectMetrics set")
			}
			if mt.P != 64 || len(mt.Ranks) != 64 {
				t.Fatalf("P = %d, ranks = %d", mt.P, len(mt.Ranks))
			}
			tp := res.Sim.Tp
			if mt.Tp != tp {
				t.Fatalf("Metrics.Tp = %v, Sim.Tp = %v", mt.Tp, tp)
			}
			for _, r := range mt.Ranks {
				if got := r.Compute + r.Send + r.Idle; math.Abs(got-tp) > 1e-9 {
					t.Errorf("rank %d: compute(%v) + send(%v) + idle(%v) = %v, want Tp = %v",
						r.Rank, r.Compute, r.Send, r.Idle, got, tp)
				}
				if r.Finish > tp {
					t.Errorf("rank %d finishes at %v after Tp = %v", r.Rank, r.Finish, tp)
				}
			}
			if want := 64*tp - res.W(); mt.Overhead != want {
				t.Errorf("Overhead = %v, want p·Tp − W = %v exactly", mt.Overhead, want)
			}
			// The decomposition columns cover p·Tp exactly.
			if got := mt.TotalCompute + mt.TotalComm + mt.TotalIdle; math.Abs(got-64*tp) > 1e-6 {
				t.Errorf("ΣCompute+ΣSend+ΣIdle = %v, want p·Tp = %v", got, 64*tp)
			}
			if mt.LoadImbalance < 1 {
				t.Errorf("LoadImbalance = %v < 1", mt.LoadImbalance)
			}
			if mt.Ranks[mt.CriticalRank].Finish != tp {
				t.Errorf("critical rank %d finishes at %v, not Tp = %v",
					mt.CriticalRank, mt.Ranks[mt.CriticalRank].Finish, tp)
			}
		})
	}
}

// TestMetricsDeterministic asserts that two identical runs produce
// byte-identical metrics regardless of goroutine scheduling; it runs on
// the goroutine engine, the one whose schedule varies run to run.
func TestMetricsDeterministic(t *testing.T) {
	run := func() []byte {
		m := observed(64)
		m.Backend = machine.BackendGoroutines
		res, err := GK(m, matrix.RandomInts(16, 16, 1), matrix.RandomInts(16, 16, 2))
		if err != nil {
			t.Fatal(err)
		}
		j, err := json.Marshal(res.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	first, second := run(), run()
	if !bytes.Equal(first, second) {
		t.Fatalf("metrics differ between identical runs:\n%s\n%s", first, second)
	}
}

// TestMetricsDoNotPerturbRun asserts collection charges zero virtual
// time: Tp, message and word counts match a plain run exactly.
func TestMetricsDoNotPerturbRun(t *testing.T) {
	a := matrix.RandomInts(16, 16, 1)
	b := matrix.RandomInts(16, 16, 2)
	plain, err := Cannon(machine.NCube2(64), a, b)
	if err != nil {
		t.Fatal(err)
	}
	obs, err := Cannon(observed(64), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Sim.Tp != obs.Sim.Tp || plain.Sim.Messages != obs.Sim.Messages || plain.Sim.Words != obs.Sim.Words {
		t.Fatalf("metrics collection perturbed the run: %+v vs %+v", plain.Sim, obs.Sim)
	}
}

// TestGKChromeTraceValid asserts the Chrome trace_event export of a GK
// run is valid JSON in the trace_event envelope format.
func TestGKChromeTraceValid(t *testing.T) {
	m := machine.NCube2(64)
	m.CollectTrace = true
	res, err := GK(m, matrix.RandomInts(16, 16, 1), matrix.RandomInts(16, 16, 2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Sim.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal(doc["traceEvents"], &events); err != nil {
		t.Fatalf("traceEvents: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("no trace events")
	}
	for _, e := range events {
		if _, ok := e["ph"]; !ok {
			t.Fatalf("event without phase: %v", e)
		}
		if _, ok := e["pid"]; !ok {
			t.Fatalf("event without pid: %v", e)
		}
	}
	// Round-trip: re-encoding must succeed (the export is plain data).
	if _, err := json.Marshal(events); err != nil {
		t.Fatal(err)
	}
}
