package core

import (
	"bytes"
	"math"
	"testing"

	"matscale/internal/faults"
	"matscale/internal/machine"
	"matscale/internal/matrix"
)

// issueFaults is the acceptance scenario of this PR: seed 42, a 2×
// straggler at rank 0.
func issueFaults() *faults.Config {
	return &faults.Config{Seed: 42, Stragglers: map[int]float64{0: 2}}
}

func ncube2WithMetrics(p int, f *faults.Config) *machine.Machine {
	m := machine.NCube2(p)
	m.CollectMetrics = true
	m.Faults = f
	return m
}

func faultMetricsBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Sim.Metrics.WriteRanksCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := res.Sim.Metrics.WriteLinksCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// With seed=42, straggler=2@rank0 on NCube2(64), every formulation
// still returns the exact product, the per-rank accounting identities
// hold, measured To strictly exceeds the unfaulted run's, and two
// consecutive runs produce byte-identical metrics.
func TestAllFormulationsUnderStragglerFaults(t *testing.T) {
	const p = 64 // 8² = 4³: every row takes its standard cell's n here
	type tc struct {
		name string
		alg  Algorithm
		n    int
	}
	// Every row, and DNS on its 4×4×4 block grid — the standard entry
	// point for coarse-grained DNS at p < n².
	cases := []tc{{"DNS/grid", func(m *machine.Machine, a, b *matrix.Dense) (*Result, error) {
		return DNSWithGrid(m, a, b, 4)
	}, 16}}
	for _, f := range Formulations {
		cases = append(cases, tc{f.Name, f.Run, f.Checks[0].N})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a, b := matrix.RandomInts(c.n, c.n, 1000+uint64(c.n)), matrix.RandomInts(c.n, c.n, 2000+uint64(c.n))
			want := matrix.Mul(a, b)
			clean, err := c.alg(ncube2WithMetrics(p, nil), a, b)
			if err != nil {
				t.Fatal(err)
			}
			faulted, err := c.alg(ncube2WithMetrics(p, issueFaults()), a, b)
			if err != nil {
				t.Fatal(err)
			}
			// Exact product under faults.
			if d := matrix.MaxAbsDiff(faulted.C, want); d != 0 {
				t.Fatalf("faulted product differs from serial by %v", d)
			}
			// Per-rank accounting identity.
			tp := faulted.Sim.Tp
			for _, r := range faulted.Sim.Metrics.Ranks {
				sum := r.Compute + r.Send + r.Idle
				if math.Abs(sum-tp) > 1e-9*math.Max(1, tp) {
					t.Fatalf("rank %d: compute+send+idle = %v, Tp = %v", r.Rank, sum, tp)
				}
			}
			// Strictly more overhead than the clean run.
			if faulted.Overhead() <= clean.Overhead() {
				t.Fatalf("faulted To %v not above clean To %v", faulted.Overhead(), clean.Overhead())
			}
			// The degradation block attributes the damage.
			d := faulted.Sim.Metrics.Degradation
			if d == nil {
				t.Fatal("no degradation block")
			}
			if len(d.StraggledRanks) != 1 || d.StraggledRanks[0] != 0 {
				t.Fatalf("straggled ranks %v, want [0]", d.StraggledRanks)
			}
			if d.StragglerExtraCompute <= 0 {
				t.Fatal("no straggler extra compute recorded")
			}
			// Byte-identical reruns.
			again, err := c.alg(ncube2WithMetrics(p, issueFaults()), a, b)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(faultMetricsBytes(t, faulted), faultMetricsBytes(t, again)) {
				t.Fatal("two faulted runs produced different metrics bytes")
			}
			if matrix.MaxAbsDiff(faulted.C, again.C) != 0 {
				t.Fatal("two faulted runs produced different products")
			}
		})
	}
}

// Message loss with retries: the product stays exact, retry overhead is
// charged, and runs remain reproducible.
func TestFormulationsUnderMessageLoss(t *testing.T) {
	const n, p = 16, 64
	a := matrix.RandomInts(n, n, 7)
	b := matrix.RandomInts(n, n, 8)
	want := matrix.Mul(a, b)
	lossy := &faults.Config{Seed: 42, Loss: 0.05}

	for _, c := range []struct {
		name string
		alg  Algorithm
	}{
		{"Cannon", Cannon},
		{"Simple", Simple},
		{"GK", GK},
	} {
		t.Run(c.name, func(t *testing.T) {
			clean, err := c.alg(ncube2WithMetrics(p, nil), a, b)
			if err != nil {
				t.Fatal(err)
			}
			faulted, err := c.alg(ncube2WithMetrics(p, lossy), a, b)
			if err != nil {
				t.Fatal(err)
			}
			if d := matrix.MaxAbsDiff(faulted.C, want); d != 0 {
				t.Fatalf("lossy product differs from serial by %v", d)
			}
			if faulted.Sim.Retries == 0 {
				t.Fatal("5% loss over hundreds of messages caused no retries")
			}
			if faulted.Sim.RetryTime <= 0 {
				t.Fatal("retries charged no time")
			}
			if faulted.Overhead() <= clean.Overhead() {
				t.Fatalf("lossy To %v not above clean To %v", faulted.Overhead(), clean.Overhead())
			}
			deg := faulted.Sim.Metrics.Degradation
			if deg == nil || deg.RetryComm != faulted.Sim.RetryTime || deg.Retries != faulted.Sim.Retries {
				t.Fatalf("degradation retry accounting mismatch: %+v vs %d/%v", deg, faulted.Sim.Retries, faulted.Sim.RetryTime)
			}
			again, err := c.alg(ncube2WithMetrics(p, lossy), a, b)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(faultMetricsBytes(t, faulted), faultMetricsBytes(t, again)) {
				t.Fatal("two lossy runs produced different metrics bytes")
			}
		})
	}
}

// Link perturbation composes with the algorithms: jittered links leave
// the product exact and slow the run.
func TestFormulationsUnderLinkJitter(t *testing.T) {
	const n, p = 16, 16
	a := matrix.RandomInts(n, n, 11)
	b := matrix.RandomInts(n, n, 12)
	want := matrix.Mul(a, b)
	f := &faults.Config{Seed: 9, Jitter: 0.5, LatencyFactor: 1.5}

	clean, err := Cannon(ncube2WithMetrics(p, nil), a, b)
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := Cannon(ncube2WithMetrics(p, f), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(faulted.C, want); d != 0 {
		t.Fatalf("jittered product differs by %v", d)
	}
	if faulted.Sim.Tp <= clean.Sim.Tp {
		t.Fatalf("jittered Tp %v not above clean %v", faulted.Sim.Tp, clean.Sim.Tp)
	}
}
