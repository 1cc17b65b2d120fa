package simulator

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"matscale/internal/faults"
	"matscale/internal/machine"
)

// faultedMachine returns a hypercube with metrics collection and the
// given fault scenario.
func faultedMachine(p int, f *faults.Config) *machine.Machine {
	m := machine.Hypercube(p, 17, 3)
	m.CollectMetrics = true
	m.Faults = f
	return m
}

// ringProgram is a deadlock-free benchmark body: rounds of compute
// followed by a ring shift.
func ringProgram(rounds, words int) func(*Proc) {
	return func(pr *Proc) {
		p := pr.P()
		for r := 0; r < rounds; r++ {
			pr.Compute(100)
			pr.Send((pr.Rank()+1)%p, r, make([]float64, words))
			pr.Recv((pr.Rank()+p-1)%p, r)
		}
	}
}

// metricsBytes serializes the full per-rank and per-link tables.
func metricsBytes(t *testing.T, m *Metrics) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteRanksCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteLinksCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Same seed ⇒ byte-identical metrics under stragglers, jitter and loss.
func TestFaultsDeterministicMetrics(t *testing.T) {
	f := &faults.Config{
		Seed:       42,
		Stragglers: map[int]float64{0: 2},
		Jitter:     0.3,
		Loss:       0.05,
	}
	run := func() []byte {
		res, err := Run(faultedMachine(8, f), ringProgram(6, 32))
		if err != nil {
			t.Fatal(err)
		}
		return metricsBytes(t, res.Metrics)
	}
	first := run()
	for i := 0; i < 3; i++ {
		if !bytes.Equal(first, run()) {
			t.Fatalf("run %d produced different metrics bytes", i)
		}
	}
	// A different seed must perturb differently (jitter and loss draws
	// change; the explicit straggler stays).
	g := f.Clone()
	g.Seed = 43
	res, err := Run(faultedMachine(8, g), ringProgram(6, 32))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(first, metricsBytes(t, res.Metrics)) {
		t.Fatal("seed 42 and 43 produced identical metrics")
	}
}

// The per-rank accounting identity Compute + Send + Idle == Tp survives
// stragglers, link perturbation and retries.
func TestFaultsAccountingIdentity(t *testing.T) {
	f := &faults.Config{
		Seed:          7,
		Stragglers:    map[int]float64{1: 3},
		StragglerProb: 0.25, StragglerMax: 2,
		LatencyFactor: 1.5, Jitter: 0.2,
		Loss: 0.1,
	}
	res, err := Run(faultedMachine(16, f), ringProgram(5, 16))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Metrics.Ranks {
		sum := r.Compute + r.Send + r.Idle
		if math.Abs(sum-res.Tp) > 1e-9*math.Max(1, res.Tp) {
			t.Errorf("rank %d: compute+send+idle = %v, Tp = %v", r.Rank, sum, res.Tp)
		}
	}
	// And the aggregate decomposition p·Tp = ΣCompute + ΣSend + ΣIdle.
	total := res.Metrics.TotalCompute() + res.Metrics.TotalComm() + res.Metrics.TotalIdle()
	if math.Abs(total-float64(res.P)*res.Tp) > 1e-9*float64(res.P)*res.Tp {
		t.Fatalf("aggregate %v ≠ p·Tp %v", total, float64(res.P)*res.Tp)
	}
}

// A straggler slows exactly its own compute and nothing else's; the
// run's Tp strictly exceeds the clean run's.
func TestStragglerChargesOnlyItsRank(t *testing.T) {
	clean, err := Run(faultedMachine(8, nil), ringProgram(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	f := &faults.Config{Stragglers: map[int]float64{3: 2}}
	faulted, err := Run(faultedMachine(8, f), ringProgram(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	if faulted.Tp <= clean.Tp {
		t.Fatalf("straggler Tp %v not above clean %v", faulted.Tp, clean.Tp)
	}
	for i, r := range faulted.Metrics.Ranks {
		want := clean.Metrics.Ranks[i].Compute
		if i == 3 {
			want *= 2
		}
		if r.Compute != want {
			t.Errorf("rank %d compute %v, want %v", i, r.Compute, want)
		}
	}
	d := faulted.Metrics.Degradation
	if d == nil {
		t.Fatal("no degradation block on faulted run")
	}
	if len(d.StraggledRanks) != 1 || d.StraggledRanks[0] != 3 {
		t.Fatalf("straggled ranks %v, want [3]", d.StraggledRanks)
	}
	if want := clean.Metrics.Ranks[3].Compute; d.StragglerExtraCompute != want {
		t.Fatalf("straggler extra %v, want %v", d.StragglerExtraCompute, want)
	}
	if clean.Metrics.Degradation != nil {
		t.Fatal("clean run has a degradation block")
	}
	if res := faulted; res.StragglerExtra != d.StragglerExtraCompute {
		t.Fatalf("Result.StragglerExtra %v ≠ degradation %v", res.StragglerExtra, d.StragglerExtraCompute)
	}
}

// Retries charge the sender and appear in Degradation and the trace,
// and the retry charge follows the timeout + backoff schedule exactly.
func TestRetryChargingExact(t *testing.T) {
	// Loss 0.5 on a 2-rank machine, tiny program: find a seed whose
	// first transmission retries at least once so the assertion bites.
	f := &faults.Config{Seed: 3, Loss: 0.5, Timeout: 11, Backoff: 3, MaxRetries: 20}
	m := machine.Hypercube(2, 10, 1)
	m.CollectMetrics = true
	m.CollectTrace = true
	m.Faults = f

	res, err := Run(m, func(pr *Proc) {
		if pr.Rank() == 0 {
			pr.Send(1, 0, make([]float64, 5)) // base cost 10 + 1·5 = 15
		} else {
			pr.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	tries, ok := f.Transmissions(0, 0)
	if !ok {
		t.Fatal("seed 3 exhausts the retry budget; pick another seed")
	}
	base := 15.0
	wantCharge := f.RetryCharge(base, tries)
	r0 := res.Metrics.Ranks[0]
	if r0.Send != wantCharge {
		t.Fatalf("sender charged %v, want %v (%d transmissions)", r0.Send, wantCharge, tries)
	}
	if r0.Retries != tries-1 {
		t.Fatalf("retries %d, want %d", r0.Retries, tries-1)
	}
	if r0.RetryTime != wantCharge-base {
		t.Fatalf("retry time %v, want %v", r0.RetryTime, wantCharge-base)
	}
	if tries > 1 {
		var seen bool
		for _, e := range res.Trace.Events {
			if e.Kind == EventRetry && e.Rank == 0 && e.Peer == 1 {
				seen = true
				if got := e.End - e.Start; got != wantCharge-base {
					t.Fatalf("retry event duration %v, want %v", got, wantCharge-base)
				}
			}
		}
		if !seen {
			t.Fatal("no EventRetry in trace")
		}
	}
	if res.Retries != tries-1 || res.RetryTime != wantCharge-base {
		t.Fatalf("Result retry totals %d/%v, want %d/%v", res.Retries, res.RetryTime, tries-1, wantCharge-base)
	}
}

// Exhausting the retry budget aborts the run with an error instead of
// silently losing data.
func TestRetryBudgetExhaustionFailsRun(t *testing.T) {
	// MaxRetries 1 and loss 0.99: some early send almost surely fails
	// both transmissions.
	f := &faults.Config{Seed: 1, Loss: 0.99, MaxRetries: 1}
	_, err := Run(faultedMachine(4, f), ringProgram(8, 4))
	if err == nil {
		t.Fatal("run with undeliverable messages succeeded")
	}
	if !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// Zero-cost transfers bypass the loss layer: a program made only of
// SendFree never retries regardless of the loss rate.
func TestZeroCostSendsExemptFromLoss(t *testing.T) {
	f := &faults.Config{Seed: 2, Loss: 0.9, MaxRetries: 0}
	res, err := Run(faultedMachine(4, f), func(pr *Proc) {
		for r := 0; r < 20; r++ {
			pr.SendFree((pr.Rank()+1)%4, r, []float64{1})
			pr.Recv((pr.Rank()+3)%4, r)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries != 0 || res.RetryTime != 0 {
		t.Fatalf("zero-cost sends retried: %d/%v", res.Retries, res.RetryTime)
	}
}

// Link perturbation scales transfer charges: latency factor 2 doubles
// the ts component of every message.
func TestLinkLatencyFactorScalesTs(t *testing.T) {
	prog := func(pr *Proc) {
		if pr.Rank() == 0 {
			pr.Send(1, 0, make([]float64, 10))
		} else {
			pr.Recv(0, 0)
		}
	}
	m := machine.Hypercube(2, 100, 1)
	clean, err := Run(m, prog)
	if err != nil {
		t.Fatal(err)
	}
	mf := m.WithFaults(&faults.Config{LatencyFactor: 2})
	faulted, err := Run(mf, prog)
	if err != nil {
		t.Fatal(err)
	}
	// Clean: 100 + 10 = 110. Faulted: 200 + 10 = 210.
	if clean.Tp != 110 || faulted.Tp != 210 {
		t.Fatalf("Tp clean %v faulted %v, want 110 and 210", clean.Tp, faulted.Tp)
	}

	mb := m.WithFaults(&faults.Config{BandwidthFactor: 3})
	fb, err := Run(mb, prog)
	if err != nil {
		t.Fatal(err)
	}
	// 100 + 3·10 = 130.
	if fb.Tp != 130 {
		t.Fatalf("bandwidth-faulted Tp %v, want 130", fb.Tp)
	}
}

// The critical-rank shift helper: a straggler at a non-critical rank
// moves the critical path onto it.
func TestCriticalRankShift(t *testing.T) {
	// Unbalanced program: rank p-1 computes most, so it is critical.
	prog := func(pr *Proc) {
		pr.Compute(float64(100 * (pr.Rank() + 1)))
	}
	clean, err := Run(faultedMachine(4, nil), prog)
	if err != nil {
		t.Fatal(err)
	}
	f := &faults.Config{Stragglers: map[int]float64{0: 10}}
	faulted, err := Run(faultedMachine(4, f), prog)
	if err != nil {
		t.Fatal(err)
	}
	from, to, shifted := faulted.Metrics.CriticalRankShift(clean.Metrics)
	if !shifted || from != 3 || to != 0 {
		t.Fatalf("critical rank shift %d→%d (shifted=%v), want 3→0", from, to, shifted)
	}
}

// A faulted machine behind the same topology still deadlock-detects.
func TestFaultsPreserveDeadlockDetection(t *testing.T) {
	f := &faults.Config{Seed: 1, Loss: 0.01}
	_, err := Run(goroutines(faultedMachine(2, f)), func(pr *Proc) {
		pr.Recv((pr.Rank()+1)%2, 0) // everyone receives, nobody sends
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
}
