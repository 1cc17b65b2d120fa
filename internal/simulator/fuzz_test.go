package simulator

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"matscale/internal/faults"
	"matscale/internal/machine"
)

// randomProgram builds a deterministic, deadlock-free message-passing
// program from a seed: R rounds, each a permutation route (send to
// rank+stride, receive from rank−stride) with seed-derived compute and
// message sizes. Every send happens before the matching receive is
// awaited, so the program can never deadlock.
func randomProgram(seed uint64, p, rounds int) func(*Proc) {
	return func(pr *Proc) {
		state := seed ^ uint64(pr.Rank())*0x9e3779b97f4a7c15
		next := func() uint64 {
			state = state*6364136223846793005 + 1442695040888963407
			return state >> 33
		}
		for r := 0; r < rounds; r++ {
			stride := int(seed>>uint(r%8))%(p-1) + 1
			words := int(next() % 64)
			pr.Compute(float64(next() % 1000))
			pr.Send((pr.Rank()+stride)%p, r, make([]float64, words))
			buf := pr.Recv((pr.Rank()+p-stride)%p, r)
			pr.Recycle(buf)
		}
	}
}

// Property: random permutation-routing programs always complete, are
// deterministic in virtual time, and conserve messages.
func TestQuickRandomProgramsComplete(t *testing.T) {
	f := func(seedRaw uint16, pExp uint8) bool {
		seed := uint64(seedRaw) + 1
		p := 1 << (2 + pExp%4) // 4..32 processors
		const rounds = 6
		m := machine.Hypercube(p, 7, 2)
		first, err := Run(m, randomProgram(seed, p, rounds))
		if err != nil {
			t.Logf("seed %d p %d: %v", seed, p, err)
			return false
		}
		if first.Messages != p*rounds {
			t.Logf("seed %d p %d: %d messages, want %d", seed, p, first.Messages, p*rounds)
			return false
		}
		again, err := Run(m, randomProgram(seed, p, rounds))
		if err != nil || again.Tp != first.Tp || again.Words != first.Words {
			t.Logf("seed %d p %d: nondeterministic (%v vs %v)", seed, p, again.Tp, first.Tp)
			return false
		}
		// Tp can never be below any processor's own busy time.
		for i := range first.ProcClocks {
			if first.ProcClocks[i] > first.Tp {
				return false
			}
			if first.ProcCompute[i]+first.ProcComm[i] > first.ProcClocks[i]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: inserting zero-cost barriers anywhere in a program never
// changes the data outcome and never *reduces* the measured Tp.
func TestQuickBarriersOnlySlowDown(t *testing.T) {
	f := func(seedRaw uint16) bool {
		seed := uint64(seedRaw) + 1
		const p, rounds = 8, 4
		m := machine.Hypercube(p, 5, 1)
		plain, err := Run(m, randomProgram(seed, p, rounds))
		if err != nil {
			return false
		}
		group := make([]int, p)
		for i := range group {
			group[i] = i
		}
		barriered, err := Run(m, func(pr *Proc) {
			state := seed ^ uint64(pr.Rank())*0x9e3779b97f4a7c15
			next := func() uint64 {
				state = state*6364136223846793005 + 1442695040888963407
				return state >> 33
			}
			for r := 0; r < rounds; r++ {
				stride := int(seed>>uint(r%8))%(p-1) + 1
				words := int(next() % 64)
				pr.Compute(float64(next() % 1000))
				pr.Send((pr.Rank()+stride)%p, r, make([]float64, words))
				pr.Recv((pr.Rank()+p-stride)%p, r)
				// Zero-cost barrier after each round.
				if pr.Rank() == 0 {
					for i := 1; i < p; i++ {
						pr.Recv(i, 1000+r)
					}
					for i := 1; i < p; i++ {
						pr.SendFree(i, 2000+r, nil)
					}
				} else {
					pr.SendFree(0, 1000+r, nil)
					pr.Recv(0, 2000+r)
				}
			}
		})
		if err != nil {
			return false
		}
		return barriered.Tp >= plain.Tp-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// FuzzRandomPrograms drives the simulator with seed-derived
// permutation-routing programs: every run must complete, conserve
// messages, and reproduce its own virtual times exactly.
func FuzzRandomPrograms(f *testing.F) {
	f.Add(uint16(1), uint8(0))
	f.Add(uint16(999), uint8(2))
	f.Add(uint16(31337), uint8(3))
	f.Fuzz(func(t *testing.T, seedRaw uint16, pExp uint8) {
		seed := uint64(seedRaw) + 1
		p := 1 << (2 + pExp%4) // 4..32 processors
		const rounds = 4
		m := machine.Hypercube(p, 7, 2)
		first, err := Run(m, randomProgram(seed, p, rounds))
		if err != nil {
			t.Fatalf("seed %d p %d: %v", seed, p, err)
		}
		if first.Messages != p*rounds {
			t.Fatalf("seed %d p %d: %d messages, want %d", seed, p, first.Messages, p*rounds)
		}
		again, err := Run(m, randomProgram(seed, p, rounds))
		if err != nil || again.Tp != first.Tp || again.Words != first.Words {
			t.Fatalf("seed %d p %d: nondeterministic (%v vs %v, err %v)", seed, p, again.Tp, first.Tp, err)
		}
	})
}

// FuzzFaultedPrograms drives the simulator under fuzzed fault
// configurations: whatever the perturbation, a completed run must keep
// the per-rank accounting identity compute + send + idle == Tp, never
// lose or duplicate data, and serialize to byte-identical metrics when
// repeated. Runs that exhaust the retry budget must fail cleanly.
func FuzzFaultedPrograms(f *testing.F) {
	f.Add(uint16(1), uint64(42), uint8(20), uint8(1), uint8(50))
	f.Add(uint16(7), uint64(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint16(50), uint64(9), uint8(90), uint8(4), uint8(200))
	f.Fuzz(func(t *testing.T, seedRaw uint16, fseed uint64, lossPct, stragglerRank, stragglerTenths uint8) {
		seed := uint64(seedRaw) + 1
		const p, rounds = 8, 4
		fc := &faults.Config{
			Seed:       fseed,
			Loss:       float64(lossPct%95) / 100,
			Stragglers: map[int]float64{int(stragglerRank) % p: 1 + float64(stragglerTenths)/10},
			Jitter:     float64(fseed % 5 * 10 / 100),
		}
		if err := fc.Validate(); err != nil {
			t.Skip()
		}
		m := machine.Hypercube(p, 7, 2)
		m.CollectMetrics = true
		m.Faults = fc
		first, err := Run(m, randomProgram(seed, p, rounds))
		if err != nil {
			return // retry-budget exhaustion is a legitimate, clean failure
		}
		for _, r := range first.Metrics.Ranks {
			sum := r.Compute + r.Send + r.Idle
			if math.Abs(sum-first.Tp) > 1e-9*math.Max(1, first.Tp) {
				t.Fatalf("rank %d: compute+send+idle = %v, Tp = %v", r.Rank, sum, first.Tp)
			}
		}
		if first.Messages != p*rounds {
			t.Fatalf("%d messages, want %d", first.Messages, p*rounds)
		}
		again, err := Run(m, randomProgram(seed, p, rounds))
		if err != nil {
			t.Fatalf("rerun failed: %v", err)
		}
		var b1, b2 bytes.Buffer
		if err := first.Metrics.WriteRanksCSV(&b1); err != nil {
			t.Fatal(err)
		}
		if err := again.Metrics.WriteRanksCSV(&b2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatal("faulted rerun metrics differ")
		}
	})
}

// FuzzBackendEquivalence drives seed-derived permutation-routing
// programs through both backends — optionally under a fuzzed fault
// configuration — and requires identical results: same error/no-error
// outcome and, on success, a deeply equal Result including metrics.
func FuzzBackendEquivalence(f *testing.F) {
	f.Add(uint16(1), uint8(0), uint64(0), uint8(0))
	f.Add(uint16(999), uint8(2), uint64(42), uint8(10))
	f.Add(uint16(31337), uint8(3), uint64(7), uint8(60))
	f.Fuzz(func(t *testing.T, seedRaw uint16, pExp uint8, fseed uint64, lossPct uint8) {
		seed := uint64(seedRaw) + 1
		p := 1 << (2 + pExp%4) // 4..32 processors
		const rounds = 4
		mk := func() *machine.Machine {
			m := machine.Hypercube(p, 7, 2)
			m.CollectMetrics = true
			if lossPct > 0 {
				m.Faults = &faults.Config{
					Seed:       fseed,
					Loss:       float64(lossPct%95) / 100,
					Stragglers: map[int]float64{int(fseed % uint64(p)): 1.5},
				}
			}
			return m
		}
		g, gerr := Run(onEngine(mk(), machine.BackendGoroutines), randomProgram(seed, p, rounds))
		e, eerr := Run(onEngine(mk(), machine.BackendEvents), randomProgram(seed, p, rounds))
		if (gerr == nil) != (eerr == nil) {
			t.Fatalf("backends disagree on outcome: goroutines err=%v, events err=%v", gerr, eerr)
		}
		if gerr != nil {
			return // both failed (e.g. retry budget exhausted) — equivalent
		}
		if !reflect.DeepEqual(g, e) {
			t.Fatalf("results differ: goroutines Tp=%v words=%d, events Tp=%v words=%d", g.Tp, g.Words, e.Tp, e.Words)
		}
	})
}
