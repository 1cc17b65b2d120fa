package des_test

import (
	"reflect"
	"testing"

	"matscale/internal/faults"
	"matscale/internal/machine"
	"matscale/internal/simulator"
)

// randomProgram builds a deterministic, deadlock-free message-passing
// program from a seed: rounds of permutation routes (send to
// rank+stride, receive from rank−stride) with seed-derived compute and
// message sizes — the same generator shape the simulator's own fuzz
// suite uses, reproduced here to drive both backends.
func randomProgram(seed uint64, p, rounds int) func(*simulator.Proc) {
	return func(pr *simulator.Proc) {
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
		g, gerr := simulator.Run(onEngine(mk(), machine.BackendGoroutines), randomProgram(seed, p, rounds))
		e, eerr := simulator.Run(onEngine(mk(), machine.BackendEvents), randomProgram(seed, p, rounds))
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
