package simulator

import (
	"testing"

	"matscale/internal/machine"
)

// The tests in this file pin the buffer ownership contract of the
// messaging hot path: default sends copy, *Owned sends transfer the
// backing buffer without copying, Recycle feeds the buffer pool, and
// the steady-state message cycle allocates nothing. They are the
// host-side counterpart of the virtual-time tests in simulator_test.go,
// which must be unaffected by any of this.

// TestOwnedAndCopySendSemantics observes the zero-copy path directly:
// a self-send with Send delivers a different backing array, a self-send
// with SendOwned delivers the very same one.
func TestOwnedAndCopySendSemantics(t *testing.T) {
	_, err := Run(twoProc(0, 0), func(p *Proc) {
		if p.Rank() != 0 {
			return
		}
		orig := []float64{1, 2, 3}
		p.Send(0, 1, orig)
		got := p.Recv(0, 1)
		if &got[0] == &orig[0] {
			t.Error("Send delivered the caller's buffer; want a copy")
		}
		p.SendOwned(0, 2, orig)
		got = p.Recv(0, 2)
		if &got[0] != &orig[0] {
			t.Error("SendOwned copied the payload; want ownership transfer")
		}
		if got[0] != 1 || got[2] != 3 {
			t.Errorf("SendOwned delivered %v", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecycledBufferIsReused checks that a buffer handed to Recycle
// backs the next same-size delivery instead of a fresh allocation.
func TestRecycledBufferIsReused(t *testing.T) {
	_, err := Run(twoProc(0, 0), func(p *Proc) {
		if p.Rank() != 0 {
			return
		}
		p.Send(0, 1, []float64{1, 2, 3})
		x := p.Recv(0, 1)
		p.Recycle(x)
		p.Send(0, 2, []float64{4, 5, 6})
		y := p.Recv(0, 2)
		if &y[0] != &x[0] {
			t.Error("recycled buffer was not reused by the next delivery")
		}
		if y[0] != 4 || y[2] != 6 {
			t.Errorf("reused delivery holds %v, want [4 5 6]", y)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecvBufferCapIsClipped guards against append-aliasing into pooled
// memory: growing a received buffer must reallocate, never write into
// spare capacity a later delivery could reuse.
func TestRecvBufferCapIsClipped(t *testing.T) {
	_, err := Run(twoProc(0, 0), func(p *Proc) {
		if p.Rank() != 0 {
			return
		}
		p.Send(0, 1, []float64{1, 2})
		got := p.Recv(0, 1)
		if cap(got) != len(got) {
			t.Errorf("Recv buffer cap %d > len %d", cap(got), len(got))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// ringShiftBody builds a p-rank ring-shift program; owned selects the
// ownership-transfer send path. Both variants move identical data and
// must produce identical virtual-time results.
func ringShiftBody(t *testing.T, p, steps, words int, owned bool) func(*Proc) {
	return func(pr *Proc) {
		buf := make([]float64, words)
		for i := range buf {
			buf[i] = float64(pr.Rank()*1000 + i)
		}
		next := (pr.Rank() + 1) % p
		prev := (pr.Rank() + p - 1) % p
		for s := 0; s < steps; s++ {
			if owned {
				pr.SendNeighborOwned(next, s, buf)
			} else {
				pr.SendNeighbor(next, s, buf)
			}
			buf = pr.Recv(prev, s)
		}
		wantFrom := ((pr.Rank()-steps)%p + p) % p
		if buf[0] != float64(wantFrom*1000) || buf[words-1] != float64(wantFrom*1000+words-1) {
			t.Errorf("rank %d after %d shifts holds data from %v, want rank %d", pr.Rank(), steps, buf[0], wantFrom)
		}
	}
}

// TestOwnedSendsVirtualTimeIdentical runs the same ring-shift program
// on the copying and the ownership-transfer path and requires every
// virtual-time quantity to match exactly: ownership affects host
// allocation only.
func TestOwnedSendsVirtualTimeIdentical(t *testing.T) {
	const p, steps, words = 8, 5, 64
	m := machine.Hypercube(p, 17, 3)
	base, err := Run(m, ringShiftBody(t, p, steps, words, false))
	if err != nil {
		t.Fatal(err)
	}
	owned, err := Run(m, ringShiftBody(t, p, steps, words, true))
	if err != nil {
		t.Fatal(err)
	}
	if base.Tp != owned.Tp {
		t.Errorf("Tp differs: copy %v, owned %v", base.Tp, owned.Tp)
	}
	if base.TotalComm != owned.TotalComm || base.TotalCompute != owned.TotalCompute {
		t.Errorf("busy-time breakdown differs: copy (%v, %v), owned (%v, %v)",
			base.TotalCompute, base.TotalComm, owned.TotalCompute, owned.TotalComm)
	}
	if base.Messages != owned.Messages || base.Words != owned.Words {
		t.Errorf("traffic differs: copy (%d msgs, %d words), owned (%d msgs, %d words)",
			base.Messages, base.Words, owned.Messages, owned.Words)
	}
	for i := range base.ProcClocks {
		if base.ProcClocks[i] != owned.ProcClocks[i] {
			t.Errorf("rank %d clock differs: copy %v, owned %v", i, base.ProcClocks[i], owned.ProcClocks[i])
		}
	}
}

// TestExchangeOwnedMatchesExchange checks an exchange through SendOwned
// delivers the partner's data with the exact virtual time of one
// through the copying Send.
func TestExchangeOwnedMatchesExchange(t *testing.T) {
	m := twoProc(10, 2)
	run := func(owned bool) *Result {
		res, err := Run(m, func(p *Proc) {
			data := []float64{float64(p.Rank()), 7}
			var got []float64
			if owned {
				p.SendOwned(1-p.Rank(), 3, data)
			} else {
				p.Send(1-p.Rank(), 3, data)
			}
			got = p.Recv(1-p.Rank(), 3)
			if got[0] != float64(1-p.Rank()) || got[1] != 7 {
				t.Errorf("rank %d received %v", p.Rank(), got)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base, owned := run(false), run(true)
	if base.Tp != owned.Tp || base.TotalComm != owned.TotalComm {
		t.Errorf("Send/SendOwned exchange timing differs: (%v, %v) vs (%v, %v)",
			base.Tp, base.TotalComm, owned.Tp, owned.TotalComm)
	}
}

// pingPongAllocs measures the average host allocations of a run on
// engine b whose two ranks ping-pong msgs messages of 256 words with
// recycling.
func pingPongAllocs(t testing.TB, b machine.Backend, msgs int) float64 {
	t.Helper()
	m := onEngine(twoProc(0, 0), b)
	return testing.AllocsPerRun(5, func() {
		_, err := Run(m, func(p *Proc) {
			buf := make([]float64, 256)
			if p.Rank() == 0 {
				for i := 0; i < msgs; i++ {
					p.Send(1, 0, buf)
					p.Recycle(p.Recv(1, 1))
				}
			} else {
				for i := 0; i < msgs; i++ {
					p.Recycle(p.Recv(0, 0))
					p.Send(0, 1, buf)
				}
			}
		})
		if err != nil {
			t.Error(err)
		}
	})
}

// TestSteadyStateMessagingAllocationFree asserts the pooled message
// path allocates nothing per message once warm, on either engine: the
// allocation count of a run is independent of how many messages it
// moves. Fixed per-run overhead (goroutines or fibers, mailboxes,
// first-delivery pool fills) cancels in the difference.
func TestSteadyStateMessagingAllocationFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow under -short")
	}
	for _, b := range engines {
		small := pingPongAllocs(t, b, 16)
		large := pingPongAllocs(t, b, 1040)
		extra := large - small
		perMsg := extra / float64(2*(1040-16))
		if perMsg > 0.1 {
			t.Errorf("%v: steady-state message path allocates %.3f allocs/message (runs: %v small, %v large); want amortized zero",
				b, perMsg, small, large)
		}
	}
}

// benchDeliver measures the host cost of one message hop (send +
// receive) in a two-rank ping-pong, on the copying or the
// ownership-transfer path, on the goroutine engine (pinned so the gated
// benchmark keeps comparing like with like).
func benchDeliver(b *testing.B, words int, owned bool) {
	m := onEngine(twoProc(0, 0), machine.BackendGoroutines)
	b.SetBytes(int64(words * 8))
	b.ReportAllocs()
	b.ResetTimer()
	_, err := Run(m, func(p *Proc) {
		buf := make([]float64, words)
		if p.Rank() == 0 {
			for i := 0; i < b.N; i++ {
				if owned {
					p.SendOwned(1, 0, buf)
					buf = p.Recv(1, 1)
				} else {
					p.Send(1, 0, buf)
					p.Recycle(p.Recv(1, 1))
				}
			}
		} else {
			for i := 0; i < b.N; i++ {
				if owned {
					got := p.Recv(0, 0)
					p.SendOwned(0, 1, got)
				} else {
					p.Recycle(p.Recv(0, 0))
					p.Send(0, 1, buf)
				}
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkDeliverCopy256(b *testing.B)  { benchDeliver(b, 256, false) }
func BenchmarkDeliverOwned256(b *testing.B) { benchDeliver(b, 256, true) }

// BenchmarkDeliverSteadyStateAllocs records the amortised per-message
// allocation count as a custom metric. The per-op allocs of the other
// Deliver benchmarks include one run's fixed setup (goroutines,
// mailboxes, first pool fills), which dominates at CI's small
// -benchtime; the difference of a long and a short run cancels it, so
// allocs/msg reports the steady state regardless of b.N.
func BenchmarkDeliverSteadyStateAllocs(b *testing.B) {
	small := pingPongAllocs(b, machine.BackendGoroutines, 16)
	var large float64
	for i := 0; i < b.N; i++ {
		large = pingPongAllocs(b, machine.BackendGoroutines, 1040)
	}
	b.ReportMetric((large-small)/float64(2*(1040-16)), "allocs/msg")
}

// BenchmarkDeliverRing16 stresses the goroutine engine's sharded
// mailboxes: 16 ranks shift a 256-word block around a ring, so
// deliveries hit 16 different mailboxes concurrently instead of one
// global queue.
func BenchmarkDeliverRing16(b *testing.B) {
	const p, words = 16, 256
	m := onEngine(machine.Hypercube(p, 0, 0), machine.BackendGoroutines)
	b.SetBytes(int64(p * words * 8))
	b.ReportAllocs()
	b.ResetTimer()
	_, err := Run(m, func(pr *Proc) {
		buf := make([]float64, words)
		next := (pr.Rank() + 1) % p
		prev := (pr.Rank() + p - 1) % p
		// A single tag suffices: per-(src, tag) FIFO ordering keeps the
		// steps sequenced even when a fast rank runs ahead.
		for i := 0; i < b.N; i++ {
			pr.SendNeighborOwned(next, 0, buf)
			buf = pr.Recv(prev, 0)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
