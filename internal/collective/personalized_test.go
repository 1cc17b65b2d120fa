package collective

import (
	"strings"
	"testing"
	"testing/quick"

	"matscale/internal/machine"
	"matscale/internal/simulator"
)

func TestAllToAllExchanges(t *testing.T) {
	m := machine.Hypercube(8, 7, 2)
	group := seq(8)
	res, err := simulator.Run(m, func(pr *simulator.Proc) {
		// Message from i to j is [100i + j].
		data := make([]float64, 8)
		for j := range data {
			data[j] = float64(100*pr.Rank() + j)
		}
		got := AllToAll(pr, group, 10, data)
		for src := 0; src < 8; src++ {
			if got[src] != float64(100*src+pr.Rank()) {
				t.Errorf("rank %d: from %d got %v", pr.Rank(), src, got[src])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := AllToAllTime(7, 2, 1, 8); res.Tp != want {
		t.Fatalf("Tp = %v, want %v", res.Tp, want)
	}
}

func TestAllToAllWiderMessages(t *testing.T) {
	m := machine.Hypercube(4, 3, 1)
	group := seq(4)
	res, err := simulator.Run(m, func(pr *simulator.Proc) {
		data := make([]float64, 4*3)
		for j := 0; j < 4; j++ {
			for w := 0; w < 3; w++ {
				data[j*3+w] = float64(1000*pr.Rank() + 10*j + w)
			}
		}
		got := AllToAll(pr, group, 10, data)
		for src := 0; src < 4; src++ {
			for w := 0; w < 3; w++ {
				want := float64(1000*src + 10*pr.Rank() + w)
				if got[src*3+w] != want {
					t.Errorf("rank %d src %d word %d: got %v want %v", pr.Rank(), src, w, got[src*3+w], want)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// (ts + tw·m·g/2)·log g = (3 + 1·3·2)·2 = 18.
	if want := AllToAllTime(3, 1, 3, 4); res.Tp != want || want != 18 {
		t.Fatalf("Tp = %v, want %v (=18)", res.Tp, want)
	}
}

func TestAllToAllSingleton(t *testing.T) {
	m := machine.Hypercube(2, 1, 1)
	_, err := simulator.Run(m, func(pr *simulator.Proc) {
		got := AllToAll(pr, []int{pr.Rank()}, 0, []float64{42})
		if len(got) != 1 || got[0] != 42 {
			t.Errorf("singleton AllToAll = %v", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllToAllIndivisiblePanics(t *testing.T) {
	m := machine.Hypercube(4, 0, 0)
	_, err := simulator.Run(m, func(pr *simulator.Proc) {
		AllToAll(pr, seq(4), 0, vec(6, 0))
	})
	if err == nil || !strings.Contains(err.Error(), "not divisible") {
		t.Fatalf("err = %v", err)
	}
}

func TestAllReduceSumsEverywhere(t *testing.T) {
	m := machine.Hypercube(8, 4, 2)
	group := seq(8)
	res, err := simulator.Run(m, func(pr *simulator.Proc) {
		data := make([]float64, 16)
		for i := range data {
			data[i] = float64(pr.Rank())
		}
		got := AllReduce(pr, group, 30, data)
		for i, v := range got {
			if v != 28 { // 0+1+...+7
				t.Errorf("rank %d element %d = %v, want 28", pr.Rank(), i, v)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := AllReduceTime(4, 2, 16, 8); res.Tp != want {
		t.Fatalf("Tp = %v, want %v", res.Tp, want)
	}
}

func TestAllReduceSingleton(t *testing.T) {
	m := machine.Hypercube(2, 1, 1)
	_, err := simulator.Run(m, func(pr *simulator.Proc) {
		got := AllReduce(pr, []int{pr.Rank()}, 0, []float64{3, 4})
		if got[0] != 3 || got[1] != 4 {
			t.Errorf("singleton AllReduce = %v", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceTimeFormula(t *testing.T) {
	// reduce-scatter: 3·ts + tw·16·(7/8) = 12 + 28; all-gather of m/g=2:
	// 3·ts + tw·2·7 = 12 + 28. Total 80.
	if got := AllReduceTime(4, 2, 16, 8); got != 80 {
		t.Fatalf("AllReduceTime = %v, want 80", got)
	}
	if AllReduceTime(4, 2, 16, 1) != 0 {
		t.Fatal("singleton AllReduceTime should be 0")
	}
}

// Property: AllToAll is an involution when everyone sends symmetric
// data — applying it twice returns each member's original vector
// permuted twice, i.e. the identity on (src, dst) swaps.
func TestQuickAllToAllTwiceIsIdentity(t *testing.T) {
	m := machine.Hypercube(8, 0, 0)
	group := seq(8)
	f := func(seed uint8) bool {
		ok := true
		_, err := simulator.Run(m, func(pr *simulator.Proc) {
			data := make([]float64, 8)
			for j := range data {
				data[j] = float64(int(seed)*1000 + pr.Rank()*8 + j)
			}
			once := AllToAll(pr, group, 100, data)
			twice := AllToAll(pr, group, 300, once)
			for j := range data {
				if twice[j] != data[j] {
					ok = false
					return
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastPipelinedChainContentAndTime(t *testing.T) {
	m := machine.Hypercube(8, 5, 2)
	chain := seq(8)
	for _, packets := range []int{1, 2, 4, 8} {
		res, err := simulator.Run(m, func(pr *simulator.Proc) {
			var data []float64
			if pr.Rank() == 0 {
				data = vec(16, 100)
			}
			got := BroadcastPipelinedChain(pr, chain, 10, data, packets)
			if len(got) != 16 || got[0] != 100 || got[15] != 115 {
				t.Errorf("packets=%d rank %d got %v", packets, pr.Rank(), got)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		want := PipelinedChainTime(5, 2, 16, 8, packets)
		if res.Tp != want {
			t.Fatalf("packets=%d: Tp = %v, want %v", packets, res.Tp, want)
		}
	}
}

func TestPipelinedBeatsSingleShotForLongChains(t *testing.T) {
	// The whole point of pipelining: with the optimal packet count the
	// chain broadcast is far cheaper than sending the full message hop
	// by hop ((q−1)·(ts+tw·m)).
	ts, tw, m, q := 5.0, 2.0, 1024, 16
	k := OptimalPackets(ts, tw, m, q)
	pipe := PipelinedChainTime(ts, tw, m, q, k)
	oneShot := float64(q-1) * (ts + tw*float64(m))
	if pipe >= oneShot/3 {
		t.Fatalf("pipelined %v not much below one-shot %v (k=%d)", pipe, oneShot, k)
	}
}

func TestOptimalPacketsProperties(t *testing.T) {
	if OptimalPackets(5, 2, 1, 8) != 1 {
		t.Fatal("single word should use one packet")
	}
	if OptimalPackets(5, 2, 100, 2) != 1 {
		t.Fatal("one-hop chain should use one packet")
	}
	if k := OptimalPackets(0, 2, 100, 8); k != 100 {
		t.Fatalf("free startups should packetize per word, got %d", k)
	}
	// The optimum really is a local minimum of the time function.
	ts, tw, m, q := 7.0, 3.0, 4096, 32
	k := OptimalPackets(ts, tw, m, q)
	best := PipelinedChainTime(ts, tw, m, q, k)
	for _, alt := range []int{k / 2, k * 2} {
		if alt >= 1 && alt <= m {
			if PipelinedChainTime(ts, tw, m, q, alt) < best*(1-1e-9) {
				t.Fatalf("k=%d is not near-optimal (alt %d better)", k, alt)
			}
		}
	}
}

func TestBroadcastPipelinedChainSingletonAndPanic(t *testing.T) {
	m := machine.Hypercube(2, 1, 1)
	_, err := simulator.Run(m, func(pr *simulator.Proc) {
		got := BroadcastPipelinedChain(pr, []int{pr.Rank()}, 0, []float64{5}, 3)
		if got[0] != 5 {
			t.Errorf("singleton chain lost data")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = simulator.Run(m, func(pr *simulator.Proc) {
		BroadcastPipelinedChain(pr, seq(2), 0, nil, 0)
	})
	if err == nil || !strings.Contains(err.Error(), "at least one packet") {
		t.Fatalf("err = %v", err)
	}
}

func TestBroadcastPipelinedChainUnevenPackets(t *testing.T) {
	// 10 words in 4 packets of ⌈10/4⌉=3,3,3,1: content must survive.
	m := machine.Hypercube(4, 1, 1)
	chain := seq(4)
	_, err := simulator.Run(m, func(pr *simulator.Proc) {
		var data []float64
		if pr.Rank() == 0 {
			data = vec(10, 0)
		}
		got := BroadcastPipelinedChain(pr, chain, 7, data, 4)
		if len(got) != 10 {
			t.Errorf("rank %d got %d words", pr.Rank(), len(got))
			return
		}
		for i, v := range got {
			if v != float64(i) {
				t.Errorf("rank %d word %d = %v", pr.Rank(), i, v)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
