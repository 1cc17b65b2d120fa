package collective

import (
	"math"
	"strings"
	"testing"

	"matscale/internal/machine"
	"matscale/internal/simulator"
	"matscale/internal/topology"
)

// seq returns [0, 1, ..., n).
func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func vec(n int, base float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = base + float64(i)
	}
	return out
}

func TestBroadcastDeliversToAll(t *testing.T) {
	m := machine.Hypercube(8, 7, 2)
	group := seq(8)
	for root := 0; root < 8; root++ {
		res, err := simulator.Run(m, func(pr *simulator.Proc) {
			var data []float64
			if pr.Rank() == root {
				data = vec(5, 100)
			}
			got := Broadcast(pr, group, root, 1, data)
			if len(got) != 5 || got[4] != 104 {
				t.Errorf("root %d rank %d got %v", root, pr.Rank(), got)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		want := BroadcastTime(7, 2, 5, 8)
		if res.Tp != want {
			t.Fatalf("root %d: Tp = %v, want %v", root, res.Tp, want)
		}
	}
}

func TestBroadcastTimeFormula(t *testing.T) {
	// log2(8)·(ts + tw·m) = 3·(7+2·5) = 51.
	if got := BroadcastTime(7, 2, 5, 8); got != 51 {
		t.Fatalf("BroadcastTime = %v, want 51", got)
	}
}

func TestBroadcastSubgroupOnlyTouchesMembers(t *testing.T) {
	m := machine.Hypercube(8, 1, 1)
	group := []int{4, 5, 6, 7} // a subcube
	res, err := simulator.Run(m, func(pr *simulator.Proc) {
		if pr.Rank() < 4 {
			return // non-members do nothing
		}
		var data []float64
		if pr.Rank() == 6 {
			data = []float64{42}
		}
		got := Broadcast(pr, group, 2, 9, data)
		if got[0] != 42 {
			t.Errorf("rank %d got %v", pr.Rank(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if res.ProcClocks[r] != 0 {
			t.Fatalf("non-member %d has clock %v", r, res.ProcClocks[r])
		}
	}
}

func TestBroadcastPanicsOnBadGroup(t *testing.T) {
	m := machine.Hypercube(4, 1, 1)
	_, err := simulator.Run(m, func(pr *simulator.Proc) {
		Broadcast(pr, []int{0, 1, 2}, 0, 0, nil)
	})
	if err == nil || !strings.Contains(err.Error(), "power of two") {
		t.Fatalf("err = %v", err)
	}
	_, err = simulator.Run(m, func(pr *simulator.Proc) {
		Broadcast(pr, seq(4), 7, 0, nil)
	})
	if err == nil || !strings.Contains(err.Error(), "root index") {
		t.Fatalf("err = %v", err)
	}
	_, err = simulator.Run(m, func(pr *simulator.Proc) {
		Broadcast(pr, []int{0, 1}, 0, 0, nil) // ranks 2,3 are not members
	})
	if err == nil || !strings.Contains(err.Error(), "not a member") {
		t.Fatalf("err = %v", err)
	}
}

func TestJohnssonHoTimeFormula(t *testing.T) {
	// ts=9, tw=1, m=16, g=8: log=3, packets = ceil(sqrt(9·16/3)) = 7,
	// t = 27 + 16 + 2·3·7 = 85.
	if got := JohnssonHoTime(9, 1, 16, 8); got != 85 {
		t.Fatalf("JohnssonHoTime = %v, want 85", got)
	}
	// Packet clamp: tiny ts still pays one word per packet round.
	want := 0.003*3 + 16 + 2*3*1.0
	if got := JohnssonHoTime(0.003, 1, 16, 8); math.Abs(got-want) > 1e-12 {
		t.Fatalf("JohnssonHoTime clamp = %v, want %v", got, want)
	}
	if got := JohnssonHoTime(9, 1, 16, 1); got != 0 {
		t.Fatalf("singleton group time = %v, want 0", got)
	}
	// Johnsson-Ho beats the binomial tree for large messages.
	if JohnssonHoTime(9, 1, 4096, 64) >= BroadcastTime(9, 1, 4096, 64) {
		t.Fatal("Johnsson-Ho not better than binomial for large message")
	}
}

// The Johnsson–Ho broadcast as GK's improved variant (§5.4.1) issues
// it: BroadcastCharged at the JohnssonHoTime closed form.
func TestBroadcastJohnssonHoDeliversAndCharges(t *testing.T) {
	m := machine.Hypercube(8, 9, 1)
	group := seq(8)
	res, err := simulator.Run(m, func(pr *simulator.Proc) {
		var data []float64
		if pr.Rank() == 3 {
			data = vec(16, 0)
		}
		got := BroadcastCharged(pr, group, 3, 2, data, JohnssonHoTime(9, 1, 16, 8))
		if got[15] != 15 {
			t.Errorf("rank %d got tail %v", pr.Rank(), got[15])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := JohnssonHoTime(9, 1, 16, 8); res.Tp != want {
		t.Fatalf("Tp = %v, want %v", res.Tp, want)
	}
}

func TestBroadcastJohnssonHoSingleton(t *testing.T) {
	m := machine.Hypercube(2, 1, 1)
	_, err := simulator.Run(m, func(pr *simulator.Proc) {
		got := BroadcastCharged(pr, []int{pr.Rank()}, 0, 0, []float64{9}, JohnssonHoTime(1, 1, 1, 1))
		if got[0] != 9 {
			t.Errorf("singleton broadcast lost data")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllGatherContentsAndOrder(t *testing.T) {
	m := machine.Hypercube(8, 3, 2)
	group := seq(8)
	res, err := simulator.Run(m, func(pr *simulator.Proc) {
		mine := []float64{float64(pr.Rank() * 10), float64(pr.Rank()*10 + 1)}
		got := AllGather(pr, group, 10, mine)
		if len(got) != 16 {
			t.Errorf("rank %d: len = %d", pr.Rank(), len(got))
			return
		}
		for i := 0; i < 8; i++ {
			if got[2*i] != float64(i*10) || got[2*i+1] != float64(i*10+1) {
				t.Errorf("rank %d: segment %d = %v", pr.Rank(), i, got[2*i:2*i+2])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := AllGatherTime(3, 2, 2, 8); res.Tp != want {
		t.Fatalf("Tp = %v, want %v", res.Tp, want)
	}
}

func TestAllGatherTimeFormula(t *testing.T) {
	// ts·3 + tw·m·7 = 9 + 2·2·7 = 37.
	if got := AllGatherTime(3, 2, 2, 8); got != 37 {
		t.Fatalf("AllGatherTime = %v, want 37", got)
	}
}

func TestAllGatherSubgroups(t *testing.T) {
	// Rows of a 4x4 mesh all-gather concurrently with distinct tags.
	m := machine.Hypercube(16, 5, 1)
	tor := topology.NewTorus2D(4, 4)
	res, err := simulator.Run(m, func(pr *simulator.Proc) {
		i, j := tor.Coords(pr.Rank())
		row := tor.RowRanks(i)
		got := AllGather(pr, row, 100+i*8, []float64{float64(j)})
		for k := 0; k < 4; k++ {
			if got[k] != float64(k) {
				t.Errorf("rank %d got %v", pr.Rank(), got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := AllGatherTime(5, 1, 1, 4); res.Tp != want {
		t.Fatalf("Tp = %v, want %v", res.Tp, want)
	}
}

func TestAllPortAllGatherTimeFormula(t *testing.T) {
	// ts·log g + tw·m·g/log g = 3·2 + 1·5·4/2 = 16.
	if got := AllPortAllGatherTime(3, 1, 5, 4); got != 16 {
		t.Fatalf("AllPortAllGatherTime = %v, want 16", got)
	}
	if got := AllPortAllGatherTime(3, 1, 5, 1); got != 0 {
		t.Fatalf("singleton = %v, want 0", got)
	}
}

func TestAllGatherAllPort(t *testing.T) {
	m := machine.Hypercube(4, 3, 1)
	m.AllPort = true
	group := seq(4)
	res, err := simulator.Run(m, func(pr *simulator.Proc) {
		got := AllGatherAllPort(pr, group, 0, vec(5, float64(pr.Rank()*100)))
		if got[0] != 0 || got[5] != 100 || got[19] != 304 {
			t.Errorf("rank %d got %v", pr.Rank(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := AllPortAllGatherTime(3, 1, 5, 4); res.Tp != want {
		t.Fatalf("Tp = %v, want %v", res.Tp, want)
	}
}

func TestAllGatherAllPortSingleton(t *testing.T) {
	m := machine.Hypercube(2, 1, 1)
	_, err := simulator.Run(m, func(pr *simulator.Proc) {
		got := AllGatherAllPort(pr, []int{pr.Rank()}, 0, []float64{3})
		if len(got) != 1 || got[0] != 3 {
			t.Errorf("singleton allgather = %v", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceSums(t *testing.T) {
	m := machine.Hypercube(8, 4, 1)
	group := seq(8)
	res, err := simulator.Run(m, func(pr *simulator.Proc) {
		data := []float64{float64(pr.Rank()), 1}
		got := Reduce(pr, group, 5, 20, data)
		if pr.Rank() == 5 {
			if got == nil || got[0] != 28 || got[1] != 8 {
				t.Errorf("root got %v, want [28 8]", got)
			}
		} else if got != nil {
			t.Errorf("non-root %d got non-nil %v", pr.Rank(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := ReduceTime(4, 1, 2, 8); res.Tp != want {
		t.Fatalf("Tp = %v, want %v", res.Tp, want)
	}
}

func TestReduceLengthMismatch(t *testing.T) {
	m := machine.Hypercube(2, 0, 0)
	_, err := simulator.Run(m, func(pr *simulator.Proc) {
		Reduce(pr, seq(2), 0, 0, vec(pr.Rank()+1, 0))
	})
	if err == nil || !strings.Contains(err.Error(), "length mismatch") {
		t.Fatalf("err = %v", err)
	}
}

func TestReduceScatterSumsAndScatters(t *testing.T) {
	m := machine.Hypercube(4, 6, 2)
	group := seq(4)
	res, err := simulator.Run(m, func(pr *simulator.Proc) {
		// Every member contributes [r, r+1, ..., r+7]; the sum is
		// [0+1+2+3 + 4i] at position i = 6 + 4i.
		data := vec(8, float64(pr.Rank()))
		mine, off := ReduceScatter(pr, group, 30, data)
		if len(mine) != 2 {
			t.Errorf("rank %d slice len %d", pr.Rank(), len(mine))
			return
		}
		for i, v := range mine {
			want := 6 + 4*float64(off+i)
			if v != want {
				t.Errorf("rank %d element %d = %v, want %v", pr.Rank(), off+i, v, want)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := ReduceScatterTime(6, 2, 8, 4); res.Tp != want {
		t.Fatalf("Tp = %v, want %v", res.Tp, want)
	}
}

func TestReduceScatterOffsetsDisjoint(t *testing.T) {
	m := machine.Hypercube(8, 0, 0)
	group := seq(8)
	offsets := make([]int, 8)
	_, err := simulator.Run(m, func(pr *simulator.Proc) {
		_, off := ReduceScatter(pr, group, 0, make([]float64, 16))
		offsets[pr.Rank()] = off
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for r, off := range offsets {
		if off%2 != 0 || seen[off] {
			t.Fatalf("rank %d offset %d duplicated or misaligned (%v)", r, off, offsets)
		}
		seen[off] = true
	}
}

func TestReduceScatterTimeFormula(t *testing.T) {
	// ts·2 + tw·m·(1 − 1/4) = 12 + 2·8·0.75 = 24.
	if got := ReduceScatterTime(6, 2, 8, 4); got != 24 {
		t.Fatalf("ReduceScatterTime = %v, want 24", got)
	}
}

func TestReduceScatterIndivisiblePanics(t *testing.T) {
	m := machine.Hypercube(4, 0, 0)
	_, err := simulator.Run(m, func(pr *simulator.Proc) {
		ReduceScatter(pr, seq(4), 0, make([]float64, 6))
	})
	if err == nil || !strings.Contains(err.Error(), "not divisible") {
		t.Fatalf("err = %v", err)
	}
}

// The broadcast/reduce pair: broadcasting then reducing a vector of
// ones over g members yields g at the root — a cheap end-to-end
// consistency check across both tree directions.
func TestBroadcastReduceRoundTrip(t *testing.T) {
	m := machine.Hypercube(16, 2, 1)
	group := seq(16)
	_, err := simulator.Run(m, func(pr *simulator.Proc) {
		var data []float64
		if pr.Rank() == 0 {
			data = []float64{1, 2, 3}
		}
		got := Broadcast(pr, group, 0, 1, data)
		sum := Reduce(pr, group, 0, 2, got)
		if pr.Rank() == 0 {
			if sum[0] != 16 || sum[1] != 32 || sum[2] != 48 {
				t.Errorf("reduce of broadcast = %v", sum)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Verify the measured AllGather time formula across several sizes —
// the collective layer is what makes the algorithm equations testable.
func TestAllGatherTimeAcrossSizes(t *testing.T) {
	for _, g := range []int{2, 4, 8, 16} {
		for _, m := range []int{1, 16, 257} {
			mach := machine.Hypercube(g, 11, 3)
			group := seq(g)
			res, err := simulator.Run(mach, func(pr *simulator.Proc) {
				AllGather(pr, group, 0, make([]float64, m))
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := AllGatherTime(11, 3, m, g); res.Tp != want {
				t.Fatalf("g=%d m=%d: Tp = %v, want %v", g, m, res.Tp, want)
			}
		}
	}
}

func TestBarrierFreeAlignsClocks(t *testing.T) {
	m := machine.Hypercube(8, 3, 1)
	group := seq(8)
	res, err := simulator.Run(m, func(pr *simulator.Proc) {
		pr.Compute(float64(pr.Rank() * 10)) // staggered clocks 0..70
		BarrierFree(pr, group, 5)
		if pr.Clock() != 70 {
			t.Errorf("rank %d clock after barrier = %v, want 70", pr.Rank(), pr.Clock())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tp != 70 {
		t.Fatalf("Tp = %v, want 70 (barrier adds no cost)", res.Tp)
	}
}

func TestBarrierFreeSingleton(t *testing.T) {
	m := machine.Hypercube(2, 1, 1)
	_, err := simulator.Run(m, func(pr *simulator.Proc) {
		BarrierFree(pr, []int{pr.Rank()}, 0) // must not deadlock
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllGatherFreeContentAndZeroCost(t *testing.T) {
	m := machine.Hypercube(4, 100, 100)
	group := seq(4)
	res, err := simulator.Run(m, func(pr *simulator.Proc) {
		got := AllGatherFree(pr, group, 9, []float64{float64(pr.Rank())})
		for i := 0; i < 4; i++ {
			if got[i] != float64(i) {
				t.Errorf("rank %d: got %v", pr.Rank(), got)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tp != 0 {
		t.Fatalf("AllGatherFree charged time: %v", res.Tp)
	}
}

func TestBroadcastChargedSingletonAndErrors(t *testing.T) {
	m := machine.Hypercube(2, 1, 1)
	_, err := simulator.Run(m, func(pr *simulator.Proc) {
		got := BroadcastCharged(pr, []int{pr.Rank()}, 0, 0, []float64{7}, 99)
		if got[0] != 7 {
			t.Errorf("singleton BroadcastCharged lost data")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = simulator.Run(m, func(pr *simulator.Proc) {
		BroadcastCharged(pr, seq(2), 5, 0, nil, 1)
	})
	if err == nil || !strings.Contains(err.Error(), "root index") {
		t.Fatalf("err = %v", err)
	}
}

func TestReduceChargedSumsAndCharges(t *testing.T) {
	m := machine.Hypercube(4, 1, 1)
	group := seq(4)
	res, err := simulator.Run(m, func(pr *simulator.Proc) {
		got := ReduceCharged(pr, group, 1, 7, []float64{1, float64(pr.Rank())}, 50)
		if pr.Rank() == 1 {
			if got[0] != 4 || got[1] != 6 {
				t.Errorf("root sum = %v, want [4 6]", got)
			}
		} else if got != nil {
			t.Errorf("non-root got data")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tp != 50 {
		t.Fatalf("Tp = %v, want the charged 50", res.Tp)
	}
}

func TestReduceChargedSingletonAndMismatch(t *testing.T) {
	m := machine.Hypercube(2, 0, 0)
	_, err := simulator.Run(m, func(pr *simulator.Proc) {
		got := ReduceCharged(pr, []int{pr.Rank()}, 0, 0, []float64{3}, 1)
		if got[0] != 3 {
			t.Errorf("singleton ReduceCharged = %v", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = simulator.Run(m, func(pr *simulator.Proc) {
		ReduceCharged(pr, seq(2), 0, 0, vec(pr.Rank()+1, 0), 1)
	})
	if err == nil || !strings.Contains(err.Error(), "length mismatch") {
		t.Fatalf("err = %v", err)
	}
}

// Concurrent collectives on disjoint groups never interfere, even with
// identical tags.
func TestDisjointGroupsSameTag(t *testing.T) {
	m := machine.Hypercube(8, 2, 1)
	_, err := simulator.Run(m, func(pr *simulator.Proc) {
		group := seq(4)
		if pr.Rank() >= 4 {
			group = []int{4, 5, 6, 7}
		}
		var data []float64
		if pr.Rank()%4 == 0 {
			data = []float64{float64(pr.Rank())}
		}
		got := Broadcast(pr, group, 0, 42, data)
		want := float64((pr.Rank() / 4) * 4)
		if got[0] != want {
			t.Errorf("rank %d got %v, want %v", pr.Rank(), got[0], want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
