package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

func TestPercentileTailRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	p90, err := percentile(xs, 0.9)
	if err != nil {
		t.Fatalf("100 samples: %v", err)
	}
	// Nearest rank 90 leaves exactly ten samples (91..100) beyond it.
	if p90 != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", p90)
	}
	if _, err := percentile(xs[:99], 0.9); err == nil {
		t.Error("99 samples: p90 has only 9 beyond it, want an error")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("no samples: want an error")
	}
	if p50, err := percentile(xs[:20], 0.5); err != nil || p50 != 10 {
		t.Errorf("p50 of 1..20 = %g, %v; want 10", p50, err)
	}
}

func TestMixSeeded(t *testing.T) {
	const n = 400 * mixBlock
	draw := func(seed uint64, client int) []request {
		m := newMix(seed, client)
		out := make([]request, n)
		for i := range out {
			out[i] = m.next()
		}
		return out
	}
	a, b := draw(7, 0), draw(7, 0)
	if !slices.Equal(a, b) {
		t.Fatal("same seed and client gave different request sequences")
	}
	if slices.Equal(a, draw(8, 0)) || slices.Equal(a, draw(7, 1)) {
		t.Error("another seed or client gave the same sequence")
	}
	seen := map[float64]bool{}
	for _, c := range []int{0, 1} {
		reqs := draw(7, c)
		for blk := 0; blk < n; blk += mixBlock {
			cold := 0
			for _, r := range reqs[blk : blk+mixBlock] {
				if r.pool >= 0 {
					if r.ts != poolTs[r.pool] {
						t.Fatalf("pool request %d has ts %g", r.pool, r.ts)
					}
					continue
				}
				cold++
				if r.ts < 5 || r.ts >= 8 || slices.Contains(poolTs[:], r.ts) || seen[r.ts] {
					t.Fatalf("cold ts %g is outside [5, 8), a pool value, or repeated", r.ts)
				}
				seen[r.ts] = true
			}
			if cold != 1 {
				t.Fatalf("block at %d has %d cold requests, want exactly 1", blk, cold)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 1, Start: ms(0), End: ms(10)},
		// Overlapping children (two workers) cover [1,5] once; the third
		// covers [7,8]; child time past the parent's end is ignored.
		{ID: 2, Parent: 1, Start: ms(1), End: ms(3)},
		{ID: 3, Parent: 1, Start: ms(2), End: ms(5)},
		{ID: 4, Parent: 1, Start: ms(7), End: ms(8)},
		{ID: 5, Parent: 1, Start: ms(9), End: ms(12)},
		{ID: 6, Parent: 3, Start: ms(2), End: ms(4)},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: ms(4), 2: ms(2), 3: ms(1), 4: ms(1), 5: ms(3), 6: ms(2)} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestCheckDigestFlippedByte(t *testing.T) {
	data := []byte("algorithm,machine,p,n\ncannon,cm5,64,88\n")
	want := digest(data)
	if err := checkDigest("csv", data, want); err != nil {
		t.Fatalf("unchanged bytes: %v", err)
	}
	for i := range data {
		flipped := slices.Clone(data)
		flipped[i] ^= 0x01
		if err := checkDigest("csv", flipped, want); err == nil {
			t.Fatalf("byte %d flipped: digest check passed", i)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the command
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, command has %v", names, workloads)
	}
	for _, tc := range []struct {
		kind string
		json []def
		defs []metricDef
	}{{"end_to_end", bench.EndToEnd, endToEnd}, {"per_layer", bench.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, command prints %d", tc.kind, len(tc.json), len(tc.defs))
			continue
		}
		for i, d := range tc.defs {
			if tc.json[i].Name != d.name || tc.json[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), command prints %s (%s)",
					tc.kind, i, tc.json[i].Name, tc.json[i].Unit, d.name, d.unit)
			}
		}
	}
}
