package regions

import (
	"math"
	"strings"
	"testing"

	"matscale/internal/model"
)

// fraction returns the share of feasible parallel cells labeled with
// letter (infeasible and p=1 cells are excluded from the denominator).
// Compute's exponents start at 0, so the tests read the cell for
// n = 2^i, p = 2^j as m.Cells[i][j].
func (m *Map) fraction(letter byte) float64 {
	var total, hit int
	for _, row := range m.Cells {
		for _, c := range row {
			if c != Infeasible && c != Serial {
				total++
				if c == letter {
					hit++
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}

var (
	ncube = model.Params{Ts: 150, Tw: 3} // Figure 1
	fast  = model.Params{Ts: 10, Tw: 3}  // Figure 2
	simd  = model.Params{Ts: 0.5, Tw: 3} // Figure 3
)

func TestBestRespectsApplicability(t *testing.T) {
	// p > n³: nothing applies.
	if got := Best(ncube, 4, 128); got != Infeasible {
		t.Fatalf("p>n³: Best = %c", got)
	}
	// p = 1..n^(3/2): Berntsen is applicable and has the least overhead
	// for the nCUBE-like machine (Figure 1's b region).
	if got := Best(ncube, 1<<10, 1<<12); got != 'b' {
		t.Fatalf("Figure 1 b-region: Best = %c", got)
	}
}

func TestFigure1Regions(t *testing.T) {
	// Figure 1 (ts=150): the GK algorithm is the best choice for all
	// n^(3/2) < p ≤ n³ (DNS never wins), Berntsen below n^(3/2).
	m := Compute(ncube, 30, 16)

	// Spot checks along the paper's axes:
	// p between n^(3/2) and n²: GK beats Cannon for this machine.
	if got := m.Cells[10][16]; got != 'a' { // n=2^10, p=2^16: n^1.5=2^15 < p < n²=2^20
		t.Fatalf("Figure 1 (n=2^10, p=2^16) = %c, want a", got)
	}
	// p between n² and n³: only GK and DNS apply; GK wins for ts=150.
	if got := m.Cells[8][20]; got != 'a' { // n=2^8: n²=2^16, n³=2^24
		t.Fatalf("Figure 1 (n=2^8, p=2^20) = %c, want a", got)
	}
	// p < n^(3/2): Berntsen.
	if got := m.Cells[12][10]; got != 'b' {
		t.Fatalf("Figure 1 (n=2^12, p=2^10) = %c, want b", got)
	}
	// Infeasible corner.
	if got := m.Cells[2][20]; got != Infeasible {
		t.Fatalf("Figure 1 (n=4, p=2^20) = %c, want x", got)
	}
	// DNS should win nowhere on this machine (Section 6: the high ts
	// pushes any DNS advantage far beyond the practical range).
	if f := m.fraction('d'); f != 0 {
		t.Fatalf("Figure 1: DNS region fraction = %v, want 0", f)
	}
	// Cannon wins nowhere for p ≥ 16 (it picks up a sliver at p ∈ {4,8}
	// where 2√p < 3·p^(1/3) makes its Table 1 constants smaller than
	// Berntsen's — a small-p artifact the paper's figure resolution
	// does not show; see EXPERIMENTS.md).
	for i, row := range m.Cells {
		for j, c := range row {
			if c == 'c' && m.PExp[j] >= 4 {
				t.Fatalf("Figure 1: Cannon wins at n=2^%d, p=2^%d", m.NExp[i], m.PExp[j])
			}
		}
	}
	// Berntsen and GK split essentially the whole feasible plane (the
	// remainder is the p ≤ 8 sliver above).
	if f := m.fraction('b') + m.fraction('a'); f < 0.9 {
		t.Fatalf("Figure 1: a+b fractions = %v, want ≈1", f)
	}
}

func TestFigure2AllFourRegionsExist(t *testing.T) {
	// Figure 2 (ts=10): "each of the four algorithms performs better
	// than the rest in some region and all the four regions contain
	// practical values of p and n".
	m := Compute(fast, 30, 16)
	for _, letter := range []byte{'a', 'b', 'c', 'd'} {
		if m.fraction(letter) == 0 {
			t.Errorf("Figure 2: algorithm %c has no region", letter)
		}
	}
}

func TestFigure3SIMDRegions(t *testing.T) {
	// Figure 3 (ts=0.5): DNS for n² ≤ p ≤ n³, Cannon for
	// n^(3/2) ≤ p ≤ n², Berntsen for p < n^(3/2); GK inferior in the
	// practical range (it only wins beyond p ≈ 1.3·10^8 — footnote 4).
	m := Compute(simd, 26, 16)
	if got := m.Cells[8][20]; got != 'd' { // n² = 2^16 ≤ p = 2^20 ≤ n³ = 2^24
		t.Fatalf("Figure 3 (n=2^8, p=2^20) = %c, want d", got)
	}
	if got := m.Cells[10][17]; got != 'c' { // n^1.5 = 2^15 ≤ p ≤ n² = 2^20
		t.Fatalf("Figure 3 (n=2^10, p=2^17) = %c, want c", got)
	}
	if got := m.Cells[12][10]; got != 'b' {
		t.Fatalf("Figure 3 (n=2^12, p=2^10) = %c, want b", got)
	}
	// GK only beyond ~1.3e8 processors in the interior: nothing in
	// 4 ≤ p < 2^26 off the p = n³ and p = n² lines. (On that line DNS's overhead
	// exceeds GK's by exactly 2(ts+tw)n³ for every machine, and at
	// p ≤ 2 the Table 1 constants give GK a degenerate sliver; the
	// paper's figure resolves neither.)
	for i, row := range m.Cells {
		for j, c := range row {
			if c == 'a' && m.PExp[j] >= 2 && m.PExp[j] < 26 && m.PExp[j] != 3*m.NExp[i] && m.PExp[j] != 2*m.NExp[i] {
				t.Fatalf("Figure 3: GK wins at n=2^%d, p=2^%d < 1.3e8", m.NExp[i], m.PExp[j])
			}
		}
	}
}

func TestEq15MatchesBisection(t *testing.T) {
	// The closed-form Eq. (15) must agree with the generic bisection
	// crossover solver wherever both are defined.
	pr := fast
	for _, p := range []float64{1 << 6, 1 << 9, 1 << 12} {
		closed, ok1 := NEqualToGKCannon(pr, p)
		bisect, ok2 := model.NEqualTo(pr, model.GKTo, model.CannonTo, p, 1e12)
		if !ok1 || !ok2 {
			t.Fatalf("p=%v: closed ok=%v bisect ok=%v", p, ok1, ok2)
		}
		if math.Abs(closed-bisect) > 1e-6*closed {
			t.Fatalf("p=%v: Eq.(15) = %v, bisection = %v", p, closed, bisect)
		}
		// On either side of the threshold the winner flips.
		if model.GKTo(pr, closed*0.9, p) >= model.CannonTo(pr, closed*0.9, p) {
			t.Fatalf("p=%v: GK should win below n_EqualTo", p)
		}
		if model.GKTo(pr, closed*1.1, p) <= model.CannonTo(pr, closed*1.1, p) {
			t.Fatalf("p=%v: Cannon should win above n_EqualTo", p)
		}
	}
}

func TestGKBeatsCannonAlwaysNear130Million(t *testing.T) {
	// Section 6: "the tw term of the GK algorithm becomes smaller than
	// that of Cannon's algorithm for p > 130 million".
	p := GKBeatsCannonAlways()
	if p < 1.0e8 || p > 1.7e8 {
		t.Fatalf("GK-beats-Cannon cutoff = %.3g, want ≈1.3e8", p)
	}
	// Verify the defining property.
	above, below := p*2, p/2
	twGK := func(q float64) float64 { return 5.0 / 3.0 * math.Cbrt(q) * math.Log2(q) }
	twCannon := func(q float64) float64 { return 2 * math.Sqrt(q) }
	if twGK(above) >= twCannon(above) {
		t.Fatal("GK tw term should win above the cutoff")
	}
	if twGK(below) <= twCannon(below) {
		t.Fatal("Cannon tw term should win below the cutoff")
	}
}

func TestDNSNeverUsefulOnNCube(t *testing.T) {
	// Figure 1's machine: under Table 1's overhead forms, DNS never
	// beats GK anywhere within its applicability range at any practical
	// p (the paper's footnote 3 places the crossing around 2.6·10^18;
	// with Table 1's simplified DNS overhead it is even later).
	if p, ok := DNSUsefulFrom(ncube, model.DNSTo, 50); ok {
		t.Fatalf("DNS useful at p=%v under Table 1 overheads", p)
	}
}

func TestDNSWorseThanGKUpTo10000ForTs10Tw(t *testing.T) {
	// Section 10: "even if ts is 10 times tw, the DNS algorithm will
	// perform worse than the GK algorithm for up to almost 10,000
	// processors for any problem size". Verified as stated (the
	// crossing is in fact far beyond 10^4 under either overhead form).
	pr := model.Params{Ts: 30, Tw: 3}
	if p, ok := DNSUsefulFrom(pr, model.DNSTo, 13); ok {
		t.Fatalf("Table 1 overheads: DNS beats GK already at p=%v ≤ 10^4", p)
	}
	// The crossing under Table 1's forms is in fact around p ≈ 2^34.
	p, ok := DNSUsefulFrom(pr, model.DNSTo, 40)
	if !ok {
		t.Fatal("no Table 1 crossing up to 2^40")
	}
	if p < 1<<30 || p > 1<<38 {
		t.Fatalf("Table 1 DNS/GK crossing at p=%v, want ≈2^34", p)
	}
	// The unsimplified Eq. (6) overhead flips the comparison much
	// earlier — Table 1's r = p simplification is load-bearing for the
	// paper's Section 6 conclusions; see EXPERIMENTS.md.
	if pe, okE := DNSUsefulFrom(pr, model.DNSToExact, 13); !okE || pe > 1<<10 {
		t.Fatalf("exact-overhead crossing = %v ok=%v, expected small", pe, okE)
	}
}

func TestRenderContainsLegendAndAxes(t *testing.T) {
	m := Compute(ncube, 8, 6)
	s := m.Render()
	for _, frag := range []string{"a=GK", "b=Berntsen", "n=2^6", "p=2^5", "ts=150"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Render missing %q:\n%s", frag, s)
		}
	}
}

func TestMapCSV(t *testing.T) {
	m := Compute(ncube, 4, 3)
	csv := m.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 5 { // header + 4 n-rows (exponents 0..3)
		t.Fatalf("CSV has %d lines:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "log2_n\\log2_p,0,1,2,3,4") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0,s") { // p=1 column is serial
		t.Fatalf("first row = %q", lines[1])
	}
}

func TestPairwiseBoundariesStructure(t *testing.T) {
	bs := PairwiseBoundaries(fast, 20)
	if len(bs) != 6 { // C(4,2) pairs
		t.Fatalf("got %d boundaries, want 6", len(bs))
	}
	for _, b := range bs {
		if len(b.P) != 20 || len(b.N) != 20 {
			t.Fatalf("%s vs %s: %d/%d samples", b.X, b.Y, len(b.P), len(b.N))
		}
		if b.X == b.Y {
			t.Fatalf("degenerate pair %s", b.X)
		}
	}
}

func TestPairwiseBoundaryConsistentWithBest(t *testing.T) {
	// Wherever a GK/Cannon crossing exists, points just below it must
	// favor the below-algorithm and just above the other — consistent
	// with the Eq. (15) closed form.
	bs := PairwiseBoundaries(fast, 16)
	for _, b := range bs {
		if !(b.X == "GK" && b.Y == "Cannon" || b.X == "Cannon" && b.Y == "GK") {
			continue
		}
		for i, p := range b.P {
			n := b.N[i]
			if math.IsNaN(n) || p < 16 {
				continue
			}
			closed, ok := NEqualToGKCannon(fast, p)
			if !ok {
				continue
			}
			if math.Abs(n-closed) > 1e-6*closed {
				t.Fatalf("p=%v: boundary %v disagrees with Eq.(15) %v", p, n, closed)
			}
		}
	}
}
