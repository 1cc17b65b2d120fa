package core

import (
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"matscale/internal/faults"
	"matscale/internal/machine"
	"matscale/internal/matrix"
	"matscale/internal/model"
	"matscale/internal/topology"
)

// runCase executes one algorithm on deterministic integer matrices and
// checks the product against the serial algorithm bit-exactly (integer
// entries make every summation order exact in float64).
func runCase(t *testing.T, name string, alg Algorithm, m *machine.Machine, n int) *Result {
	t.Helper()
	a := matrix.RandomInts(n, n, 1000+uint64(n))
	b := matrix.RandomInts(n, n, 2000+uint64(n))
	res, err := alg(m, a, b)
	if err != nil {
		t.Fatalf("%s n=%d p=%d: %v", name, n, m.P(), err)
	}
	want := matrix.Mul(a, b)
	if res.C == nil {
		t.Fatalf("%s n=%d p=%d: no product assembled", name, n, m.P())
	}
	if d := matrix.MaxAbsDiff(res.C, want); d != 0 {
		t.Fatalf("%s n=%d p=%d: product differs from serial by %v", name, n, m.P(), d)
	}
	if res.N != n || res.P != m.P() {
		t.Fatalf("%s: result metadata %d/%d", name, res.N, res.P)
	}
	return res
}

func wantTp(t *testing.T, name string, res *Result, want float64) {
	t.Helper()
	if math.Abs(res.Sim.Tp-want) > 1e-9*math.Max(1, want) {
		t.Fatalf("%s n=%d p=%d: Tp = %v, want %v (Δ=%g)", name, res.N, res.P, res.Sim.Tp, want, res.Sim.Tp-want)
	}
}

var testParams = model.Params{Ts: 17, Tw: 3}

func testHypercube(p int) *machine.Machine {
	return machine.Hypercube(p, testParams.Ts, testParams.Tw)
}

func TestSimpleCorrectAndExact(t *testing.T) {
	for _, c := range []struct{ n, p int }{{8, 1}, {8, 4}, {12, 4}, {8, 16}, {16, 16}, {16, 64}} {
		res := runCase(t, "Simple", Simple, testHypercube(c.p), c.n)
		wantTp(t, "Simple", res, model.ExactSimpleTp(testParams, c.n, c.p))
	}
}

func TestCannonCorrectAndExact(t *testing.T) {
	for _, c := range []struct{ n, p int }{{8, 1}, {8, 4}, {12, 4}, {6, 9}, {8, 16}, {16, 16}, {16, 64}} {
		res := runCase(t, "Cannon", Cannon, testHypercube2(c.p), c.n)
		if c.p == 9 || c.p == 1 {
			continue // non-power-of-two meshes have no exact hypercube form
		}
		wantTp(t, "Cannon", res, model.ExactCannonTp(testParams, c.n, c.p))
	}
}

// testHypercube2 returns a hypercube when p is a power of two and a
// fully connected machine otherwise (Cannon runs on any square mesh).
func testHypercube2(p int) *machine.Machine {
	if p&(p-1) == 0 {
		return testHypercube(p)
	}
	m := machine.CM5(p)
	m.Ts, m.Tw = testParams.Ts, testParams.Tw
	return m
}

func TestCannonExactOnNonPow2Mesh(t *testing.T) {
	// On a fully connected machine every transfer is one hop, so Eq. (3)
	// holds for any perfect square p.
	m := testHypercube2(9)
	res := runCase(t, "Cannon", Cannon, m, 6)
	wantTp(t, "Cannon", res, model.ExactCannonTp(testParams, 6, 9))
}

func TestFoxCorrectAndExact(t *testing.T) {
	for _, c := range []struct{ n, p int }{{8, 1}, {8, 4}, {12, 4}, {8, 16}, {16, 64}} {
		res := runCase(t, "Fox", Fox, testHypercube(c.p), c.n)
		wantTp(t, "Fox", res, model.ExactFoxTp(testParams, c.n, c.p))
	}
}

func TestFoxPipelinedCorrectAndExact(t *testing.T) {
	for _, c := range []struct{ n, p int }{{8, 1}, {8, 4}, {12, 4}, {8, 16}, {16, 64}} {
		res := runCase(t, "FoxPipelined", FoxPipelined, testHypercube(c.p), c.n)
		wantTp(t, "FoxPipelined", res, model.ExactFoxPipelinedTp(testParams, c.n, c.p))
	}
}

func TestBerntsenCorrectAndExact(t *testing.T) {
	for _, c := range []struct{ n, p int }{{8, 1}, {8, 8}, {16, 8}, {16, 64}, {32, 64}} {
		res := runCase(t, "Berntsen", Berntsen, testHypercube(c.p), c.n)
		wantTp(t, "Berntsen", res, model.ExactBerntsenTp(testParams, c.n, c.p))
	}
}

func TestDNSCorrectAndExact(t *testing.T) {
	for _, c := range []struct{ n, p, grid int }{
		{4, 16, 4},   // r=1: degenerate, pure Cannon in one layer
		{4, 32, 4},   // r=2, u=2
		{4, 64, 4},   // r=4, u=1: the one-element-per-processor limit
		{8, 128, 8},  // r=2, u=4
		{8, 32, 4},   // blocks of 2x2, r=2, u=2
		{12, 16, 4},  // blocks of 3x3, r=1
		{16, 256, 8}, // blocks of 2x2, r=4, u=2
	} {
		alg := func(m *machine.Machine, a, b *matrix.Dense) (*Result, error) {
			return DNSWithGrid(m, a, b, c.grid)
		}
		res := runCase(t, "DNS", alg, testHypercube(c.p), c.n)
		wantTp(t, "DNS", res, model.ExactDNSTp(testParams, c.n, c.p, c.grid))
	}
}

func TestDNSElementEntryPoint(t *testing.T) {
	// DNS(m, a, b) uses gridSide = n (one block element per processor).
	res := runCase(t, "DNS", DNS, testHypercube(64), 4)
	wantTp(t, "DNS", res, model.ExactDNSTp(testParams, 4, 64, 4))
	if _, err := DNS(testHypercube(8), matrix.RandomInts(4, 4, 1), matrix.RandomInts(4, 4, 2)); err == nil || !strings.Contains(err.Error(), "p ≥ n²") {
		t.Fatalf("DNS below applicability: err = %v", err)
	}
}

func TestGKCorrectAndExactEq7(t *testing.T) {
	for _, c := range []struct{ n, p int }{{8, 1}, {8, 8}, {12, 8}, {8, 64}, {16, 64}, {16, 512}} {
		res := runCase(t, "GK", GK, testHypercube(c.p), c.n)
		wantTp(t, "GK", res, model.ExactGKTp(testParams, c.n, c.p))
		// Eq. (7) as printed agrees with the exact form on a hypercube.
		paper := model.PaperGKTp(testParams, float64(c.n), float64(c.p))
		if math.Abs(res.Sim.Tp-paper) > 1e-9*math.Max(1, paper) {
			t.Fatalf("GK n=%d p=%d: Tp = %v, Eq.(7) = %v", c.n, c.p, res.Sim.Tp, paper)
		}
	}
}

func TestGKOnCM5MatchesEq18(t *testing.T) {
	for _, c := range []struct{ n, p int }{{8, 8}, {16, 64}, {16, 512}} {
		m := machine.CM5(c.p)
		m.Ts, m.Tw = testParams.Ts, testParams.Tw
		res := runCase(t, "GK/CM5", GK, m, c.n)
		wantTp(t, "GK/CM5", res, model.ExactGKCM5Tp(testParams, c.n, c.p))
		paper := model.PaperGKCM5Tp(testParams, float64(c.n), float64(c.p))
		if math.Abs(res.Sim.Tp-paper) > 1e-9*math.Max(1, paper) {
			t.Fatalf("GK/CM5 n=%d p=%d: Tp = %v, Eq.(18) = %v", c.n, c.p, res.Sim.Tp, paper)
		}
	}
}

func TestGKImprovedCorrectAndExact(t *testing.T) {
	for _, c := range []struct{ n, p int }{{8, 8}, {16, 64}, {16, 512}} {
		res := runCase(t, "GKImproved", GKImprovedBroadcast, testHypercube(c.p), c.n)
		wantTp(t, "GKImproved", res, model.ExactGKImprovedTp(testParams, c.n, c.p))
	}
	// For deep trees and large messages the Johnsson–Ho broadcast must
	// beat the naive binomial tree (for small messages it legitimately
	// loses — the granularity limit Section 5.4.1 discusses).
	for _, c := range []struct{ n, p int }{{64, 512}, {256, 512}} {
		naive := model.ExactGKTp(testParams, c.n, c.p)
		improved := model.ExactGKImprovedTp(testParams, c.n, c.p)
		if improved > naive {
			t.Fatalf("n=%d p=%d: improved GK %v slower than naive %v", c.n, c.p, improved, naive)
		}
	}
}

func TestGKAllPortCorrectAndExactEq17(t *testing.T) {
	for _, c := range []struct{ n, p int }{{8, 8}, {16, 64}} {
		m := testHypercube(c.p)
		m.AllPort = true
		res := runCase(t, "GKAllPort", GKAllPort, m, c.n)
		wantTp(t, "GKAllPort", res, model.ExactGKAllPortTp(testParams, c.n, c.p))
	}
}

func TestSimpleAllPortCorrectAndExactEq16(t *testing.T) {
	for _, c := range []struct{ n, p int }{{8, 4}, {16, 16}, {16, 64}} {
		m := testHypercube(c.p)
		m.AllPort = true
		res := runCase(t, "SimpleAllPort", SimpleAllPort, m, c.n)
		wantTp(t, "SimpleAllPort", res, model.ExactSimpleAllPortTp(testParams, c.n, c.p))
		paper := model.PaperSimpleAllPortTp(testParams, float64(c.n), float64(c.p))
		if math.Abs(res.Sim.Tp-paper) > 1e-9*math.Max(1, paper) {
			t.Fatalf("SimpleAllPort n=%d p=%d: Tp = %v, Eq.(16) = %v", c.n, c.p, res.Sim.Tp, paper)
		}
	}
}

func TestResultMetrics(t *testing.T) {
	res := runCase(t, "Cannon", Cannon, testHypercube(4), 8)
	w := float64(8 * 8 * 8)
	if res.W() != w {
		t.Fatalf("W = %v", res.W())
	}
	if e := res.Efficiency(); e <= 0 || e >= 1 {
		t.Fatalf("Efficiency = %v", e)
	}
	if s := res.Speedup(); math.Abs(s-4*res.Efficiency()) > 1e-12 {
		t.Fatalf("Speedup %v inconsistent with efficiency %v", s, res.Efficiency())
	}
	if to := res.Overhead(); math.Abs(to-(4*res.Sim.Tp-w)) > 1e-9 {
		t.Fatalf("Overhead = %v", to)
	}
}

func TestConfigurationErrors(t *testing.T) {
	a8 := matrix.RandomInts(8, 8, 1)
	b8 := matrix.RandomInts(8, 8, 2)
	cases := []struct {
		name string
		run  func() error
		want string
	}{
		{"rectangular", func() error {
			_, err := Cannon(testHypercube(4), matrix.New(4, 5), matrix.New(5, 4))
			return err
		}, "square"},
		{"mismatched", func() error {
			_, err := Cannon(testHypercube(4), matrix.New(4, 4), matrix.New(8, 8))
			return err
		}, "square"},
		{"nonsquare p", func() error {
			_, err := Cannon(testHypercube(8), a8, b8)
			return err
		}, "perfect square"},
		{"indivisible mesh", func() error {
			_, err := Cannon(testHypercube(16), matrix.New(6, 6), matrix.New(6, 6))
			return err
		}, "does not divide"},
		{"noncube p", func() error {
			_, err := GK(testHypercube(16), a8, b8)
			return err
		}, "perfect cube"},
		{"cube side indivisible", func() error {
			_, err := GK(testHypercube(512), matrix.New(12, 12), matrix.New(12, 12))
			return err
		}, "does not divide"},
		{"berntsen divisibility", func() error {
			_, err := Berntsen(testHypercube(8), matrix.New(10, 10), matrix.New(10, 10))
			return err
		}, "divide"},
		{"berntsen concurrency", func() error {
			_, err := Berntsen(testHypercube(512), matrix.New(16, 16), matrix.New(16, 16))
			return err
		}, "n^(3/2)"},
		{"dns bad grid", func() error {
			_, err := DNSWithGrid(testHypercube(16), a8, b8, 3)
			return err
		}, "divide"},
		{"dns bad r", func() error {
			_, err := DNSWithGrid(machine.CM5(48), a8, b8, 4)
			return err
		}, "power of two"},
		{"dns r exceeds grid", func() error {
			_, err := DNSWithGrid(testHypercube(128), a8, b8, 4)
			return err
		}, "divide"},
		{"fox non-pow2 mesh", func() error {
			m := testHypercube2(9)
			_, err := Fox(m, matrix.New(6, 6), matrix.New(6, 6))
			return err
		}, "power-of-two"},
	}
	for _, c := range cases {
		err := c.run()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

// All algorithms must agree with each other on the same inputs.
func TestCrossAlgorithmAgreement(t *testing.T) {
	n := 16
	a := matrix.RandomInts(n, n, 7)
	b := matrix.RandomInts(n, n, 8)
	want := matrix.Mul(a, b)
	algs := []struct {
		name string
		alg  Algorithm
		p    int
	}{
		{"Simple", Simple, 16},
		{"Cannon", Cannon, 16},
		{"Fox", Fox, 16},
		{"FoxPipelined", FoxPipelined, 16},
		{"Berntsen", Berntsen, 64},
		{"GK", GK, 64},
		{"GKImproved", GKImprovedBroadcast, 64},
	}
	for _, c := range algs {
		res, err := c.alg(testHypercube(c.p), a, b)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if d := matrix.MaxAbsDiff(res.C, want); d != 0 {
			t.Errorf("%s: differs from serial by %v", c.name, d)
		}
	}
}

// GK beats Cannon for small n at fixed p and loses for large n — the
// paper's central experimental claim (Section 9), checked in simulation
// with CM-5 parameters.
func TestGKCannonCrossoverDirection(t *testing.T) {
	p := 64
	mCannon := machine.CM5(p)
	mGK := machine.CM5(p)
	small, big := 16, 192

	gkS := runCase(t, "GK", GK, mGK, small)
	caS := runCase(t, "Cannon", Cannon, mCannon, small)
	if gkS.Sim.Tp >= caS.Sim.Tp {
		t.Errorf("n=%d: GK (%v) should beat Cannon (%v)", small, gkS.Sim.Tp, caS.Sim.Tp)
	}

	gkB := runCase(t, "GK", GK, mGK, big)
	caB := runCase(t, "Cannon", Cannon, mCannon, big)
	if caB.Sim.Tp >= gkB.Sim.Tp {
		t.Errorf("n=%d: Cannon (%v) should beat GK (%v)", big, caB.Sim.Tp, gkB.Sim.Tp)
	}
}

// Section 4.5.1's one-element-per-processor DNS limit: with p = n³
// processors the multiplication completes in O(log n) time — here
// exactly 1 + 5·log₂n·(ts + tw).
func TestDNSOneElementPerProcessorLogTime(t *testing.T) {
	n, p := 8, 512
	res := runCase(t, "DNS/1elem", DNS, testHypercube(p), n)
	want := 1 + 5*3*(testParams.Ts+testParams.Tw) // log₂8 = 3, unit block
	if math.Abs(res.Sim.Tp-want) > 1e-9 {
		t.Fatalf("Tp = %v, want %v = O(log n)", res.Sim.Tp, want)
	}
	// Processor-time product far exceeds W — the processor-inefficiency
	// the paper notes for this extreme.
	if pt := float64(p) * res.Sim.Tp; pt < 10*res.W() {
		t.Fatalf("processor-time product %v should dwarf W %v", pt, res.W())
	}
}

func TestSimpleMemEfficientAllPortCorrectAndExact(t *testing.T) {
	for _, c := range []struct{ n, p int }{{8, 4}, {16, 16}, {16, 64}} {
		m := testHypercube(c.p)
		m.AllPort = true
		res := runCase(t, "SimpleMemEff", SimpleMemEfficientAllPort, m, c.n)
		wantTp(t, "SimpleMemEff", res, model.ExactSimpleMemEffAllPortTp(testParams, c.n, c.p))
	}
}

// Section 7.1: the memory-efficient variant of [18] "has somewhat
// higher execution time" than the memory-hungry Eq. (16) version —
// that is the price of constant storage.
func TestMemEfficientVariantCostsMoreTime(t *testing.T) {
	for _, c := range []struct{ n, p int }{{32, 16}, {64, 64}} {
		eq16 := model.ExactSimpleAllPortTp(testParams, c.n, c.p)
		memEff := model.ExactSimpleMemEffAllPortTp(testParams, c.n, c.p)
		if memEff <= eq16 {
			t.Errorf("n=%d p=%d: mem-efficient Tp %v not above Eq.(16)'s %v", c.n, c.p, memEff, eq16)
		}
	}
}

func TestMemEfficientAllPortRejectsNonPow2Mesh(t *testing.T) {
	m := machine.CM5(36) // q = 6, not a power of two
	m.AllPort = true
	_, err := SimpleMemEfficientAllPort(m, matrix.New(12, 12), matrix.New(12, 12))
	if err == nil || !strings.Contains(err.Error(), "power-of-two") {
		t.Fatalf("err = %v", err)
	}
}

func TestGKTraced(t *testing.T) {
	a := matrix.RandomInts(8, 8, 1)
	b := matrix.RandomInts(8, 8, 2)
	traced := func(p int) *machine.Machine {
		m := testHypercube(p)
		m.CollectTrace = true
		return m
	}
	res, err := GK(traced(8), a, b)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Sim.Trace
	if d := matrix.MaxAbsDiff(res.C, matrix.Mul(a, b)); d != 0 {
		t.Fatalf("traced GK product differs by %v", d)
	}
	wantTp(t, "GKTraced", res, model.ExactGKTp(testParams, 8, 8))
	if tr == nil || len(tr.Events) == 0 {
		t.Fatal("no trace events")
	}
	// Every processor computes exactly once in the naive GK run.
	for r := 0; r < 8; r++ {
		computes := 0
		for _, e := range tr.PerRank(r) {
			if e.Kind == 0 { // EventCompute
				computes++
			}
		}
		if computes != 1 {
			t.Fatalf("rank %d has %d compute events, want 1", r, computes)
		}
	}
	if _, err := GK(traced(16), a, b); err == nil {
		t.Fatal("non-cube p accepted")
	}
}

// acceptedGeometry returns the first test geometry (p, n) on an nCUBE 2
// that f.Run accepts, with Run's Result there.
func acceptedGeometry(t *testing.T, f Formulation) (p, n int, res *Result) {
	t.Helper()
	for _, g := range []struct{ n, p int }{{16, 64}, {8, 64}, {16, 16}} {
		res, err := f.Run(machine.NCube2(g.p), matrix.Random(g.n, g.n, 1), matrix.Random(g.n, g.n, 2))
		if err == nil {
			return g.p, g.n, res
		}
	}
	t.Fatalf("%s: no test geometry accepted", f.Name)
	return 0, 0, nil
}

// TestFormulationTable checks every row of the formulation table
// against the implementation it names and the paper equation it
// predicts with. internal/model's TestSpecsShape checks the Table 1
// column.
func TestFormulationTable(t *testing.T) {
	type tp = func(model.Params, float64, float64) float64
	// The paper equation of each key on a hypercube and on the fully
	// connected CM-5; nil where the paper prints none.
	equations := map[string][2]tp{
		"berntsen":   {model.PaperBerntsenTp, model.PaperBerntsenTp},
		"cannon":     {model.PaperCannonTp, model.PaperCannonTp},
		"dns":        {model.PaperDNSTp, model.PaperDNSTp},
		"fox":        {model.PaperFoxTp, model.PaperFoxTp},
		"foxpipe":    {model.PaperFoxTp, model.PaperFoxTp},
		"gk":         {model.PaperGKTp, model.PaperGKCM5Tp},
		"gkimproved": {nil, nil},
		"simple":     {model.PaperSimpleTp, model.PaperSimpleTp},
	}
	const keys = "berntsen,cannon,dns,fox,foxpipe,gk,gkimproved,simple"
	if got := strings.Join(Keys(), ","); got != keys {
		t.Errorf("Keys() = %s, want %s", got, keys)
	}
	if f, ok := Lookup(""); ok {
		t.Errorf("Lookup(\"\") = %s, want no row", f.Name)
	}
	names := map[string]bool{}
	for _, f := range Formulations {
		if names[f.Name] {
			t.Errorf("name %q repeats", f.Name)
		}
		names[f.Name] = true
		if g, ok := Lookup(f.Key); f.Key != "" && (!ok || g.Name != f.Name) {
			t.Errorf("%s: Lookup(%q) = %q, %v", f.Name, f.Key, g.Name, ok)
		}
		// Run stamps the row's name on a geometry it accepts.
		if _, _, res := acceptedGeometry(t, f); res.Algorithm != f.Name {
			t.Errorf("%s: Result.Algorithm = %q", f.Name, res.Algorithm)
		}
		// PaperTp matches the equation on a hypercube and on the CM-5;
		// an unkeyed row has none.
		eq := equations[f.Key]
		for i, preset := range []string{"ncube2", "cm5"} {
			build, ts, tw, _ := machine.LookupPreset(preset, 0, 0)
			one, err := build(1)
			if err != nil {
				t.Fatal(err)
			}
			_, full := one.Topo.(topology.FullyConnected)
			if full != (i == 1) {
				t.Fatalf("%s: fully connected = %v", preset, full)
			}
			if (f.PaperTp == nil) != (eq[i] == nil) {
				t.Errorf("%s: PaperTp nil = %v, want %v", f.Name, f.PaperTp == nil, eq[i] == nil)
				continue
			}
			if f.PaperTp == nil {
				continue
			}
			pr := model.Params{Ts: ts, Tw: tw}
			if got, want := f.PaperTp(pr, 64, 512, full), eq[i](pr, 64, 512); got != want {
				t.Errorf("%s on %s: PaperTp = %v, want %v", f.Name, preset, got, want)
			}
		}
	}
}

// TestApplicabilityRanges checks each Table 1 entry's range of
// applicability at and just outside its printed bounds.
func TestApplicabilityRanges(t *testing.T) {
	n := 64.0
	// For each entry, two processor counts it applies at (one inside,
	// the lowest it allows) and two it rejects.
	bounds := map[string]struct{ inside, lowest, below, above float64 }{
		"berntsen": {256, 1, 0.5, 1024},            // n^1.5 = 512
		"cannon":   {1024, 1, 0.5, 8192},           // n² = 4096
		"gk":       {4096, 1, 0.5, 1 << 19},        // n³ = 2^18
		"dns":      {1 << 17, 4096, 1024, 1 << 19}, // n² ≤ p ≤ n³
	}
	for _, f := range Formulations {
		s := f.Table1
		if s == nil {
			continue
		}
		b := bounds[f.Key]
		for _, p := range []float64{b.inside, b.lowest} {
			if !s.Applicable(n, p) {
				t.Errorf("%s: should apply at p=%v", f.Name, p)
			}
		}
		for _, p := range []float64{b.below, b.above} {
			if s.Applicable(n, p) {
				t.Errorf("%s: must not apply at p=%v", f.Name, p)
			}
		}
	}
}

// goldenWaveNames returns the formulations the recorded golden digests
// time on the wave tier, read from their "wave/" rows: test data, not
// the table, so a row that loses its skeleton disagrees with it.
func goldenWaveNames(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "wave/"); ok {
			name, _, _ := strings.Cut(rest, "/")
			names[name] = true
		}
	}
	return names
}

// TestMeasureBuildsOperandsOnlyForRankPrograms pins the one decision
// point of every row: Measure calls operands exactly when the cell runs
// a rank program — never for a wave row on a plain machine (one-port or
// all-port), once on a lossy or metrics machine and for a row without a
// skeleton — returns Run's Result.Sim either way, and rejects a
// geometry with Run's error, without operands on a wave row.
func TestMeasureBuildsOperandsOnlyForRankPrograms(t *testing.T) {
	wave := goldenWaveNames(t)
	for _, f := range Formulations {
		p, n, _ := acceptedGeometry(t, f)
		plain := 1
		if wave[f.Name] {
			plain = 0
		}
		lossy := machine.NCube2(p).WithFaults(&faults.Config{Seed: 7, Loss: 0.02})
		metered := machine.NCube2(p)
		metered.CollectMetrics = true
		cases := []struct {
			what  string
			m     *machine.Machine
			n     int
			calls int
		}{
			{"ncube2", machine.NCube2(p), n, plain},
			{"allport", machine.Hypercube(p, 17, 3).WithAllPort(true), n, plain},
			{"lossy", lossy, n, 1},
			{"metrics", metered, n, 1},
			{"rejected", machine.NCube2(p), n + 1, plain},
		}
		for _, c := range cases {
			a, b := matrix.Random(c.n, c.n, 1), matrix.Random(c.n, c.n, 2)
			calls := 0
			sim, err := f.Measure(c.m, c.n, func() [2]*matrix.Dense { calls++; return [2]*matrix.Dense{a, b} })
			if calls != c.calls {
				t.Errorf("%s/%s: operands built %d times, want %d", f.Name, c.what, calls, c.calls)
			}
			res, rerr := f.Run(c.m, a, b)
			switch {
			case (rerr != nil) != (c.what == "rejected"):
				t.Errorf("%s/%s: Run error %v", f.Name, c.what, rerr)
			case rerr != nil:
				if err == nil || err.Error() != rerr.Error() {
					t.Errorf("%s/%s: Measure error %v, Run error %v", f.Name, c.what, err, rerr)
				}
			case err != nil:
				t.Errorf("%s/%s: Measure: %v", f.Name, c.what, err)
			case !reflect.DeepEqual(sim, res.Sim):
				t.Errorf("%s/%s: Measure's Result differs from Run's Sim", f.Name, c.what)
			}
		}
	}
}
