package model

import (
	"math"
	"testing"
	"testing/quick"
)

var pr = Params{Ts: 150, Tw: 3}

// Hand-computed values of every paper equation at (n=64, p=64),
// log₂p = 6, √p = 8, p^(1/3) = 4, p^(2/3) = 16.
func TestPaperEquationsAtKnownPoint(t *testing.T) {
	n, p := 64.0, 64.0
	w := n * n * n / p // 4096
	cases := []struct {
		name string
		f    func(Params, float64, float64) float64
		want float64
	}{
		{"Eq2 Simple", PaperSimpleTp, w + 2*150*6 + 2*3*4096/8},
		{"Eq3 Cannon", PaperCannonTp, w + 2*150*8 + 2*3*4096/8},
		{"Eq4 Fox", PaperFoxTp, w + 2*3*4096/8 + 150*64},
		{"Eq5 Berntsen", PaperBerntsenTp, w + 2*150*4 + 150.0*6/3 + 3*3*4096/16},
		{"Eq6 DNS", PaperDNSTp, w + 153*(5*(-6.0)+2*4096)}, // log(p/n²) = −6, 2n³/p = 8192
		{"Eq7 GK", PaperGKTp, w + 5.0/3.0*150*6 + 5.0/3.0*3*4096/16*6},
		{"Eq16 SimpleAllPort", PaperSimpleAllPortTp, w + 2*3*4096/(8*6) + 150.0*6/2},
		{"Eq17 GKAllPort", PaperGKAllPortTp, w + 150*6 + 9*3*4096/(16*6) + 6*64/4*math.Sqrt(150*3)},
		{"Eq18 GKCM5", PaperGKCM5Tp, w + 150*8 + 3*4096/16*8},
	}
	for _, c := range cases {
		got := c.f(pr, n, p)
		if math.Abs(got-c.want) > 1e-9*math.Abs(c.want) {
			t.Errorf("%s = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestOverheadIdentityToEqualsPTpMinusW(t *testing.T) {
	// Table 1's To functions must equal p·Tp − n³ for the matching Tp
	// equations (the definition in Section 2).
	n, p := 256.0, 4096.0
	pairs := []struct {
		name string
		tp   func(Params, float64, float64) float64
		to   func(Params, float64, float64) float64
	}{
		{"Cannon", PaperCannonTp, CannonTo},
		{"GK", PaperGKTp, GKTo},
		{"Simple", PaperSimpleTp, SimpleTo},
		{"SimpleAllPort", PaperSimpleAllPortTp, SimpleAllPortTo},
		{"GKAllPort", PaperGKAllPortTp, GKAllPortTo},
	}
	for _, c := range pairs {
		want := p*c.tp(pr, n, p) - n*n*n
		got := c.to(pr, n, p)
		if math.Abs(got-want) > 1e-6*math.Abs(want) {
			t.Errorf("%s: To = %v, p·Tp−W = %v", c.name, got, want)
		}
	}
}

func TestBerntsenToMatchesTpUpToDroppedTerm(t *testing.T) {
	// Table 1's Berntsen To uses the rounded 3·tw·n²·p^(1/3); Eq. (5)'s
	// p·Tp − W equals it exactly because Eq. (5) prints the same
	// rounding.
	n, p := 256.0, 512.0
	want := p*PaperBerntsenTp(pr, n, p) - n*n*n
	got := BerntsenTo(pr, n, p)
	if math.Abs(got-want) > 1e-9*want {
		t.Errorf("Berntsen To = %v, p·Tp−W = %v", got, want)
	}
}

func TestDNSToFormsAgreeOnBoundary(t *testing.T) {
	// Table 1's DNS To is the exact Eq. (6) overhead evaluated at the
	// p = n³ extreme: log(p/n²) = (1/3)·log p there.
	p := 4096.0
	n := math.Cbrt(p)
	if d := math.Abs(DNSTo(pr, n, p) - DNSToExact(pr, n, p)); d > 1e-9*DNSTo(pr, n, p) {
		t.Fatalf("forms differ by %v on the p=n³ boundary", d)
	}
	// Off the boundary (larger n) the exact form is smaller.
	if DNSToExact(pr, 2*n, p) >= DNSTo(pr, 2*n, p) {
		t.Fatal("exact DNS overhead should be below Table 1's simplification for n > p^(1/3)")
	}
}

func TestEfficiencyHelpers(t *testing.T) {
	if e := Efficiency(100, 100); e != 0.5 {
		t.Fatalf("Efficiency = %v", e)
	}
}

func TestExactDNSReducesToSerial(t *testing.T) {
	prm := Params{Ts: 17, Tw: 3}
	if got := ExactDNSTp(prm, 12, 1, 1); got != 12*12*12 {
		t.Fatalf("DNS p=1: %v", got)
	}
}

func TestExactGKEqualsEq7OnHypercube(t *testing.T) {
	prm := Params{Ts: 17, Tw: 3}
	for _, c := range []struct{ n, p int }{{8, 8}, {16, 64}, {32, 512}, {64, 4096}} {
		exact := ExactGKTp(prm, c.n, c.p)
		paper := PaperGKTp(prm, float64(c.n), float64(c.p))
		if math.Abs(exact-paper) > 1e-9*paper {
			t.Errorf("n=%d p=%d: exact %v vs Eq.(7) %v", c.n, c.p, exact, paper)
		}
	}
}

func TestExactCannonEqualsEq3(t *testing.T) {
	prm := Params{Ts: 17, Tw: 3}
	for _, c := range []struct{ n, p int }{{8, 4}, {16, 16}, {64, 64}} {
		exact := ExactCannonTp(prm, c.n, c.p)
		paper := PaperCannonTp(prm, float64(c.n), float64(c.p))
		if math.Abs(exact-paper) > 1e-9*paper {
			t.Errorf("n=%d p=%d: exact %v vs Eq.(3) %v", c.n, c.p, exact, paper)
		}
	}
}

func TestNEqualToFindsKnownCrossing(t *testing.T) {
	// GK vs Cannon at moderate p: crossing must exist and match Eq. (15)
	// (tested in detail in the regions package); here check the generic
	// bisection machinery itself.
	n, ok := NEqualTo(pr, GKTo, CannonTo, 1024, 1e9)
	if !ok || n <= 1 {
		t.Fatalf("no crossing: %v %v", n, ok)
	}
	if GKTo(pr, n, 1024) > CannonTo(pr, n, 1024)*(1+1e-6) ||
		GKTo(pr, n, 1024) < CannonTo(pr, n, 1024)*(1-1e-6) {
		t.Fatalf("overheads unequal at the returned crossing")
	}
	// No crossing case: a uniformly dominated overhead never crosses.
	shifted := func(q Params, n, p float64) float64 { return GKTo(q, n, p) + 1000 }
	if _, ok := NEqualTo(pr, shifted, GKTo, 1024, 1e9); ok {
		t.Fatal("dominated overheads reported a crossing")
	}
}

// Property: every Tp equation is decreasing in p for fixed large n
// (more processors help when the problem is big enough), and every To
// is increasing in both n and p.
func TestQuickMonotonicity(t *testing.T) {
	f := func(pe, ne uint8) bool {
		p := math.Pow(2, float64(2+pe%10))
		n := math.Pow(2, float64(8+ne%6))
		for _, to := range []func(Params, float64, float64) float64{BerntsenTo, CannonTo, GKTo, DNSTo} {
			if to(pr, n, p) > to(pr, n, 2*p) || to(pr, n, p) > to(pr, 2*n, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Section 3's opening observation: for a fixed problem size the
// speedup saturates and then *falls* as p grows — Tp eventually
// increases with p once the startup overhead dominates.
func TestSpeedupSaturationForFixedProblem(t *testing.T) {
	n := 256.0
	bestTp, bestP := math.Inf(1), 0.0
	worseAfterBest := false
	for pe := 0; pe <= 16; pe += 2 {
		p := math.Pow(2, float64(pe))
		tp := PaperCannonTp(pr, n, p)
		if tp < bestTp {
			bestTp, bestP = tp, p
		} else if p > bestP {
			worseAfterBest = true
		}
	}
	if !worseAfterBest {
		t.Fatal("Cannon's Tp never saturated for fixed n — Section 3's premise lost")
	}
	if bestP <= 1 || bestP >= 1<<16 {
		t.Fatalf("saturation point p=%v implausible", bestP)
	}
}

// Property: efficiency derived from To is always in (0, 1] and
// increases with n at fixed p for the scalable algorithms.
func TestQuickEfficiencyBounds(t *testing.T) {
	f := func(pe, ne uint8) bool {
		p := math.Pow(2, float64(2+pe%12))
		n := math.Pow(2, float64(4+ne%8))
		for _, s := range []func(Params, float64, float64) float64{CannonTo, GKTo, SimpleTo} {
			e := Efficiency(n*n*n, s(pr, n, p))
			e2 := Efficiency(8*n*n*n, s(pr, 2*n, p))
			if e <= 0 || e > 1 || e2 < e {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestImprovedGKToKnownValue(t *testing.T) {
	// At n=64, p=64 (log p = 6, p^(1/3) = 4, p^(2/3) = 16):
	// tw·n²·p^(1/3) + (1/3)·ts·p·log p + 2·n·p^(2/3)·sqrt(ts·tw·log p/3).
	want := 3*4096*4.0 + 150.0*64*6/3 + 2*64*16*math.Sqrt(150*3*6.0/3)
	if got := ImprovedGKTo(pr, 64, 64); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("ImprovedGKTo = %v, want %v", got, want)
	}
}
