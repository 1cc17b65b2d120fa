// Package model provides the paper's closed-form performance
// expressions in two families:
//
//   - the Paper* functions and the Spec table reproduce the equations
//     exactly as printed (Eqs. 2–7, 16–18 and the overhead functions of
//     Table 1), including the paper's habit of dropping lower-order
//     terms; the Section 6 figures and crossover analyses use these;
//   - the Exact* functions (exact.go) give the virtual time the
//     implementations in internal/core measure, term for term — the
//     equation-validation tests assert bitwise equality between a
//     simulator run and these.
//
// All functions take n and p as float64 because the region analyses
// sweep p to 2^30 and beyond.
package model

import "math"

// Params carries the normalized communication constants of Section 2:
// message startup time ts and per-word transfer time tw, both in units
// of one multiply–add.
type Params struct {
	Ts, Tw float64
}

// log2 is a shorthand; the paper's "log" is base 2 throughout.
func log2(x float64) float64 { return math.Log2(x) }

// PaperSimpleTp is Eq. (2): Tp = n³/p + 2·ts·log p + 2·tw·n²/√p.
func PaperSimpleTp(pr Params, n, p float64) float64 {
	return n*n*n/p + 2*pr.Ts*log2(p) + 2*pr.Tw*n*n/math.Sqrt(p)
}

// PaperCannonTp is Eq. (3): Tp = n³/p + 2·ts·√p + 2·tw·n²/√p.
func PaperCannonTp(pr Params, n, p float64) float64 {
	return n*n*n/p + 2*pr.Ts*math.Sqrt(p) + 2*pr.Tw*n*n/math.Sqrt(p)
}

// PaperFoxTp is Eq. (4), the pipelined variant:
// Tp = n³/p + 2·tw·n²/√p + ts·p.
func PaperFoxTp(pr Params, n, p float64) float64 {
	return n*n*n/p + 2*pr.Tw*n*n/math.Sqrt(p) + pr.Ts*p
}

// PaperBerntsenTp is Eq. (5):
// Tp = n³/p + 2·ts·p^(1/3) + (1/3)·ts·log p + 3·tw·n²/p^(2/3).
func PaperBerntsenTp(pr Params, n, p float64) float64 {
	return n*n*n/p + 2*pr.Ts*math.Cbrt(p) + pr.Ts*log2(p)/3 + 3*pr.Tw*n*n/math.Pow(p, 2.0/3.0)
}

// PaperDNSTp is Eq. (6):
// Tp = n³/p + (ts + tw)·(5·log(p/n²) + 2·n³/p).
func PaperDNSTp(pr Params, n, p float64) float64 {
	return n*n*n/p + (pr.Ts+pr.Tw)*(5*log2(p/(n*n))+2*n*n*n/p)
}

// PaperGKTp is Eq. (7):
// Tp = n³/p + (5/3)·ts·log p + (5/3)·tw·(n²/p^(2/3))·log p.
func PaperGKTp(pr Params, n, p float64) float64 {
	return n*n*n/p + 5.0/3.0*pr.Ts*log2(p) + 5.0/3.0*pr.Tw*n*n/math.Pow(p, 2.0/3.0)*log2(p)
}

// PaperSimpleAllPortTp is Eq. (16):
// Tp = n³/p + 2·tw·n²/(√p·log p) + (1/2)·ts·log p.
func PaperSimpleAllPortTp(pr Params, n, p float64) float64 {
	return n*n*n/p + 2*pr.Tw*n*n/(math.Sqrt(p)*log2(p)) + pr.Ts*log2(p)/2
}

// PaperGKAllPortTp is Eq. (17):
// Tp = n³/p + ts·log p + 9·tw·n²/(p^(2/3)·log p) + 6·(n/p^(1/3))·sqrt(ts·tw).
func PaperGKAllPortTp(pr Params, n, p float64) float64 {
	return n*n*n/p + pr.Ts*log2(p) + 9*pr.Tw*n*n/(math.Pow(p, 2.0/3.0)*log2(p)) +
		6*n/math.Cbrt(p)*math.Sqrt(pr.Ts*pr.Tw)
}

// PaperGKCM5Tp is Eq. (18), the GK algorithm on the fully connected
// CM-5: Tp = n³/p + ts·(log p + 2) + tw·(n²/p^(2/3))·(log p + 2).
func PaperGKCM5Tp(pr Params, n, p float64) float64 {
	return n*n*n/p + pr.Ts*(log2(p)+2) + pr.Tw*n*n/math.Pow(p, 2.0/3.0)*(log2(p)+2)
}

// Overhead functions of Table 1 (To = p·Tp − W).

// BerntsenTo is 2·ts·p^(4/3) + (1/3)·ts·p·log p + 3·tw·n²·p^(1/3).
func BerntsenTo(pr Params, n, p float64) float64 {
	return 2*pr.Ts*math.Pow(p, 4.0/3.0) + pr.Ts*p*log2(p)/3 + 3*pr.Tw*n*n*math.Cbrt(p)
}

// CannonTo is 2·ts·p^(3/2) + 2·tw·n²·√p.
func CannonTo(pr Params, n, p float64) float64 {
	return 2*pr.Ts*math.Pow(p, 1.5) + 2*pr.Tw*n*n*math.Sqrt(p)
}

// SimpleTo is the overhead of Eq. (2): 2·ts·p·log p + 2·tw·n²·√p.
func SimpleTo(pr Params, n, p float64) float64 {
	return 2*pr.Ts*p*log2(p) + 2*pr.Tw*n*n*math.Sqrt(p)
}

// GKTo is (5/3)·ts·p·log p + (5/3)·tw·n²·p^(1/3)·log p.
func GKTo(pr Params, n, p float64) float64 {
	return 5.0/3.0*pr.Ts*p*log2(p) + 5.0/3.0*pr.Tw*n*n*math.Cbrt(p)*log2(p)
}

// ImprovedGKTo is Table 1's entry for the GK algorithm with the
// Johnsson–Ho broadcast:
// tw·n²·p^(1/3) + (1/3)·ts·p·log p + 2·n·p^(2/3)·sqrt((1/3)·ts·tw·log p).
func ImprovedGKTo(pr Params, n, p float64) float64 {
	return pr.Tw*n*n*math.Cbrt(p) + pr.Ts*p*log2(p)/3 +
		2*n*math.Pow(p, 2.0/3.0)*math.Sqrt(pr.Ts*pr.Tw*log2(p)/3)
}

// DNSTo is Table 1's entry, (ts + tw)·((5/3)·p·log p + 2·n³) — the
// p = n³ extreme of the exact overhead.
func DNSTo(pr Params, n, p float64) float64 {
	return (pr.Ts + pr.Tw) * (5.0/3.0*p*log2(p) + 2*n*n*n)
}

// DNSToExact is the overhead implied by Eq. (6) without Table 1's
// r = p simplification: (ts + tw)·(5·p·log(p/n²) + 2·n³).
func DNSToExact(pr Params, n, p float64) float64 {
	return (pr.Ts + pr.Tw) * (5*p*log2(p/(n*n)) + 2*n*n*n)
}

// SimpleAllPortTo is the overhead of Eq. (16):
// 2·tw·n²·√p/log p + (1/2)·ts·p·log p.
func SimpleAllPortTo(pr Params, n, p float64) float64 {
	return 2*pr.Tw*n*n*math.Sqrt(p)/log2(p) + pr.Ts*p*log2(p)/2
}

// GKAllPortTo is the overhead of Eq. (17):
// ts·p·log p + 9·tw·n²·p^(1/3)/log p + 6·n·p^(2/3)·sqrt(ts·tw).
func GKAllPortTo(pr Params, n, p float64) float64 {
	return pr.Ts*p*log2(p) + 9*pr.Tw*n*n*math.Cbrt(p)/log2(p) +
		6*n*math.Pow(p, 2.0/3.0)*math.Sqrt(pr.Ts*pr.Tw)
}

// Efficiency returns E = W/(W + To) for a given overhead function value.
func Efficiency(w, to float64) float64 { return w / (w + to) }

// Spec describes one of the algorithms compared in Section 6 of the
// paper: its Table 1 overhead function, its region letter in
// Figures 1–3, and its range of applicability.
type Spec struct {
	Name string
	// Letter marks the algorithm's regions in the paper's figures:
	// a = GK, b = Berntsen, c = Cannon, d = DNS.
	Letter byte
	// To is the Table 1 total overhead function.
	To func(Params, float64, float64) float64
	// Tp is the paper's parallel execution time equation.
	Tp func(Params, float64, float64) float64
	// Applicable reports whether the algorithm can run at all for the
	// given n and p (Table 1's "range of applicability").
	Applicable func(n, p float64) bool
	// Isoefficiency is the asymptotic isoefficiency function as printed
	// in Table 1.
	Isoefficiency string
}

// Specs returns the four algorithms of Table 1 in the paper's order.
func Specs() []Spec {
	return []Spec{
		{
			Name: "Berntsen", Letter: 'b',
			To: BerntsenTo, Tp: PaperBerntsenTp,
			// p ≤ n^(3/2) written as p² ≤ n³, which is exact in floating
			// point for power-of-two grids (math.Pow(n, 1.5) is not).
			Applicable:    func(n, p float64) bool { return p >= 1 && p*p <= n*n*n },
			Isoefficiency: "O(p^2)",
		},
		{
			Name: "Cannon", Letter: 'c',
			To: CannonTo, Tp: PaperCannonTp,
			Applicable:    func(n, p float64) bool { return p >= 1 && p <= n*n },
			Isoefficiency: "O(p^1.5)",
		},
		{
			Name: "GK", Letter: 'a',
			To: GKTo, Tp: PaperGKTp,
			Applicable:    func(n, p float64) bool { return p >= 1 && p <= n*n*n },
			Isoefficiency: "O(p (log p)^3)",
		},
		{
			Name: "DNS", Letter: 'd',
			To: DNSTo, Tp: PaperDNSTp,
			Applicable:    func(n, p float64) bool { return p >= n*n && p <= n*n*n },
			Isoefficiency: "O(p log p)",
		},
	}
}
