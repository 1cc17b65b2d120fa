// Package iso implements the isoefficiency machinery of Sections 3 and
// 5: the fixed-point solver for W = K·To(W, p) (Equation 1), the
// concurrency-limited isoefficiency of algorithms that cannot use more
// than h(W) processors, and numeric growth-exponent estimation used to
// confirm the asymptotic entries of Table 1.
package iso

import (
	"fmt"
	"math"
)

// K returns the constant K = E/(1−E) of Equation (1) for a target
// efficiency E ∈ (0, 1).
func K(e float64) float64 {
	if e <= 0 || e >= 1 {
		panic(fmt.Sprintf("iso: efficiency %v outside (0,1)", e))
	}
	return e / (1 - e)
}

// SolveW solves Equation (1), W = K·To(W, p), for the problem size W at
// fixed p and target efficiency e. The overhead function is expressed
// in terms of the matrix dimension n (W = n³, Section 5). It returns
// the fixed point and ok=false if the iteration fails to converge
// (which happens only for overhead functions growing at least as fast
// as W itself, i.e. unscalable systems).
func SolveW(to func(n, p float64) float64, p, e float64) (float64, bool) {
	k := K(e)
	n := 1.0
	for i := 0; i < 10000; i++ {
		w := k * to(n, p)
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return 0, false
		}
		next := math.Cbrt(w)
		if math.Abs(next-n) <= 1e-13*next {
			w = next * next * next
			// Scalability check: the fixed point is only meaningful if
			// efficiency improves with problem size there, i.e. To/W is
			// locally decreasing. Overheads growing as fast as W (or
			// faster) have degenerate fixed points the isoefficiency
			// analysis rejects (Section 3).
			n2 := math.Cbrt(2 * w)
			if to(n2, p)/(2*w) >= to(next, p)/w*(1-1e-12) {
				return 0, false
			}
			return w, true
		}
		n = next
	}
	return 0, false
}

// SolveN is SolveW returning the matrix dimension n = W^(1/3)
// instead of the operation count W (flops).
func SolveN(to func(n, p float64) float64, p, e float64) (float64, bool) {
	w, ok := SolveW(to, p, e)
	if !ok {
		return 0, false
	}
	return math.Cbrt(w), true
}

// ConcurrencyW returns the problem size W (flops) forced by a
// concurrency limit:
// if an algorithm can use at most maxProcs(n) processors, then W must
// grow as the inverse of that bound. maxProcs must be strictly
// increasing; the inverse is found by bisection on n.
func ConcurrencyW(maxProcs func(n float64) float64, p float64) float64 {
	lo, hi := 1.0, 2.0
	for maxProcs(hi) < p {
		hi *= 2
		if hi > 1e150 {
			panic("iso: concurrency bound never reaches p")
		}
	}
	for i := 0; i < 200 && hi-lo > 1e-12*hi; i++ {
		mid := (lo + hi) / 2
		if maxProcs(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	n := (lo + hi) / 2
	return n * n * n
}

// OverallW combines the communication isoefficiency (Equation 1) with a
// concurrency limit: the overall isoefficiency is whichever requires W
// to grow faster (Section 5).
func OverallW(to func(n, p float64) float64, maxProcs func(n float64) float64, p, e float64) (float64, bool) {
	w, ok := SolveW(to, p, e)
	if !ok {
		return 0, false
	}
	return math.Max(w, ConcurrencyW(maxProcs, p)), true
}

// GrowthExponent estimates x in W(p) ≈ c·p^x by least-squares fit of
// log W against log p over geometrically spaced samples in [pLo, pHi].
// Polylogarithmic factors inflate the estimate slightly above the
// power; the Table 1 verification tests account for that.
func GrowthExponent(w func(p float64) float64, pLo, pHi float64, samples int) float64 {
	if samples < 2 {
		panic("iso: need at least two samples")
	}
	var sx, sy, sxx, sxy float64
	for i := 0; i < samples; i++ {
		f := float64(i) / float64(samples-1)
		p := pLo * math.Pow(pHi/pLo, f)
		x := math.Log(p)
		y := math.Log(w(p))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	nf := float64(samples)
	return (nf*sxy - sx*sy) / (nf*sxx - sx*sx)
}

// MaxEfficiencyDNS returns the efficiency ceiling of the DNS algorithm
// (Section 5.3): the 2·(ts+tw)·n³ term of its overhead grows exactly
// as fast as W, so E can never exceed 1/(1 + 2(ts+tw)) no matter how
// large the problem.
func MaxEfficiencyDNS(ts, tw float64) float64 {
	return 1 / (1 + 2*(ts+tw))
}

// SimpleAllPortGranularityW is the smallest problem size W, in flops,
// at which the simple algorithm's messages are large enough to use all
// hypercube channels simultaneously (Section 7):
// W ≥ (1/8)·p^1.5·(log p)³. These floors are what make all-port
// communication scale no better than one-port.
func SimpleAllPortGranularityW(p float64) float64 {
	l := math.Log2(p)
	return math.Pow(p, 1.5) * l * l * l / 8
}

// GKAllPortGranularityW is the GK algorithm's all-port floor on the
// problem size W, in flops (Section 7): W ≥ p·(log p)³; see
// SimpleAllPortGranularityW.
func GKAllPortGranularityW(p float64) float64 {
	l := math.Log2(p)
	return p * l * l * l
}
