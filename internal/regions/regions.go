// Package regions reproduces the Section 6 analysis: for a given
// machine (ts, tw), which of the four algorithms — Berntsen (b),
// Cannon (c), GK (a), DNS (d) — has the smallest total overhead at each
// point of the (p, n) plane, honoring each algorithm's range of
// applicability (Table 1). Figures 1, 2 and 3 of the paper are maps of
// these regions for three machines; Compute regenerates them and
// Render draws them the way the paper letters them, with x marking the
// infeasible region p > n³.
package regions

import (
	"fmt"
	"math"
	"strings"

	"matscale/internal/core"
	"matscale/internal/model"
)

// Infeasible marks grid points where p > n³ and no algorithm applies.
const Infeasible = 'x'

// Serial marks p = 1, where every formulation degenerates to the
// serial algorithm and the overhead comparison is meaningless.
const Serial = 's'

// Best returns the paper's letter for the algorithm with the smallest
// Table 1 overhead at (n, p) among those applicable there; a tie goes
// to the row earlier in Table 1's order.
func Best(pr model.Params, n, p float64) byte {
	if p <= 1 {
		return Serial
	}
	best := byte(Infeasible)
	bestTo := math.Inf(1)
	for _, f := range core.Formulations {
		if s := f.Table1; s != nil && s.Applicable(n, p) {
			if to := s.To(pr, n, p); to < bestTo {
				bestTo = to
				best = s.Letter
			}
		}
	}
	return best
}

// Map is a computed region map over a log₂ grid. Cell (i, j) covers
// n = 2^NExp[i], p = 2^PExp[j].
type Map struct {
	Params model.Params
	PExp   []int
	NExp   []int
	Cells  [][]byte // Cells[i][j] for (NExp[i], PExp[j])
}

// Compute evaluates the best algorithm over p = 2^0..2^pMaxExp and
// n = 2^0..2^nMaxExp.
func Compute(pr model.Params, pMaxExp, nMaxExp int) *Map {
	m := &Map{Params: pr}
	for e := 0; e <= pMaxExp; e++ {
		m.PExp = append(m.PExp, e)
	}
	for e := 0; e <= nMaxExp; e++ {
		m.NExp = append(m.NExp, e)
	}
	m.Cells = make([][]byte, len(m.NExp))
	for i, ne := range m.NExp {
		row := make([]byte, len(m.PExp))
		for j, pe := range m.PExp {
			row[j] = Best(pr, math.Pow(2, float64(ne)), math.Pow(2, float64(pe)))
		}
		m.Cells[i] = row
	}
	return m
}

// Render draws the map with n increasing upward and p rightward, in
// the paper's lettering.
func (m *Map) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Regions of superiority (ts=%g, tw=%g): a=GK b=Berntsen c=Cannon d=DNS x=infeasible\n", m.Params.Ts, m.Params.Tw)
	for i := len(m.NExp) - 1; i >= 0; i-- {
		fmt.Fprintf(&sb, "n=2^%-3d |", m.NExp[i])
		for _, c := range m.Cells[i] {
			sb.WriteByte(' ')
			sb.WriteByte(c)
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("        +")
	for range m.PExp {
		sb.WriteString("--")
	}
	sb.WriteByte('\n')
	sb.WriteString("         ")
	for _, pe := range m.PExp {
		if pe%5 == 0 {
			fmt.Fprintf(&sb, "%-10s", fmt.Sprintf("p=2^%d", pe))
		}
	}
	sb.WriteByte('\n')
	return sb.String()
}

// CSV emits the map as comma-separated cells with log₂p column headers
// and log₂n row labels, n increasing downward.
func (m *Map) CSV() string {
	var sb strings.Builder
	sb.WriteString("log2_n\\log2_p")
	for _, pe := range m.PExp {
		fmt.Fprintf(&sb, ",%d", pe)
	}
	sb.WriteByte('\n')
	for i, ne := range m.NExp {
		fmt.Fprintf(&sb, "%d", ne)
		for _, c := range m.Cells[i] {
			fmt.Fprintf(&sb, ",%c", c)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// NEqualToGKCannon is the paper's Eq. (15): the matrix size at which
// the GK and Cannon overheads coincide for a given p,
//
//	n = sqrt( ((5/3)·p·log p − 2·p^(3/2))·ts / ((2·√p − (5/3)·p^(1/3)·log p)·tw) )
//
// Returns ok=false when the expression has no real solution (the two
// overheads do not cross at that p).
func NEqualToGKCannon(pr model.Params, p float64) (float64, bool) {
	l := math.Log2(p)
	num := (5.0/3.0*p*l - 2*math.Pow(p, 1.5)) * pr.Ts
	den := (2*math.Sqrt(p) - 5.0/3.0*math.Cbrt(p)*l) * pr.Tw
	if den == 0 {
		return 0, false
	}
	v := num / den
	if v < 0 {
		return 0, false
	}
	return math.Sqrt(v), true
}

// GKBeatsCannonAlways returns the processor count beyond which the GK
// algorithm's tw overhead term is smaller than Cannon's for every n —
// the "cut-off point" of Section 6, p ≈ 130 million: it solves
// (5/3)·p^(1/3)·log p = 2·√p.
func GKBeatsCannonAlways() float64 {
	f := func(p float64) float64 { return 5.0/3.0*math.Cbrt(p)*math.Log2(p) - 2*math.Sqrt(p) }
	// f > 0 for moderate p (GK worse), f < 0 beyond the cutoff.
	lo, hi := 1e4, 1e12
	for i := 0; i < 200; i++ {
		mid := math.Sqrt(lo * hi)
		if f(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Sqrt(lo * hi)
}

// PairBoundary is one sampled equal-overhead curve between two of the
// paper's algorithms — the plain "X vs Y" lines of Figures 1–3.
type PairBoundary struct {
	X, Y string // algorithm names; X has the smaller overhead below the curve
	// N[i] is the crossing matrix size at P[i]; NaN where the two
	// overheads do not cross.
	P []float64
	N []float64
}

// PairwiseBoundaries samples the equal-overhead curves of every pair
// of Table 1 algorithms over p = 2^1..2^pMaxExp. For each pair (X, Y)
// listed in Table 1 order, X's overhead is smaller for n below the
// returned curve.
func PairwiseBoundaries(pr model.Params, pMaxExp int) []PairBoundary {
	var out []PairBoundary
	for i, f := range core.Formulations {
		for _, g := range core.Formulations[i+1:] {
			if f.Table1 == nil || g.Table1 == nil {
				continue
			}
			// Fix the orientation ("X better below the curve") from the
			// overheads at a small problem on few processors.
			x, y := f, g
			if x.Table1.To(pr, 2, 4) > y.Table1.To(pr, 2, 4) {
				x, y = y, x
			}
			b := PairBoundary{X: x.Name, Y: y.Name}
			toX, toY := x.Table1.To, y.Table1.To
			for e := 1; e <= pMaxExp; e++ {
				p := math.Pow(2, float64(e))
				b.P = append(b.P, p)
				n, ok := model.NEqualTo(pr, toX, toY, p, 1e15)
				if !ok {
					n = math.NaN()
				}
				b.N = append(b.N, n)
			}
			out = append(out, b)
		}
	}
	return out
}

// DNSUsefulFrom returns the smallest power-of-two processor count at
// which the DNS algorithm beats the GK algorithm for at least one
// matrix size within DNS's applicability range n² ≤ p ≤ n³, using the
// given DNS overhead function (model.DNSTo for Table 1's form, or
// model.DNSToExact for the unsimplified Eq. (6) overhead). Section 6
// claims that with ts = 10·tw DNS is worse than GK "for up to almost
// 10,000 processors for any problem size"; both overhead forms confirm
// the claim (the crossing is in fact far later).
func DNSUsefulFrom(pr model.Params, dnsTo func(model.Params, float64, float64) float64, pMaxExp int) (float64, bool) {
	for e := 1; e <= pMaxExp; e++ {
		p := math.Pow(2, float64(e))
		// Scan n over the DNS range [p^(1/3), √p].
		nLo, nHi := math.Cbrt(p), math.Sqrt(p)
		for i := 0; i <= 64; i++ {
			n := nLo * math.Pow(nHi/nLo, float64(i)/64)
			if dnsTo(pr, n, p) < model.GKTo(pr, n, p) {
				return p, true
			}
		}
	}
	return 0, false
}
