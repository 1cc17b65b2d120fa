package experiments

import (
	"fmt"
	"math"
	"strings"

	"matscale/internal/core"
	"matscale/internal/iso"
	"matscale/internal/model"
	"matscale/internal/regions"
	"matscale/internal/tech"
)

// CrossoverReport reproduces the Section 6 pairwise analysis for a
// machine: the Eq. (15) GK/Cannon threshold at several processor
// counts, the universal GK-beats-Cannon cutoff, and where (if
// anywhere) the DNS algorithm becomes useful.
func CrossoverReport(pr model.Params) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Section 6 — pairwise crossovers (ts=%g, tw=%g)\n", pr.Ts, pr.Tw)
	sb.WriteString("GK vs Cannon equal-overhead matrix size n_EqualTo(p) (Eq. 15):\n")
	for _, pe := range []int{6, 8, 10, 12, 14, 16} {
		p := math.Pow(2, float64(pe))
		if n, ok := regions.NEqualToGKCannon(pr, p); ok {
			fmt.Fprintf(&sb, "  p=2^%-3d n_EqualTo = %8.1f  (GK better below, Cannon above)\n", pe, n)
		} else {
			fmt.Fprintf(&sb, "  p=2^%-3d no crossing (GK better for every n)\n", pe)
		}
	}
	fmt.Fprintf(&sb, "GK's tw overhead term beats Cannon's for every n beyond p ≈ %.3g (paper: 1.3e8)\n", regions.GKBeatsCannonAlways())
	if p, ok := regions.DNSUsefulFrom(pr, model.DNSTo, 50); ok {
		fmt.Fprintf(&sb, "DNS first beats GK somewhere in range at p = %.3g (Table 1 overheads)\n", p)
	} else {
		sb.WriteString("DNS never beats GK within range for p ≤ 2^50 (Table 1 overheads)\n")
	}

	sb.WriteString("\nEqual-overhead boundary curves (the figures' plain lines); first name wins below:\n")
	boundaries := regions.PairwiseBoundaries(pr, 24)
	fmt.Fprintf(&sb, "%24s", "pair \\ p")
	samples := []int{3, 7, 11, 15, 19, 23} // 2^4, 2^8, ..., 2^24
	for _, i := range samples {
		fmt.Fprintf(&sb, " %10.0f", boundaries[0].P[i])
	}
	sb.WriteByte('\n')
	for _, b := range boundaries {
		fmt.Fprintf(&sb, "%24s", b.X+" vs "+b.Y)
		for _, i := range samples {
			if math.IsNaN(b.N[i]) {
				fmt.Fprintf(&sb, " %10s", "-")
			} else {
				fmt.Fprintf(&sb, " %10.3g", b.N[i])
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// AllPortReport reproduces the Section 7 conclusion: simultaneous
// communication on all hypercube ports reduces the communication
// closed forms but the message-size floor needed to fill the channels
// forces the problem to grow at least as fast as the one-port
// isoefficiency — so overall scalability does not improve.
func AllPortReport(pr model.Params) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Section 7 — all-port communication (ts=%g, tw=%g)\n", pr.Ts, pr.Tw)

	rows := []struct {
		name     string
		onePort  func(model.Params, float64, float64) float64
		allPort  func(model.Params, float64, float64) float64
		granular func(p float64) float64
	}{
		{"Simple", model.SimpleTo, model.SimpleAllPortTo, iso.SimpleAllPortGranularityW},
		{"GK", model.GKTo, model.GKAllPortTo, iso.GKAllPortGranularityW},
	}
	// isoW is the problem size holding E = 0.5 under overhead to on p
	// processors, NaN where none does.
	isoW := func(to func(model.Params, float64, float64) float64) func(p float64) float64 {
		return func(p float64) float64 {
			v, ok := iso.SolveW(func(n, q float64) float64 { return to(pr, n, q) }, p, 0.5)
			if !ok {
				return math.NaN()
			}
			return v
		}
	}
	for _, r := range rows {
		wOne, wComm := isoW(r.onePort), isoW(r.allPort)
		wAll := func(p float64) float64 {
			// Overall all-port isoefficiency: communication fixed point
			// or the granularity floor, whichever is larger.
			return math.Max(wComm(p), r.granular(p))
		}
		xOne := iso.GrowthExponent(wOne, 1<<16, 1<<30, 20)
		xComm := iso.GrowthExponent(wComm, 1<<16, 1<<30, 20)
		xAll := iso.GrowthExponent(wAll, 1<<16, 1<<30, 20)
		fmt.Fprintf(&sb, "%-8s one-port W~p^%.2f | all-port comm-only W~p^%.2f | all-port with message floor W~p^%.2f\n",
			r.name, xOne, xComm, xAll)
		if xAll < xOne-0.05 {
			fmt.Fprintf(&sb, "  UNEXPECTED: all-port appears more scalable than one-port\n")
		} else {
			fmt.Fprintf(&sb, "  -> all-port does not improve the overall isoefficiency (paper's conclusion)\n")
		}
	}
	return sb.String()
}

// TechnologyReport reproduces Section 8: the problem-growth factors
// for k-fold more processors vs k-fold faster processors for each
// algorithm.
func TechnologyReport(pr model.Params, p, e, k float64) (string, error) {
	rows, err := tech.Compare(pr, p, e, k)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Section 8 — %gx more processors vs %gx faster processors (ts=%g, tw=%g, p=%g, E=%g)\n",
		k, k, pr.Ts, pr.Tw, p, e)
	fmt.Fprintf(&sb, "%-10s %-22s %-22s %s\n", "Algorithm", "W growth (more procs)", "W growth (faster procs)", "cheaper path")
	for _, r := range rows {
		path := "faster processors"
		if r.MoreProcessorsBetter {
			path = "more processors"
		}
		fmt.Fprintf(&sb, "%-10s %-22.1f %-22.1f %s\n", r.Algorithm, r.MoreProcsFactor, r.FasterProcsFactor, path)
	}
	return sb.String(), nil
}

// ImprovedGKReport compares the naive-broadcast GK algorithm with the
// Johnsson–Ho variant of Section 5.4.1 across message sizes, showing
// the granularity threshold beyond which the optimized broadcast wins.
// The sizes start at the GK row's NStep(p) and double up to 512; a p
// with no cube grid fails with ErrNoProcessorGrid.
func ImprovedGKReport(pr model.Params, p int) (string, error) {
	gk, _ := core.Lookup("gk")
	q := gk.NStep(p)
	if q == 0 {
		return "", fmt.Errorf("experiments: %w for %s at p=%d", ErrNoProcessorGrid, gk.Name, p)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Section 5.4.1 — GK with Johnsson–Ho broadcast (ts=%g, tw=%g, p=%d)\n", pr.Ts, pr.Tw, p)
	fmt.Fprintf(&sb, "%8s %14s %14s %s\n", "n", "Tp naive", "Tp improved", "winner")
	for n := q; n <= 512; n *= 2 {
		naive := model.ExactGKTp(pr, n, p)
		improved := model.ExactGKImprovedTp(pr, n, p)
		winner := "naive"
		if improved < naive {
			winner = "improved"
		}
		fmt.Fprintf(&sb, "%8d %14.1f %14.1f %s\n", n, naive, improved, winner)
	}
	return sb.String(), nil
}
