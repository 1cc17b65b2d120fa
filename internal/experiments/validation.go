package experiments

import (
	"fmt"
	"math"
	"strings"

	"matscale/internal/core"
	"matscale/internal/iso"
	"matscale/internal/model"
	"matscale/internal/regions"
	"matscale/internal/sweep"
	"matscale/internal/topology"
)

// IsoPoint is one step of an isoefficiency validation run: the problem
// size the Equation (1) solver prescribes for the target efficiency at
// p processors, and the efficiency the simulator then actually
// delivers at that size.
type IsoPoint struct {
	P         int
	N         int     // prescribed matrix size, rounded to a runnable one
	ETarget   float64 // requested efficiency
	EMeasured float64 // simulated efficiency at (N, P)
}

// IsoefficiencyValidation closes the paper's central loop in
// simulation: Section 3 claims that growing W along the isoefficiency
// function holds the efficiency constant as p grows. For the chosen
// algorithm ("cannon" or "gk") it solves W = K·To(W, p) at each
// processor count, rounds the prescribed n to the nearest runnable
// size, runs the real algorithm on the simulator, and reports the
// measured efficiencies — which stay at the target up to rounding.
// Each p is a one-cell sweep on a hypercube with pr's constants.
func IsoefficiencyValidation(pr model.Params, target float64, algorithm string, ps []int) ([]IsoPoint, error) {
	var side func(p int) int // structural divisor of n
	// The overhead To(n, p): for both algorithms the Table 1 form equals
	// the implementation's exact overhead, smooth in continuous n.
	var to func(pr model.Params, n, p float64) float64
	switch algorithm {
	case "cannon":
		side, to = topology.IntSqrt, model.CannonTo
	case "gk":
		side, to = topology.IntCbrt, model.GKTo
	default:
		return nil, fmt.Errorf("experiments: unknown algorithm %q", algorithm)
	}

	out := make([]IsoPoint, len(ps))
	for i, p := range ps {
		cont := func(n, q float64) float64 { return to(pr, n, q) }
		nReal, ok := iso.SolveN(cont, float64(p), target)
		if !ok {
			return nil, fmt.Errorf("experiments: no isoefficiency fixed point at p=%d", p)
		}
		s := side(p)
		n := int(math.Round(nReal/float64(s))) * s
		if n < s {
			n = s
		}
		cells, err := runCells(sweep.Spec{
			Algorithms: []string{algorithm}, Machines: []string{"custom"},
			Ts: pr.Ts, Tw: pr.Tw, Ps: []int{p}, Ns: []int{n},
		}, 0)
		if err != nil {
			return nil, err
		}
		out[i] = IsoPoint{P: p, N: n, ETarget: target, EMeasured: cells[0].Efficiency}
	}
	return out, nil
}

// RenderIso formats an isoefficiency validation run.
func RenderIso(algorithm string, pts []IsoPoint) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Isoefficiency validation — %s: grow W per Equation (1), efficiency should hold\n", algorithm)
	fmt.Fprintf(&sb, "%8s %8s %10s %10s\n", "p", "n", "E target", "E simulated")
	for _, pt := range pts {
		fmt.Fprintf(&sb, "%8d %8d %10.3f %10.3f\n", pt.P, pt.N, pt.ETarget, pt.EMeasured)
	}
	return sb.String()
}

// PredictionOutcome records one cell of the prediction cross-
// validation: the algorithm Section 6's overhead comparison predicts
// and the one that actually won the simulated race.
type PredictionOutcome struct {
	N, P              int
	Predicted, Actual string
	PredictedTp       float64 // Tp of the predicted algorithm
	BestTp            float64 // Tp of the actual winner
}

// Regret is how much slower the predicted algorithm was than the true
// winner (1 = perfect prediction).
func (o PredictionOutcome) Regret() float64 { return o.PredictedTp / o.BestTp }

// PredictionAccuracy cross-validates the paper's Section 6 methodology
// end to end: over a grid of runnable (n, p) configurations it races
// every applicable algorithm on the simulator and compares the actual
// winner with the Table 1 overhead prediction. The returned outcomes
// let callers check both the hit rate and the regret of misses. The
// races are one sweep of the Table 1 formulations over ps × ns on a
// hypercube with pr's constants, a cell the formulation rejects
// counting as inapplicable. Its cells run on workers host goroutines
// (≤ 0: all CPUs); the outcomes, in (p, n) grid order, are identical
// for every worker count.
func PredictionAccuracy(pr model.Params, ns, ps []int, workers int) ([]PredictionOutcome, error) {
	var table1 []core.Formulation
	var keys []string
	for _, f := range core.Formulations {
		if f.Table1 != nil {
			table1, keys = append(table1, f), append(keys, f.Key)
		}
	}
	res, err := sweep.Run(&sweep.Spec{
		Algorithms: keys, Machines: []string{"custom"},
		Ts: pr.Ts, Tw: pr.Tw, Ps: ps, Ns: ns,
	}, sweep.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	type at struct {
		alg  string
		n, p int
	}
	tps := map[at]float64{}
	for _, r := range res.Cells {
		if r.Err == "" { // else structurally inapplicable here
			tps[at{r.Algorithm, r.N, r.P}] = r.Tp
		}
	}

	var out []PredictionOutcome
	for _, p := range ps {
		for _, n := range ns {
			// Scan in the fixed order of Table 1, not over a map: when
			// two algorithms tie on Tp the winner must not depend on
			// map iteration order (caught by nodetbreak).
			ran := 0
			best, bestTp := "", math.Inf(1)
			pred := "" // no prediction on serial or infeasible cells
			predTp, predRan := 0.0, false
			predLetter := regions.Best(pr, float64(n), float64(p))
			for _, f := range table1 {
				tp, ok := tps[at{f.Key, n, p}]
				if ok {
					ran++
					if tp < bestTp {
						best, bestTp = f.Name, tp
					}
				}
				if f.Table1.Letter == predLetter {
					pred, predTp, predRan = f.Name, tp, ok
				}
			}
			// Skip cells with nothing to predict between, and cells where
			// there is no prediction or the predicted algorithm can't run
			// this exact configuration (divisibility), matching how a real
			// chooser would fall back.
			if ran < 2 || !predRan {
				continue
			}
			out = append(out, PredictionOutcome{
				N: n, P: p, Predicted: pred, Actual: best,
				PredictedTp: predTp, BestTp: bestTp,
			})
		}
	}
	return out, nil
}

// RenderPrediction summarizes a cross-validation run.
func RenderPrediction(outcomes []PredictionOutcome) string {
	var sb strings.Builder
	hits := 0
	worst := 1.0
	for _, o := range outcomes {
		if o.Predicted == o.Actual {
			hits++
		} else if r := o.Regret(); r > worst {
			worst = r
		}
	}
	fmt.Fprintf(&sb, "Section 6 prediction cross-validation: %d/%d cells predicted correctly (worst regret %.2fx)\n",
		hits, len(outcomes), worst)
	fmt.Fprintf(&sb, "%6s %6s %10s %10s %8s\n", "n", "p", "predicted", "actual", "regret")
	for _, o := range outcomes {
		fmt.Fprintf(&sb, "%6d %6d %10s %10s %8.2f\n", o.N, o.P, o.Predicted, o.Actual, o.Regret())
	}
	return sb.String()
}
