package experiments

import (
	"fmt"
	"math"
	"strings"

	"matscale/internal/iso"
	"matscale/internal/machine"
	"matscale/internal/matrix"
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
// The per-p cells run on workers host goroutines (≤ 0: all CPUs); the
// points are identical for every worker count.
func IsoefficiencyValidation(pr model.Params, target float64, algorithm string, ps []int, workers int) ([]IsoPoint, error) {
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
	f, _ := sweep.Lookup(algorithm)

	out := make([]IsoPoint, len(ps))
	err := sweep.ForEach(workers, len(ps), func(i int) error {
		p := ps[i]
		cont := func(n, q float64) float64 { return to(pr, n, q) }
		nReal, ok := iso.SolveN(cont, float64(p), target)
		if !ok {
			return fmt.Errorf("experiments: no isoefficiency fixed point at p=%d", p)
		}
		s := side(p)
		n := int(math.Round(nReal/float64(s))) * s
		if n < s {
			n = s
		}
		a := matrix.Random(n, n, uint64(p))
		b := matrix.Random(n, n, uint64(p)+1)
		res, err := f.Run(machine.Hypercube(p, pr.Ts, pr.Tw), a, b)
		if err != nil {
			return err
		}
		out[i] = IsoPoint{P: p, N: n, ETarget: target, EMeasured: res.Efficiency()}
		return nil
	})
	if err != nil {
		return nil, err
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
// grid cells run on workers host goroutines (≤ 0: all CPUs); the
// outcomes are identical for every worker count — cells land in grid
// order and skipped cells are filtered in that same order.
func PredictionAccuracy(pr model.Params, ns, ps []int, workers int) ([]PredictionOutcome, error) {
	specs := model.Specs()
	type gridCell struct{ n, p int }
	var cells []gridCell
	for _, p := range ps {
		for _, n := range ns {
			cells = append(cells, gridCell{n: n, p: p})
		}
	}

	slots := make([]*PredictionOutcome, len(cells))
	err := sweep.ForEach(workers, len(cells), func(i int) error {
		n, p := cells[i].n, cells[i].p
		mach := machine.Hypercube(p, pr.Ts, pr.Tw)
		a := matrix.Random(n, n, uint64(n*p))
		b := matrix.Random(n, n, uint64(n*p)+1)
		tps := map[string]float64{}
		for _, s := range specs {
			f, _ := sweep.ByName(s.Name)
			res, err := f.Run(mach, a, b)
			if err != nil {
				continue // structurally inapplicable here
			}
			tps[s.Name] = res.Sim.Tp
		}
		if len(tps) < 2 {
			return nil // nothing to predict between
		}
		// Scan in the fixed order of Table 1, not over the tps map:
		// when two algorithms tie on Tp the winner must not depend on
		// map iteration order (caught by nodetbreak).
		best, bestTp := "", math.Inf(1)
		pred := "" // no prediction on serial or infeasible cells
		predLetter := regions.Best(pr, float64(n), float64(p))
		for _, s := range specs {
			if tp, ran := tps[s.Name]; ran && tp < bestTp {
				best, bestTp = s.Name, tp
			}
			if s.Letter == predLetter {
				pred = s.Name
			}
		}
		predTp, ran := tps[pred]
		if !ran {
			// No prediction, or the predicted algorithm can't run this
			// exact configuration (divisibility); skip the cell,
			// matching how a real chooser would fall back.
			return nil
		}
		slots[i] = &PredictionOutcome{
			N: n, P: p, Predicted: pred, Actual: best,
			PredictedTp: predTp, BestTp: bestTp,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []PredictionOutcome
	for _, o := range slots {
		if o != nil {
			out = append(out, *o)
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
