// Package tech implements the Section 8 analysis: how the
// isoefficiency of the matrix multiplication algorithms depends on
// technology factors — the communication constants ts and tw — and the
// paper's "more processors vs. faster processors" comparison.
//
// The key observation: tw enters the dominant isoefficiency term of
// most of the algorithms cubed (W ∝ K³·tw³·f(p)), so replacing the
// processors with k-times faster ones (which multiplies the *relative*
// costs ts and tw by k) forces the problem size up by k³ to hold
// efficiency, while adding k-times more processors only raises W by
// the isoefficiency function's growth in p — p^1.5 for Cannon's
// algorithm, so 10× the processors needs a 31.6× problem where 10×
// faster processors need a 1000× problem.
package tech

import (
	"fmt"

	"matscale/internal/core"
	"matscale/internal/iso"
	"matscale/internal/model"
)

// ToFunc is an overhead function in the model package's signature.
type ToFunc func(model.Params, float64, float64) float64

// WAtEfficiency returns the problem size holding efficiency e on p
// processors under the given overhead function and machine constants.
func WAtEfficiency(pr model.Params, to ToFunc, p, e float64) (float64, error) {
	w, ok := iso.SolveW(func(n, q float64) float64 { return to(pr, n, q) }, p, e)
	if !ok {
		return 0, fmt.Errorf("tech: no problem size holds efficiency %v at p=%v", e, p)
	}
	return w, nil
}

// Factors returns the factors by which the problem size must grow to
// hold efficiency e on p processors when the machine gets k times as
// many processors (more), or k-times faster ones on the same network
// (faster), which scales the normalized ts and tw by k (Section 8). It
// solves the base problem size once for both.
func Factors(pr model.Params, to ToFunc, p, e, k float64) (more, faster float64, err error) {
	w1, err := WAtEfficiency(pr, to, p, e)
	if err != nil {
		return 0, 0, err
	}
	wMore, err := WAtEfficiency(pr, to, k*p, e)
	if err != nil {
		return 0, 0, err
	}
	wFaster, err := WAtEfficiency(model.Params{Ts: k * pr.Ts, Tw: k * pr.Tw}, to, p, e)
	if err != nil {
		return 0, 0, err
	}
	return wMore / w1, wFaster / w1, nil
}

// Tradeoff compares the two upgrade paths for one algorithm: it
// returns the problem-growth factors for k-fold more processors and
// for k-fold faster processors, and whether more processors is the
// cheaper path (the smaller required problem growth).
type Tradeoff struct {
	Algorithm            string
	K                    float64
	MoreProcsFactor      float64
	FasterProcsFactor    float64
	MoreProcessorsBetter bool
}

// Compare evaluates the tradeoff for every Table 1 algorithm at the
// given operating point.
func Compare(pr model.Params, p, e, k float64) ([]Tradeoff, error) {
	var out []Tradeoff
	for _, f := range core.Formulations {
		if f.Table1 == nil {
			continue
		}
		more, faster, err := Factors(pr, f.Table1.To, p, e, k)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.Name, err)
		}
		out = append(out, Tradeoff{
			Algorithm:            f.Name,
			K:                    k,
			MoreProcsFactor:      more,
			FasterProcsFactor:    faster,
			MoreProcessorsBetter: more < faster,
		})
	}
	return out, nil
}
