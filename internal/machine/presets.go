package machine

import (
	"fmt"

	"matscale/internal/topology"
)

// Presets for the machines the paper analyzes. The figures of Section 6
// use three (ts, tw) pairs; Section 9 normalizes CM-5 measurements to
// flop units.

// CM5 timing constants measured by the paper (Section 9): 1.53 µs per
// multiply-add, 380 µs message startup, 1.8 µs per 4-byte word.
const (
	CM5FlopMicros    = 1.53
	CM5StartupMicros = 380.0
	CM5PerWordMicros = 1.8
)

// preset is a named machine of the paper: its cost constants and the
// network they run on, a store-and-forward hypercube or the fully
// connected cut-through network of the CM-5.
type preset struct {
	ts, tw    float64
	hypercube bool
}

func (pr preset) new(p int) *Machine {
	if pr.hypercube {
		return Hypercube(p, pr.ts, pr.tw)
	}
	return fullyConnected(p, pr.ts, pr.tw)
}

// presets maps the names the CLI's -machine flag and sweep specs
// accept to their machines.
var presets = map[string]preset{
	"ncube2": {150, 3, true},
	"fast":   {10, 3, true},
	"simd":   {0.5, 3, true},
	"cm5":    {CM5StartupMicros / CM5FlopMicros, CM5PerWordMicros / CM5FlopMicros, false},
}

// LookupPreset resolves a machine preset name: "ncube2", "fast",
// "simd", "cm5", or "custom" (a store-and-forward hypercube with the
// caller's ts and tw). It returns the preset's constructor and the ts
// and tw, in flop units, its machines carry — without building a
// topology. ok is false for an unknown name. The constructor returns
// an error naming the preset for a processor count its network cannot
// have: below one, or not a power of two on a hypercube.
func LookupPreset(name string, ts, tw float64) (build func(p int) (*Machine, error), pts, ptw float64, ok bool) {
	pr, ok := presets[name]
	if name == "custom" {
		pr, ok = preset{ts, tw, true}, true
	}
	if !ok {
		return nil, 0, 0, false
	}
	build = func(p int) (*Machine, error) {
		if p < 1 {
			return nil, fmt.Errorf("machine: preset %q needs p ≥ 1, got p = %d", name, p)
		}
		if _, pow2 := topology.Log2(p); pr.hypercube && !pow2 {
			return nil, fmt.Errorf("machine: preset %q is a hypercube, and p = %d is not a power of two", name, p)
		}
		return pr.new(p), nil
	}
	return build, pr.ts, pr.tw, true
}

// NCube2 returns a hypercube with tw = 3 and ts = 150, the
// nCUBE-2-like machine of Figure 1.
func NCube2(p int) *Machine { return presets["ncube2"].new(p) }

// FutureHypercube returns a hypercube with tw = 3 and ts = 10, the
// faster-CPU machine of Figure 2.
func FutureHypercube(p int) *Machine { return presets["fast"].new(p) }

// SIMD returns a hypercube with tw = 3 and ts = 0.5, the CM-2-like
// machine of Figure 3.
func SIMD(p int) *Machine { return presets["simd"].new(p) }

// CM5 returns a fully connected machine with the paper's measured CM-5
// constants normalized to unit flop time (Section 9): ts ≈ 248.4,
// tw ≈ 1.176.
func CM5(p int) *Machine { return presets["cm5"].new(p) }

func fullyConnected(p int, ts, tw float64) *Machine {
	return &Machine{Topo: topology.NewFullyConnected(p), Ts: ts, Tw: tw, Routing: CutThrough}
}

// Hypercube returns a store-and-forward hypercube with arbitrary cost
// parameters.
func Hypercube(p int, ts, tw float64) *Machine {
	return &Machine{Topo: topology.NewHypercube(p), Ts: ts, Tw: tw, Routing: StoreAndForward}
}

// Mesh returns a √p × √p wraparound mesh (torus) with store-and-forward
// routing — the architecture on which Section 4.3 derives Fox's
// algorithm's mesh running time and on which Cannon's algorithm
// performs identically to the hypercube (Section 4.4's observation).
func Mesh(p int, ts, tw float64) *Machine {
	return &Machine{Topo: topology.NewSquareTorus(p), Ts: ts, Tw: tw, Routing: StoreAndForward}
}
