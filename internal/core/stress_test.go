package core

import (
	"testing"

	"matscale/internal/machine"
)

// TestAllFormulationsStressP64 runs every formulation on 64 processors
// at the n of its standard test cell, in parallel subtests and for several
// rounds, with the product checked bit-exactly against the serial
// kernel each time. The point is not the equations (the exactness
// tests cover those) but the messaging hot path: 64 goroutines give
// the pooled zero-copy sends, buffer recycling, and sharded mailboxes
// real concurrency to go wrong under — the -race run of this test is
// the enforcement of the buffer ownership contract. It is pinned to the
// goroutine engine: the event engine runs one rank at a time and has
// no concurrency to race.
func TestAllFormulationsStressP64(t *testing.T) {
	rounds := 3
	if testing.Short() {
		rounds = 1
	}
	for _, f := range Formulations {
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel() // formulations stress the pools against each other too
			for r := 0; r < rounds; r++ {
				m := machine.Hypercube(64, 17, 3)
				m.Backend = machine.BackendGoroutines
				runCase(t, f.Name, f.Run, m, f.Checks[0].N) // DNS's n = 8 keeps p ≥ n²
			}
		})
	}
}
