package core

import (
	"testing"

	"matscale/internal/machine"
)

// TestAllFormulationsStressP64 runs every formulation at its largest
// valid processor count ≤ 64, in parallel subtests and for several
// rounds, with the product checked bit-exactly against the serial
// kernel each time. The point is not the equations (the exactness
// tests cover those) but the messaging hot path: 64 goroutines give
// the pooled zero-copy sends, buffer recycling, and sharded mailboxes
// real concurrency to go wrong under — the -race run of this test is
// the enforcement of the buffer ownership contract. It is pinned to the
// goroutine engine: the event engine runs one rank at a time and has
// no concurrency to race.
func TestAllFormulationsStressP64(t *testing.T) {
	cases := []struct {
		name string
		alg  Algorithm
		n, p int
	}{
		{"Simple", Simple, 16, 64},
		{"SimpleAllPort", SimpleAllPort, 16, 64},
		{"SimpleMemEfficientAllPort", SimpleMemEfficientAllPort, 16, 64},
		{"Cannon", Cannon, 16, 64},
		{"Fox", Fox, 16, 64},
		{"FoxPipelined", FoxPipelined, 16, 64},
		{"FoxAsync", FoxAsync, 16, 64},
		{"FoxMesh", FoxMesh, 16, 64},
		{"FoxPacketPipelined", FoxPacketPipelined, 16, 64},
		{"Berntsen", Berntsen, 16, 64},
		{"DNS", DNS, 8, 64},
		{"GK", GK, 16, 64},
		{"GKImprovedBroadcast", GKImprovedBroadcast, 16, 64},
		{"GKAllPort", GKAllPort, 16, 64},
	}
	rounds := 3
	if testing.Short() {
		rounds = 1
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel() // formulations stress the pools against each other too
			for r := 0; r < rounds; r++ {
				m := machine.Hypercube(c.p, 17, 3)
				m.Backend = machine.BackendGoroutines
				runCase(t, c.name, c.alg, m, c.n)
			}
		})
	}
}
