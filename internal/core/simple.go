package core

import (
	"matscale/internal/collective"
	"matscale/internal/machine"
	"matscale/internal/matrix"
	"matscale/internal/simulator"
)

const (
	tagSimpleRowGather = 100
	tagSimpleColGather = 200
)

// Simple implements the memory-inefficient algorithm of Section 4.1 on
// a √p × √p processor mesh: an all-to-all broadcast of the A blocks
// along mesh rows and of the B blocks along mesh columns, followed by
// the √p local block multiplications.
//
// Measured parallel time (the paper's Eq. (2) with the recursive-
// doubling all-gather cost written out exactly):
//
//	Tp = n³/p + 2·( ts·log₂√p + tw·(n²/p)·(√p − 1) )
func Simple(m *machine.Machine, a, b *matrix.Dense) (*Result, error) {
	return simpleImpl(m, a, b, "Simple", collective.AllGather, collective.AllGather)
}

// SimpleAllPort is the Section 7.1 variant on a hypercube with
// simultaneous communication on all ports: the all-to-all broadcasts
// cost ts·log√p + tw·(n²/p)·√p/log√p each, and the broadcasts of A and
// B proceed simultaneously so only one is charged (Eq. 16).
func SimpleAllPort(m *machine.Machine, a, b *matrix.Dense) (*Result, error) {
	return simpleImpl(m, a, b, "SimpleAllPort", collective.AllGatherAllPort, collective.AllGatherFree)
}

// simpleImpl runs the simple algorithm with the all-gathers of the A
// block row and the B block column.
func simpleImpl(m *machine.Machine, a, b *matrix.Dense, name string, gatherRow, gatherCol func(*simulator.Proc, []int, int, []float64) []float64) (*Result, error) {
	n, q, err := meshSide(m, a, b, "")
	if err != nil {
		return nil, err
	}
	return onMesh(m, a, b, n, q, name, func(r meshRank, myA, myB *matrix.Dense) *matrix.Dense {
		pr, bs := r.pr, r.bs

		// Phase 1: every processor acquires the full block row of A and
		// block column of B it needs.
		rowA := gatherRow(pr, r.row, tagSimpleRowGather, blockData(myA))
		colB := gatherCol(pr, r.col, tagSimpleColGather, blockData(myB))

		// Phase 2: C_ij = Σ_k A_ik · B_kj, √p block multiplications of
		// bs³ unit operations each.
		c := matrix.New(bs, bs)
		for k := 0; k < q; k++ {
			ak := blockFrom(rowA[k*bs*bs:(k+1)*bs*bs], bs, bs)
			bk := blockFrom(colB[k*bs*bs:(k+1)*bs*bs], bs, bs)
			matrix.MulAddInto(c, ak, bk)
			pr.Compute(float64(bs) * float64(bs) * float64(bs))
		}
		pr.Recycle(rowA)
		pr.Recycle(colB)
		return c
	})
}
