package core

import (
	"matscale/internal/collective"
	"matscale/internal/machine"
	"matscale/internal/matrix"
	"matscale/internal/simulator"
	"matscale/internal/topology"
)

const (
	tagFoxBcast       = 400
	tagFoxShift       = 450
	tagFoxBarrier     = 460
	tagFoxAsyncRelay  = 440
	tagFoxAsyncShift  = 445
	tagFoxMeshRelay   = 470
	tagFoxMeshShift   = 480
	tagFoxMeshBarrier = 490
	tagFoxPktBase     = 4000
	tagFoxPktShift    = 3900
	tagFoxPktBarrier  = 3950
)

// foxVariant is one row of the Fox family: the parts in which the
// Section 4.3 variants differ. The iteration they share is foxImpl's.
type foxVariant struct {
	name string
	// bcast is the Cost of the row broadcast in the variant's timed
	// skeleton on m's q×q mesh of bs×bs blocks; the wave tier runs it
	// when the machine allows. It is non-nil for the hypercube-broadcast
	// variants (Fox and FoxPipelined) only: they need a power-of-two
	// mesh side, and B rolls even on a single processor, where the relay
	// variants, which have no skeleton, skip it.
	bcast func(m *machine.Machine, q, bs int) simulator.Cost
	// rowA delivers iteration t's A block from mesh column root to
	// every rank of r's row. payload is the root's block on the root
	// and nil elsewhere; a non-root gets a received copy back.
	rowA     func(r meshRank, t, root int, payload []float64) []float64
	shiftTag int
	// barrierTag is the tag of iteration t's closing barrier; nil lets
	// the iterations overlap across processors (FoxAsync).
	barrierTag func(t int) int
}

// Fox implements Fox's algorithm (Section 4.3) on a √p × √p mesh. The
// algorithm runs in √p iterations; in iteration t, processor
// (i, (i+t) mod √p) broadcasts its A block along mesh row i, every
// processor multiplies the received block with its resident B block,
// and B rolls one step north.
//
// This variant performs the row broadcast as a binomial tree on the
// hypercube (the "more sophisticated scheme" mentioned in Section 4.3).
// With lockstep iterations its measured time is exactly
//
//	Tp = n³/p + √p·(ts + tw·n²/p)·(log₂√p + 1)
//
// which is worse than Cannon's algorithm by the log factor, as the
// paper observes.
func Fox(m *machine.Machine, a, b *matrix.Dense) (*Result, error) {
	return foxImpl(m, a, b, foxBinomial)
}

// foxBinomial is Fox's variant: a binomial-tree row broadcast.
var foxBinomial = foxVariant{
	name:  "Fox",
	bcast: func(*machine.Machine, int, int) simulator.Cost { return simulator.Cost{} }, // binomial tree
	rowA: func(r meshRank, t, root int, payload []float64) []float64 {
		return collective.Broadcast(r.pr, r.row, root, tagFoxBcast+t, payload)
	},
	shiftTag:   tagFoxShift,
	barrierTag: func(int) int { return tagFoxBarrier },
}

// FoxPipelined is the pipelined variant whose run time the paper cites
// as Eq. (4): the root sends its block along the row in small packets,
// overlapping transmission across the row. The broadcast is charged
// the pipeline cost ts·√p + tw·n²/p per iteration, giving exactly
//
//	Tp = n³/p + ts·(p + √p) + 2·tw·n²/√p
//
// (Eq. (4) drops the lower-order ts·√p contributed by the shifts.)
func FoxPipelined(m *machine.Machine, a, b *matrix.Dense) (*Result, error) {
	return foxImpl(m, a, b, foxPipelined)
}

// foxPipelined is FoxPipelined's variant: the row broadcast charged the
// machine's pipeline cost.
var foxPipelined = foxVariant{
	name:  "FoxPipelined",
	bcast: func(m *machine.Machine, q, bs int) simulator.Cost { return simulator.Charged(foxPipeline(m, q, bs)) },
	rowA: func(r meshRank, t, root int, payload []float64) []float64 {
		return collective.BroadcastCharged(r.pr, r.row, root, tagFoxBcast+t, payload, foxPipeline(r.pr.Machine(), r.q, r.bs))
	},
	shiftTag:   tagFoxShift,
	barrierTag: func(int) int { return tagFoxBarrier },
}

// foxPipeline is the pipelined row broadcast's charge on m's q×q mesh
// of bs×bs blocks, pipeline fill plus transmission: ts·√p + tw·n²/p.
func foxPipeline(m *machine.Machine, q, bs int) float64 {
	return m.Ts*float64(q) + m.Tw*float64(bs*bs)
}

// FoxMesh is Fox's algorithm on a wraparound mesh without any
// broadcast hardware assist (the first variant Section 4.3 analyzes):
// in each of the √p iterations the root's A block is relayed processor
// to processor along the mesh row — √p−1 store-and-forward hops — and
// B rolls one step north. With lockstep iterations the measured time
// is exactly the expression the paper derives for the mesh,
//
//	Tp = n³/p + tw·n² + ts·p
//
// (per iteration: (√p−1)·(ts + tw·n²/p) for the relay plus one shift,
// i.e. √p·(ts + tw·n²/p), times √p iterations).
func FoxMesh(m *machine.Machine, a, b *matrix.Dense) (*Result, error) {
	return foxImpl(m, a, b, foxVariant{
		name:       "FoxMesh",
		rowA:       foxRelay(tagFoxMeshRelay),
		shiftTag:   tagFoxMeshShift,
		barrierTag: func(int) int { return tagFoxMeshBarrier },
	})
}

// FoxAsync is the asynchronous execution of Fox's algorithm that
// Section 4.3 describes: "in every iteration, a processor starts
// performing its computation as soon as it has all the required data,
// and does not wait for the entire broadcast to finish." Each
// processor forwards the relayed A block onward *before* multiplying,
// and no barrier separates the iterations, so the row relay pipelines
// across iterations and computation overlaps the broadcast chain
// downstream.
//
// The paper claims this brings Fox's algorithm "to almost a factor of
// two of Cannon's algorithm"; the tests verify that the measured time
// lands between Cannon's and twice Cannon's for compute-dominated
// configurations, far below the synchronized mesh relay.
func FoxAsync(m *machine.Machine, a, b *matrix.Dense) (*Result, error) {
	return foxImpl(m, a, b, foxVariant{
		name:     "FoxAsync",
		rowA:     foxRelay(tagFoxAsyncRelay),
		shiftTag: tagFoxAsyncShift,
	})
}

// FoxPacketPipelined is Fox's pipelined variant realized with genuine
// packet pipelining (no closed-form charging): in each iteration the
// root streams its A block along the mesh row in optimally sized
// packets (collective.BroadcastPipelinedChain), each relay forwarding
// every packet on receipt — the mechanism behind Eq. (4)'s bound. B
// rolls north as usual. Its measured time sits between Cannon's and
// the synchronized relay's, tracking the charged FoxPipelined model.
func FoxPacketPipelined(m *machine.Machine, a, b *matrix.Dense) (*Result, error) {
	return foxImpl(m, a, b, foxVariant{
		name: "FoxPacketPipelined",
		rowA: func(r meshRank, t, root int, payload []float64) []float64 {
			// The chain runs root, root+1, ..., around the row.
			chain := make([]int, r.q)
			for x := range chain {
				chain[x] = r.row[(root+x)%r.q]
			}
			packets := collective.OptimalPackets(m.Ts, m.Tw, r.bs*r.bs, r.q)
			return collective.BroadcastPipelinedChain(r.pr, chain, tagFoxPktBase+t*64, payload, packets)
		},
		shiftTag:   tagFoxPktShift,
		barrierTag: func(t int) int { return tagFoxPktBarrier + t },
	})
}

// foxRelay returns the row delivery of the relay variants: the root's
// A block travels processor to processor, root → root+1 → ... →
// root+q−1 (mod q), each rank forwarding it before it multiplies, so
// the relay races ahead of the computation wave.
func foxRelay(tag int) func(r meshRank, t, root int, payload []float64) []float64 {
	return func(r meshRank, t, root int, payload []float64) []float64 {
		ablk := payload
		if r.j != root {
			ablk = r.pr.Recv(r.row[(r.j+r.q-1)%r.q], tag+t)
		}
		if (r.j+1)%r.q != root {
			// Copy semantics: ablk is still consumed by the multiply.
			r.pr.SendNeighbor(r.row[(r.j+1)%r.q], tag+t, ablk)
		}
		return ablk
	}
}

// foxImpl runs the Fox iteration shared by every variant: in iteration
// t, mesh column (i+t) mod √p delivers its A block along row i, every
// processor multiplies it into its C block, B rolls one step north, and
// the variant's barrier closes the iteration. A variant with a skeleton
// runs on the event engine's wave tier when the simulator takes it, as
// a rank program otherwise.
func foxImpl(m *machine.Machine, a, b *matrix.Dense, v foxVariant) (*Result, error) {
	if v.bcast != nil {
		res, ok, err := onWave(m, a, b, v.name, v.skeleton, func(q int) *matrix.Dense {
			return cannonProduct(a, b, q, foxSkew)
		})
		if ok || err != nil {
			return res, err
		}
	} else if _, _, err := meshSide(m, a, b, ""); err != nil {
		return nil, err
	}
	n, q := a.Rows, topology.IntSqrt(m.P())
	return onMesh(m, a, b, n, q, v.name, func(r meshRank, blkA, blkB *matrix.Dense) *matrix.Dense {
		pr, bs := r.pr, r.bs
		myA, myB := blockData(blkA), blockData(blkB)
		c := matrix.New(bs, bs)
		for t := 0; t < r.q; t++ {
			root := (r.i + t) % r.q
			var payload []float64
			if r.j == root {
				payload = myA
			}
			ablk := v.rowA(r, t, root, payload)
			matrix.MulAddInto(c, blockFrom(ablk, bs, bs), blockFrom(myB, bs, bs))
			pr.Compute(float64(bs) * float64(bs) * float64(bs))
			if r.j != root {
				pr.Recycle(ablk) // received copy, consumed above
			}

			if v.bcast != nil || r.q > 1 {
				// Roll B one step north; the outgoing block dies here, so
				// it rides the ownership-transfer fast path.
				pr.SendNeighborOwned(r.mesh.Up(pr.Rank()), v.shiftTag, myB)
				myB = pr.Recv(r.mesh.Down(pr.Rank()), v.shiftTag)
			}

			if v.barrierTag != nil {
				// The paper's accounting treats iterations as lockstep.
				collective.BarrierFree(pr, r.everyone, v.barrierTag(t))
			}
		}
		return c
	})
}

// skeleton is the timed skeleton of foxImpl's rank program for a
// broadcast variant on the q×q mesh of (n/q)×(n/q) blocks: q unrolled
// iterations of {row broadcast from column (i+t) mod q charging the
// variant's cost, compute, B rolled up, barrier}, then the verification
// gather. The iterations differ only in their broadcast roots.
func (v foxVariant) skeleton(m *machine.Machine, n int) (simulator.Skeleton, int, error) {
	q, err := squareSide(n, m.P(), "core: Fox needs a power-of-two mesh side, got %d")
	if err != nil {
		return simulator.Skeleton{}, 0, err
	}
	bs := n / q
	cost := v.bcast(m, q, bs)
	mesh := topology.NewTorus2D(q, q)
	words := bs * bs
	rows := make([][]int, q)
	for i := range rows {
		rows[i] = mesh.RowRanks(i)
	}
	steps := make([]simulator.Step, 0, 4*q+1)
	for t := 0; t < q; t++ {
		roots := make([]int, q)
		for i := range roots {
			roots[i] = (i + t) % q
		}
		steps = append(steps,
			simulator.Broadcast{Words: words, Groups: rows, Roots: roots, Cost: cost},
			simulator.Compute{Flops: float64(bs) * float64(bs) * float64(bs)},
			simulator.Shift{Words: words, Dst: mesh.Up},
			simulator.Barrier{},
		)
	}
	return simulator.Skeleton{P: q * q, Steps: append(steps, simulator.Gather{Words: words})}, q, nil
}
