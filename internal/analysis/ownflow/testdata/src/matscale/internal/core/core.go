// Package core is an ownflow fixture: its import path matches a real
// ownership-classified package, so every function here runs under the
// full buffer-ownership dataflow.
package core

import "matscale/internal/simulator"

// --- positive cases -------------------------------------------------

// useAfterSend is the seeded use-after-SendOwned bug: the buffer was
// handed to the runtime, then read.
func useAfterSend(pr *simulator.Proc) float64 {
	buf := pr.Recv(0, 1)
	pr.SendOwned(1, 2, buf)
	return buf[0] // want `use of buf after its ownership was transferred`
}

// mayUseAfterSend transfers on only one path; the merge point still
// may-reads a recycled buffer.
func mayUseAfterSend(pr *simulator.Proc, cond bool) float64 {
	buf := pr.Recv(0, 1)
	if cond {
		pr.SendOwned(1, 2, buf)
	}
	return buf[0] // want `use of buf after its ownership was transferred`
}

// doubleRecycle consumes the same buffer twice.
func doubleRecycle(pr *simulator.Proc) {
	buf := pr.Recv(0, 1)
	pr.Recycle(buf)
	pr.Recycle(buf) // want `recycled twice`
}

// sendThenRecycle double-consumes across two different methods.
func sendThenRecycle(pr *simulator.Proc) {
	buf := pr.GetBuf(8)
	pr.SendNeighborOwned(1, 0, buf)
	pr.Recycle(buf) // want `transferred again by Recycle`
}

// subsliceSend pools a sub-slice of a buffer that is still read
// afterwards: the pooled slice aliases live memory.
func subsliceSend(pr *simulator.Proc, out []float64) {
	buf := pr.Recv(0, 1)
	pr.SendOwned(1, 2, buf[:4]) // want `hands a sub-slice of buf`
	copy(out, buf)
}

// droppedRecv discards a delivered buffer outright.
func droppedRecv(pr *simulator.Proc) {
	pr.Recv(0, 1) // want `result of Recv is discarded`
}

// blankRecv drops the buffer through the blank identifier.
func blankRecv(pr *simulator.Proc) {
	_ = pr.Recv(0, 1) // want `assigned to the blank identifier`
}

// leakRecv reads the buffer but never recycles it: an allocation per
// message on this path.
func leakRecv(pr *simulator.Proc) float64 {
	buf := pr.Recv(0, 1) // want `never reaches Recycle/PutBuf`
	s := 0.0
	for _, v := range buf {
		s += v
	}
	return s
}

// leakGetBuf leaks a pool checkout the same way.
func leakGetBuf(pr *simulator.Proc, n int) {
	tmp := pr.GetBuf(n) // want `never reaches Recycle/PutBuf`
	tmp[0] = 1
}

// --- suppression cases ----------------------------------------------

// reviewedDrop drops a zero-length barrier payload; the marker on the
// reported line suppresses the diagnostic.
func reviewedDrop(pr *simulator.Proc) {
	pr.Recv(0, 1) //ownflow:reviewed zero-length barrier payload, nothing to recycle
}

// reviewedAbove carries the marker on the line above the report.
func reviewedAbove(pr *simulator.Proc) float64 {
	//ownflow:reviewed buffer retained by caller-visible profiling hook
	buf := pr.Recv(0, 2)
	return buf[0]
}

// --- negative cases -------------------------------------------------

// sendThenReplace is the canonical owned-roll pattern: transfer, then
// rebind the variable to the freshly delivered buffer.
func sendThenReplace(pr *simulator.Proc, steps int) {
	buf := pr.Recv(0, 0)
	for s := 0; s < steps; s++ {
		pr.SendNeighborOwned(1, s, buf)
		buf = pr.Recv(0, s+1)
	}
	pr.Recycle(buf)
}

// branchRecycle transfers on one path but rebinds before the merge, so
// the final Recycle is single-consumption on every path.
func branchRecycle(pr *simulator.Proc, cond bool) {
	buf := pr.Recv(0, 1)
	if cond {
		pr.SendOwned(1, 2, buf)
		buf = pr.Recv(1, 3)
	}
	pr.Recycle(buf)
}

// recycleTwo recycles two distinct buffers, one each.
func recycleTwo(pr *simulator.Proc) {
	a := pr.Recv(0, 1)
	b := pr.Recv(0, 2)
	pr.Recycle(a)
	pr.Recycle(b)
}

// subsliceLastUse pools a sub-slice of a buffer that is dead
// afterwards — the gather-leaf pattern — which is legal.
func subsliceLastUse(pr *simulator.Proc) {
	buf := pr.Recv(0, 1)
	pr.SendOwned(1, 2, buf[:2])
}

// deferredRecycle recycles at function exit; uses before the deferred
// call runs are fine.
func deferredRecycle(pr *simulator.Proc) float64 {
	buf := pr.Recv(0, 1)
	defer pr.Recycle(buf)
	return buf[0]
}

// closureCapture shares a buffer with a function literal; buffers that
// cross a closure boundary are outside the per-function analysis and
// deliberately untracked.
func closureCapture(pr *simulator.Proc) {
	buf := pr.Recv(0, 1)
	done := func() { pr.Recycle(buf) }
	pr.Send(1, 2, buf)
	done()
}

// escapeReturn hands the buffer to the caller: an escape, not a leak.
func escapeReturn(pr *simulator.Proc) []float64 {
	buf := pr.Recv(0, 1)
	return buf
}

// copySendKeeps uses the copying Send, which never takes ownership.
func copySendKeeps(pr *simulator.Proc) float64 {
	buf := pr.Recv(0, 1)
	pr.Send(1, 2, buf)
	v := buf[0]
	pr.Recycle(buf)
	return v
}
