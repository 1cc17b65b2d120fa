package collective

import (
	"fmt"
	"math"

	"matscale/internal/simulator"
)

// Personalized communication operations on hypercube-embedded groups,
// following Johnsson & Ho [20] (the reference the paper draws its
// communication costs from). AllToAll performs a full personalized
// exchange (the transpose primitive); AllReduce composes ReduceScatter
// with AllGather.

// AllToAll performs the complete personalized exchange: every member
// passes one m-word message per member (concatenated in group-index
// order, g·m words total) and receives the g·m words addressed to it,
// ordered by source. The hypercube algorithm exchanges half of the
// current holdings across each dimension: cost
// (ts + tw·m·g/2)·log g. Packet bookkeeping headers travel at zero
// cost (they are control information the closed form does not charge).
func AllToAll(pr *simulator.Proc, group []int, tag int, data []float64) []float64 {
	d := log2Size(len(group))
	idx := indexIn(group, pr.Rank())
	g := len(group)
	if len(data)%g != 0 {
		panic(fmt.Sprintf("collective: AllToAll length %d not divisible by group size %d", len(data), g))
	}
	m := len(data) / g

	type packet struct {
		src, dst int
	}
	hold := make([]packet, g)
	payload := make(map[packet][]float64, g)
	for j := 0; j < g; j++ {
		hold[j] = packet{src: idx, dst: j}
		payload[hold[j]] = data[j*m : (j+1)*m]
	}
	// Received bodies are dismantled into payload sub-slices; the parent
	// buffers are recycled together once everything is copied out.
	var recvd [][]float64

	for s := d - 1; s >= 0; s-- {
		partner := idx ^ (1 << s)
		var keep, send []packet
		for _, pk := range hold {
			if (pk.dst>>s)&1 != (idx>>s)&1 {
				send = append(send, pk)
			} else {
				keep = append(keep, pk)
			}
		}
		// Header (free control info): the (src, dst) pairs in order.
		hdr := make([]float64, 0, 2*len(send))
		body := make([]float64, 0, m*len(send))
		for _, pk := range send {
			hdr = append(hdr, float64(pk.src), float64(pk.dst))
			body = append(body, payload[pk]...)
			delete(payload, pk)
		}
		// hdr and body are freshly assembled and die after the send, so
		// both ride the ownership-transfer fast path.
		pr.SendFreeOwned(group[partner], tag+2*s, hdr)
		pr.SendNeighborOwned(group[partner], tag+2*s+1, body)
		inHdr := pr.Recv(group[partner], tag+2*s)
		inBody := pr.Recv(group[partner], tag+2*s+1)
		hold = keep
		for i := 0; i < len(inHdr); i += 2 {
			pk := packet{src: int(inHdr[i]), dst: int(inHdr[i+1])}
			hold = append(hold, pk)
			payload[pk] = inBody[i/2*m : (i/2+1)*m]
		}
		pr.Recycle(inHdr)
		recvd = append(recvd, inBody)
	}

	out := make([]float64, g*m)
	// Each packet copies into its own disjoint out[pk.src*m:...] slot,
	// so iteration order cannot affect the result; the Sprintf only
	// feeds the routing assertion.
	for pk, body := range payload { //nodetbreak:ordered — disjoint copy targets
		if pk.dst != idx {
			panic(fmt.Sprintf("collective: AllToAll routing error: packet for %d at %d", pk.dst, idx))
		}
		copy(out[pk.src*m:(pk.src+1)*m], body)
	}
	for _, b := range recvd {
		pr.Recycle(b)
	}
	return out
}

// AllToAllTime is the critical-path cost of AllToAll for per-pair
// message size m.
func AllToAllTime(ts, tw float64, m, g int) float64 {
	d := log2Size(g)
	return float64(d) * (ts + tw*float64(m)*float64(g)/2)
}

// BroadcastPipelinedChain broadcasts data from chain[0] along the
// chain by genuine packet pipelining: the message splits into the
// given number of packets, each relay forwards packet i as soon as it
// has it, and transmission of packet i+1 overlaps the downstream
// forwarding of packet i. This is the real mechanism behind the
// pipelined broadcast bounds the paper cites (Fox's pipelined variant,
// and the packetization underlying Johnsson–Ho): the measured
// completion time is exactly
//
//	(packets + len(chain) − 2) · (ts + tw·⌈m/packets⌉)
//
// for packet-aligned messages. Every member returns the full data.
func BroadcastPipelinedChain(pr *simulator.Proc, chain []int, tag int, data []float64, packets int) []float64 {
	if packets < 1 {
		panic("collective: need at least one packet")
	}
	idx := indexIn(chain, pr.Rank())
	if len(chain) == 1 {
		return data
	}
	if idx == 0 {
		m := len(data)
		per := (m + packets - 1) / packets
		for k := 0; k < packets; k++ {
			lo := k * per
			hi := lo + per
			if lo > m {
				lo = m
			}
			if hi > m {
				hi = m
			}
			pr.SendNeighbor(chain[1], tag+k, data[lo:hi])
		}
		return data
	}
	var buf []float64
	for k := 0; k < packets; k++ {
		pkt := pr.Recv(chain[idx-1], tag+k)
		buf = append(buf, pkt...)
		if idx+1 < len(chain) {
			// The local copy into buf is done, so the packet buffer is
			// forwarded downstream without another copy. Appending first
			// charges no virtual time: only the send advances the clock.
			pr.SendNeighborOwned(chain[idx+1], tag+k, pkt)
		} else {
			pr.Recycle(pkt)
		}
	}
	return buf
}

// PipelinedChainTime is the completion time of BroadcastPipelinedChain
// for packet-aligned messages (packets | m).
func PipelinedChainTime(ts, tw float64, m, chainLen, packets int) float64 {
	if chainLen <= 1 {
		return 0
	}
	per := (m + packets - 1) / packets
	return float64(packets+chainLen-2) * (ts + tw*float64(per))
}

// OptimalPackets returns the packet count minimizing
// PipelinedChainTime: k* = sqrt(tw·m·(chainLen−2)/ts), clamped to
// [1, m].
func OptimalPackets(ts, tw float64, m, chainLen int) int {
	if m <= 1 || chainLen <= 2 || ts <= 0 {
		if m < 1 {
			return 1
		}
		if ts <= 0 && m > 1 && chainLen > 2 {
			return m // free startups: one word per packet
		}
		return 1
	}
	k := int(math.Sqrt(tw * float64(m) * float64(chainLen-2) / ts))
	if k < 1 {
		k = 1
	}
	if k > m {
		k = m
	}
	return k
}

// AllReduce sums the members' equal-length vectors and returns the
// full sum on every member, composed as reduce-scatter followed by
// all-gather (the bandwidth-optimal pairing). The vector length must
// be divisible by the group size. Cost:
// 2·ts·log g + 2·tw·m·(1 − 1/g).
func AllReduce(pr *simulator.Proc, group []int, tag int, data []float64) []float64 {
	g := len(group)
	if g == 1 {
		out := make([]float64, len(data))
		copy(out, data)
		return out
	}
	slice, _ := ReduceScatter(pr, group, tag, data)
	// ReduceScatter leaves member idx with the idx·(m/g) slice, which is
	// exactly AllGather's group-index concatenation order.
	return AllGather(pr, group, tag+64, slice)
}

// AllReduceTime is the critical-path cost of AllReduce for total
// vector length m.
func AllReduceTime(ts, tw float64, m, g int) float64 {
	if g == 1 {
		return 0
	}
	return ReduceScatterTime(ts, tw, m, g) + AllGatherTime(ts, tw, m/g, g)
}
