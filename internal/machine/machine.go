// Package machine defines the communication cost model of the paper
// (Section 2): transferring a message of m words between adjacent
// processors takes ts + tw·m time, where ts is the message startup time
// and tw the per-word transfer time, both normalized so that one basic
// arithmetic operation (a floating-point multiply plus add) takes unit
// time.
//
// A Machine couples a Topology with the cost parameters, a routing
// discipline (store-and-forward charges every hop; cut-through charges
// a single ts + tw·m regardless of distance, the regime the paper
// assumes for Cannon's alignment step), and the one-port/all-port
// distinction of Section 7.
package machine

import (
	"fmt"

	"matscale/internal/faults"
	"matscale/internal/topology"
)

// Routing selects how multi-hop messages are charged.
type Routing int

const (
	// StoreAndForward charges (ts + tw·m) per hop — the discipline under
	// which the paper derives the DNS and GK stage costs (messages are
	// relayed in log p^(1/3) steps).
	StoreAndForward Routing = iota
	// CutThrough charges ts + tw·m independent of distance — the regime
	// the paper assumes when it ignores Cannon's alignment cost and
	// when it models the CM-5 as fully connected.
	CutThrough
)

func (r Routing) String() string {
	switch r {
	case StoreAndForward:
		return "store-and-forward"
	case CutThrough:
		return "cut-through"
	default:
		return fmt.Sprintf("Routing(%d)", int(r))
	}
}

// Backend selects the simulation engine that executes rank programs on
// a machine: the discrete-event engine (a central virtual-time event
// loop resuming rank coroutines one at a time, the default) or the
// goroutine engine (one OS-scheduled goroutine per rank, blocking
// mailboxes). The two produce byte-identical results for a fixed
// configuration — the cost model is schedule-independent — so the
// choice is purely about host performance and scale; see
// docs/BACKENDS.md. The selection rides on the Machine for the same
// reason the observability flags do: it is the one context every
// algorithm entry point receives, and it changes no measured quantity.
type Backend int

const (
	// BackendEvents is the default engine: sequential discrete-event
	// simulation, which scales to rank counts (p ≈ 2^20) far beyond
	// the goroutine engine's reach and is the only engine that can
	// checkpoint.
	BackendEvents Backend = iota
	// BackendGoroutines is the concurrent engine, an explicit opt-in:
	// one free-running host goroutine per rank.
	BackendGoroutines
	// backendCount bounds the valid Backend values for Validate.
	backendCount
)

func (b Backend) String() string {
	switch b {
	case BackendGoroutines:
		return "goroutines"
	case BackendEvents:
		return "events"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// Known reports whether b is one of the defined Backend values.
func (b Backend) Known() bool {
	return b >= 0 && b < backendCount
}

// ParseBackend parses the textual backend names the CLI accepts:
// "goroutines" and "events".
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "goroutines":
		return BackendGoroutines, nil
	case "events":
		return BackendEvents, nil
	}
	return 0, fmt.Errorf("machine: unknown backend %q (have: goroutines, events)", s)
}

// Machine is a parallel computer: a topology plus the normalized cost
// parameters of the paper.
type Machine struct {
	Topo topology.Topology
	Ts   float64 // message startup time, in flop units
	Tw   float64 // per-word transfer time, in flop units
	// Th is the per-hop switching latency under cut-through routing:
	// a transfer of m words over h hops costs ts + th·h + tw·m. The
	// paper's analysis takes th ≈ 0 (it "can be ignored with respect
	// to" the startup time on machines of its era); the parameter is
	// exposed for studying routers where it is not negligible.
	Th      float64
	Routing Routing
	// AllPort permits simultaneous communication on all channels of a
	// processor (Section 7). One-port machines serialize transfers.
	AllPort bool
	// TrackContention makes the simulator serialize transfers that
	// share a physical link (e-cube routes on hypercubes, dimension-
	// order routes on meshes). The paper's model assumes contention-
	// free communication; the algorithms it analyzes route on disjoint
	// links by construction, and enabling this flag verifies that: their
	// measured times do not change. Programs that do collide incur
	// waiting time, reported in simulator.Result.ContentionWait.
	TrackContention bool
	// CollectMetrics asks the simulator to build the per-rank/per-link
	// breakdown of the run (simulator.Result.Metrics). Observability
	// flags ride on the Machine because it is the one context every
	// algorithm entry point receives; collecting charges zero virtual
	// time and changes no measured quantity.
	CollectMetrics bool
	// CollectTrace asks the simulator to record the per-processor event
	// history (simulator.Result.Trace) for timeline rendering and
	// Chrome-trace export. Zero virtual cost.
	CollectTrace bool
	// Backend selects the simulation engine that executes rank programs
	// on this machine (events by default). See the Backend type.
	Backend Backend
	// Faults, when non-nil, perturbs the machine deterministically:
	// per-rank compute slowdowns, per-link ts/tw perturbation, and
	// probabilistic message loss repaired by timeout + bounded retry.
	// All draws derive from the config's seed, so a fixed (machine,
	// faults, program) triple reproduces byte-identical runs. See
	// internal/faults and docs/FAULTS.md.
	Faults *faults.Config
	// Checkpoint, when non-nil, asks a checkpoint-capable backend to
	// suspend and/or resume the run at a consistent cut. It rides on
	// the Machine for the same reason the observability flags do: the
	// Machine is the one context every entry point receives, and
	// checkpointing changes no measured quantity — a resumed run is
	// byte-identical to an uninterrupted one. Backends without the
	// capability reject a non-nil Checkpoint with a typed error
	// (simulator.UnsupportedCapabilityError) instead of ignoring it.
	Checkpoint *CheckpointControl
}

// CheckpointControl instructs a checkpoint-capable backend when to cut
// a run and where to deliver or pick up the snapshot. The encoded
// snapshot format is owned by internal/checkpoint; this struct is
// plain data so the machine package stays dependency-free.
type CheckpointControl struct {
	// StopAfter, when nonzero, suspends the run at the consistent cut
	// reached after exactly StopAfter event-loop dispatches. The run
	// then returns a simulator.SuspendedError carrying the snapshot.
	// A run that completes in fewer dispatches finishes normally.
	StopAfter uint64
	// Resume, when non-nil, holds an encoded snapshot a previous run
	// suspended with; the backend restores it and verifies the restored
	// state byte-for-byte against the snapshot before continuing.
	Resume []byte
	// Sink, when non-nil, receives the encoded snapshot at suspension,
	// before the run returns. A sink error fails the run.
	Sink func(snapshot []byte, events uint64) error
}

// WithFaults returns a copy of m running under the fault scenario f
// (nil clears it). The receiver is not mutated, mirroring how the
// observability flags are layered on by the Run API.
func (m *Machine) WithFaults(f *faults.Config) *Machine {
	mm := *m
	mm.Faults = f
	return &mm
}

// WithBackend returns a copy of m whose rank programs execute on the
// given simulation backend. The receiver is not mutated; results are
// byte-identical across backends, so the copy changes host behavior
// only.
func (m *Machine) WithBackend(b Backend) *Machine {
	mm := *m
	mm.Backend = b
	return &mm
}

// WithCost returns a copy of m with the given ts and tw cost constants
// (flop units). The receiver is not mutated: cost constants are
// read-only once a machine is constructed (enforced by the clockguard
// analyzer), so configured variants are always derived as copies.
func (m *Machine) WithCost(ts, tw float64) *Machine {
	mm := *m
	mm.Ts = ts
	mm.Tw = tw
	return &mm
}

// WithAllPort returns a copy of m in the all-port (on=true) or one-port
// communication regime of Section 7. Like WithCost, it derives a copy
// because the regime selects how every subsequent ts + tw·m transfer is
// charged.
func (m *Machine) WithAllPort(on bool) *Machine {
	mm := *m
	mm.AllPort = on
	return &mm
}

// Route returns the ordered node sequence of the path a message from
// src to dst takes, excluding src itself: dimension-order (e-cube) on
// hypercubes and 3-D grids, x-then-y on meshes, direct elsewhere. Used
// by contention tracking.
func (m *Machine) Route(src, dst int) []int {
	if src == dst {
		return nil
	}
	switch t := m.Topo.(type) {
	case topology.Hypercube:
		var out []int
		cur := src
		for d := 0; d < t.Dim; d++ {
			if (src^dst)&(1<<d) != 0 {
				cur ^= 1 << d
				out = append(out, cur)
			}
		}
		return out
	case topology.Torus2D:
		si, sj := t.Coords(src)
		di, dj := t.Coords(dst)
		var out []int
		ci, cj := si, sj
		for cj != dj {
			cj = stepWrap(cj, dj, t.C)
			out = append(out, t.RankAt(ci, cj))
		}
		for ci != di {
			ci = stepWrap(ci, di, t.R)
			out = append(out, t.RankAt(ci, cj))
		}
		return out
	default:
		return []int{dst}
	}
}

// stepWrap moves cur one step toward dst along the shorter wraparound
// direction of a ring of size n.
func stepWrap(cur, dst, n int) int {
	fwd := ((dst-cur)%n + n) % n
	if fwd <= n-fwd {
		return (cur + 1) % n
	}
	return (cur - 1 + n) % n
}

// Validate reports configuration errors.
func (m *Machine) Validate() error {
	if m.Topo == nil {
		return fmt.Errorf("machine: no topology")
	}
	if m.Ts < 0 || m.Tw < 0 || m.Th < 0 {
		return fmt.Errorf("machine: negative cost parameters ts=%v tw=%v th=%v", m.Ts, m.Tw, m.Th)
	}
	if m.Backend < 0 || m.Backend >= backendCount {
		return fmt.Errorf("machine: unknown backend %v", m.Backend)
	}
	if err := m.Faults.Validate(); err != nil {
		return err
	}
	if c := m.Checkpoint; c != nil && c.StopAfter == 0 && c.Resume == nil {
		return fmt.Errorf("machine: checkpoint control with neither StopAfter nor Resume does nothing; drop it or set one")
	}
	return nil
}

// P returns the number of processors.
func (m *Machine) P() int { return m.Topo.Size() }

// MsgTime returns the virtual time to move words from src to dst,
// applying any configured link fault perturbation.
func (m *Machine) MsgTime(words, src, dst int) float64 {
	if src == dst {
		return 0
	}
	return m.MsgTimeOn(words, m.Topo.Distance(src, dst), src, dst)
}

// MsgTimeHops returns the virtual time for a transfer of the given word
// count over the given number of hops under the machine's routing, at
// the machine's nominal (unperturbed) ts/tw. The paper's closed-form
// predictions are stated in these nominal constants; fault-aware
// charging goes through MsgTime or MsgTimeOn.
func (m *Machine) MsgTimeHops(words, hops int) float64 {
	return m.msgTimeWith(m.Ts, m.Tw, words, hops)
}

// MsgTimeOn returns the transfer time of words over hops hops on the
// directed logical link src → dst, applying the link's fault
// perturbation (if any) to the ts and tw components.
func (m *Machine) MsgTimeOn(words, hops, src, dst int) float64 {
	ts, tw := m.PairTsTw(src, dst)
	return m.msgTimeWith(ts, tw, words, hops)
}

// PairTsTw returns the effective (ts, tw) for transfers on the directed
// link src → dst: the machine's nominal constants scaled by the fault
// configuration's latency/bandwidth factors and per-link jitter.
func (m *Machine) PairTsTw(src, dst int) (float64, float64) {
	if m.Faults == nil {
		return m.Ts, m.Tw
	}
	latF, bwF := m.Faults.LinkFactors(src, dst)
	return m.Ts * latF, m.Tw * bwF
}

func (m *Machine) msgTimeWith(ts, tw float64, words, hops int) float64 {
	if hops <= 0 {
		return 0
	}
	per := ts + tw*float64(words)
	if m.Routing == CutThrough {
		return per + m.Th*float64(hops)
	}
	return float64(hops) * per
}

// String summarizes the machine for reports.
func (m *Machine) String() string {
	port := "one-port"
	if m.AllPort {
		port = "all-port"
	}
	s := fmt.Sprintf("%s ts=%g tw=%g %s %s", m.Topo.Name(), m.Ts, m.Tw, m.Routing, port)
	if m.Faults.Enabled() {
		s += fmt.Sprintf(" faults[%s]", m.Faults)
	}
	return s
}
