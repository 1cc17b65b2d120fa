package simulator

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"matscale/internal/machine"
)

func metricsMachine(p int, ts, tw float64) *machine.Machine {
	m := machine.Hypercube(p, ts, tw)
	m.CollectMetrics = true
	return m
}

func TestMetricsNilWithoutFlag(t *testing.T) {
	res, err := Run(machine.Hypercube(2, 1, 1), func(p *Proc) {
		p.Compute(10)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics != nil {
		t.Fatalf("Metrics = %+v, want nil without CollectMetrics", res.Metrics)
	}
}

func TestMetricsRankBreakdown(t *testing.T) {
	// Rank 0 computes 5, sends 3 words (cost ts + 3·tw = 10 + 6 = 16);
	// rank 1 waits for the message (arrival 21) then computes 4.
	res, err := Run(metricsMachine(2, 10, 2), func(p *Proc) {
		if p.Rank() == 0 {
			p.Compute(5)
			p.Send(1, 1, []float64{1, 2, 3})
		} else {
			p.Recv(0, 1)
			p.Compute(4)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	mt := res.Metrics
	if mt == nil {
		t.Fatal("Metrics nil with CollectMetrics set")
	}
	if mt.P != 2 || mt.Tp != res.Tp {
		t.Fatalf("P=%d Tp=%v, want 2, %v", mt.P, mt.Tp, res.Tp)
	}
	r0, r1 := mt.Ranks[0], mt.Ranks[1]
	if r0.Compute != 5 || r0.Send != 16 || r0.RecvWait != 0 {
		t.Fatalf("rank 0 = %+v", r0)
	}
	if r1.Compute != 4 || r1.Send != 0 || r1.RecvWait != 21 {
		t.Fatalf("rank 1 = %+v", r1)
	}
	// Per-rank budget: Compute + Send + Idle == Tp.
	for _, r := range mt.Ranks {
		if got := r.Compute + r.Send + r.Idle; got != mt.Tp {
			t.Fatalf("rank %d: compute+send+idle = %v, want Tp = %v", r.Rank, got, mt.Tp)
		}
	}
	if r0.MsgsSent != 1 || r0.WordsSent != 3 || r1.MsgsRecvd != 1 || r1.WordsRecvd != 3 {
		t.Fatalf("counts: %+v / %+v", r0, r1)
	}
}

func TestMetricsLinksChargedOnly(t *testing.T) {
	// One charged send 0→1 and one free (bookkeeping) send 1→0: only
	// the charged link may appear.
	res, err := Run(metricsMachine(2, 10, 2), func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 1, []float64{1, 2})
			p.Recv(1, 2)
		} else {
			p.Recv(0, 1)
			p.SendFree(0, 2, []float64{9})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	links := res.Metrics.Links
	if len(links) != 1 {
		t.Fatalf("links = %+v, want exactly the charged 0→1 link", links)
	}
	l := links[0]
	if l.From != 0 || l.To != 1 || l.Msgs != 1 || l.Words != 2 || l.Busy != 14 {
		t.Fatalf("link = %+v", l)
	}
	if got := l.Utilization(res.Tp); got != 14/res.Tp {
		t.Fatalf("utilization = %v", got)
	}
	// The free send still counts in the per-rank message totals.
	if r1 := res.Metrics.Ranks[1]; r1.MsgsSent != 1 || r1.WordsSent != 1 {
		t.Fatalf("rank 1 free-send counts = %+v", r1)
	}
}

func TestMetricsDerivedQuantities(t *testing.T) {
	res, err := Run(metricsMachine(2, 0, 1), func(p *Proc) {
		if p.Rank() == 0 {
			p.Compute(30)
		} else {
			p.Compute(10)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	mt := res.Metrics
	if mt.TotalCompute() != 40 || mt.TotalComm() != 0 {
		t.Fatalf("totals: compute=%v comm=%v", mt.TotalCompute(), mt.TotalComm())
	}
	if mt.TotalIdle() != 20 { // rank 1 waits 20 for rank 0 to finish
		t.Fatalf("TotalIdle = %v, want 20", mt.TotalIdle())
	}
	if mt.CriticalRank() != 0 {
		t.Fatalf("CriticalRank = %d, want 0", mt.CriticalRank())
	}
	if got := mt.LoadImbalance(); got != 1.5 { // max 30 over mean 20
		t.Fatalf("LoadImbalance = %v, want 1.5", got)
	}
	// To = p·Tp − W = 2·30 − 40 = 20 = TotalIdle here (no comm).
	if got := mt.Overhead(40); got != 20 {
		t.Fatalf("Overhead = %v, want 20", got)
	}
}

func TestMetricsCSV(t *testing.T) {
	res, err := Run(metricsMachine(2, 10, 2), func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 1, []float64{1})
		} else {
			p.Recv(0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var ranks, links bytes.Buffer
	if err := res.Metrics.WriteRanksCSV(&ranks); err != nil {
		t.Fatal(err)
	}
	if err := res.Metrics.WriteLinksCSV(&links); err != nil {
		t.Fatal(err)
	}
	rl := strings.Split(strings.TrimSpace(ranks.String()), "\n")
	if len(rl) != 3 || !strings.HasPrefix(rl[0], "rank,compute,send") {
		t.Fatalf("ranks CSV:\n%s", ranks.String())
	}
	ll := strings.Split(strings.TrimSpace(links.String()), "\n")
	if len(ll) != 2 || !strings.HasPrefix(ll[0], "from,to,msgs") {
		t.Fatalf("links CSV:\n%s", links.String())
	}
}

func TestChromeTraceRoundTrips(t *testing.T) {
	m := machine.Hypercube(2, 10, 2)
	res, tr, err := RunTraced(m, func(p *Proc) {
		if p.Rank() == 0 {
			p.Compute(5)
			p.Send(1, 1, []float64{1, 2})
		} else {
			p.Recv(0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
	var kinds = map[string]bool{}
	for _, e := range doc.TraceEvents {
		kinds[e.Ph] = true
	}
	if !kinds["X"] || !kinds["M"] {
		t.Fatalf("missing complete/metadata events; phases seen: %v", kinds)
	}
	if res.Trace == nil {
		t.Fatal("RunTraced result did not retain the trace")
	}
}

func TestMetricsZeroCostOnSimulation(t *testing.T) {
	body := func(p *Proc) {
		if p.Rank() == 0 {
			p.Compute(7)
			p.Send(1, 1, []float64{1, 2, 3})
		} else {
			p.Recv(0, 1)
			p.Compute(3)
		}
	}
	plain, err := Run(machine.Hypercube(2, 10, 2), body)
	if err != nil {
		t.Fatal(err)
	}
	observed, err := Run(metricsMachine(2, 10, 2), body)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Tp != observed.Tp || plain.Messages != observed.Messages || plain.Words != observed.Words {
		t.Fatalf("observability changed the simulation: %+v vs %+v", plain, observed)
	}
}
