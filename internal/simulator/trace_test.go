package simulator

import (
	"strings"
	"testing"

	"matscale/internal/machine"
)

func tracedPingPong(t *testing.T) (*Result, *Trace) {
	t.Helper()
	m := twoProc(10, 1)
	m.CollectTrace = true
	res, err := Run(m, func(p *Proc) {
		if p.Rank() == 0 {
			p.Compute(5)
			p.Send(1, 3, []float64{1, 2}) // 5 → 17
			p.Recv(1, 4)                  // reply arrives at 29
		} else {
			p.Recv(0, 3)               // idle 0→17
			p.Compute(0)               // zero-length marker
			p.Send(0, 4, []float64{9}) // 17 → 28
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, res.Trace
}

func TestTraceEventsStructure(t *testing.T) {
	res, tr := tracedPingPong(t)
	if tr.P != 2 || tr.Tp != res.Tp {
		t.Fatalf("trace header %d/%v vs result %v", tr.P, tr.Tp, res.Tp)
	}
	ev0 := tr.PerRank(0)
	// compute, send, idle (17→28), recv.
	kinds := make([]EventKind, len(ev0))
	for i, e := range ev0 {
		kinds[i] = e.Kind
	}
	want := []EventKind{EventCompute, EventSend, EventIdle, EventRecv}
	if len(kinds) != len(want) {
		t.Fatalf("rank 0 kinds = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("rank 0 kinds = %v, want %v", kinds, want)
		}
	}
	if ev0[1].Start != 5 || ev0[1].End != 17 || ev0[1].Words != 2 || ev0[1].Peer != 1 {
		t.Fatalf("send event = %+v", ev0[1])
	}
	if ev0[2].Start != 17 || ev0[2].End != 28 {
		t.Fatalf("idle event = %+v", ev0[2])
	}
}

func TestTraceIntervalsConsistent(t *testing.T) {
	_, tr := tracedPingPong(t)
	for _, e := range tr.Events {
		if e.Start > e.End {
			t.Fatalf("event %+v runs backwards", e)
		}
		if e.End > tr.Tp+1e-9 {
			t.Fatalf("event %+v exceeds Tp=%v", e, tr.Tp)
		}
	}
	// Per-rank events are non-overlapping and ordered.
	for r := 0; r < tr.P; r++ {
		evs := tr.PerRank(r)
		for i := 1; i < len(evs); i++ {
			if evs[i].Start < evs[i-1].End-1e-9 {
				t.Fatalf("rank %d: overlapping events %+v then %+v", r, evs[i-1], evs[i])
			}
		}
	}
}

func TestTraceDurationsMatchAccounting(t *testing.T) {
	m := machine.Hypercube(4, 7, 2)
	m.CollectTrace = true
	res, err := Run(m, func(p *Proc) {
		p.Compute(float64(10 * (p.Rank() + 1)))
		next := (p.Rank() + 1) % 4
		prev := (p.Rank() + 3) % 4
		p.SendNeighbor(next, 0, make([]float64, 5))
		p.Recv(prev, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	var compute, comm, idle float64
	for _, e := range res.Trace.Events {
		switch e.Kind {
		case EventCompute:
			compute += e.End - e.Start
		case EventSend:
			comm += e.End - e.Start
		case EventIdle:
			idle += e.End - e.Start
		}
	}
	if compute != res.TotalCompute {
		t.Fatalf("traced compute %v vs accounted %v", compute, res.TotalCompute)
	}
	if comm != res.TotalComm {
		t.Fatalf("traced comm %v vs accounted %v", comm, res.TotalComm)
	}
	// Traced idle counts only pre-receive waits; processors also idle
	// after finishing early, so it is a lower bound on IdleTime.
	if idle > res.IdleTime()+1e-9 {
		t.Fatalf("traced idle %v exceeds accounted %v", idle, res.IdleTime())
	}
}

func TestTimelineRendering(t *testing.T) {
	_, tr := tracedPingPong(t)
	s := tr.Timeline(40)
	if !strings.Contains(s, "p0") || !strings.Contains(s, "p1") {
		t.Fatalf("timeline missing lanes:\n%s", s)
	}
	for _, ch := range []string{"C", "S", "."} {
		if !strings.Contains(s, ch) {
			t.Fatalf("timeline missing %q:\n%s", ch, s)
		}
	}
	if tr.Timeline(0) != "" {
		t.Fatal("zero-width timeline should be empty")
	}
}

func TestRunWithoutTraceRecordsNothing(t *testing.T) {
	// Plain Run must not pay for or retain events.
	res, err := Run(twoProc(1, 1), func(p *Proc) {
		p.Compute(10)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tp != 10 {
		t.Fatalf("Tp = %v", res.Tp)
	}
}

func TestEventKindStrings(t *testing.T) {
	for k, want := range map[EventKind]string{
		EventCompute: "compute", EventSend: "send", EventIdle: "idle", EventRecv: "recv",
		EventKind(9): "EventKind(9)",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}
