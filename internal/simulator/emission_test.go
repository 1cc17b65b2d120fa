package simulator

import (
	"bytes"
	"strings"
	"testing"

	"matscale/internal/machine"
)

// emissionProgram is a nontrivial exchange: every rank computes, sends
// to several peers, and receives from them, so the metrics and trace
// exercise multiple ranks and links.
func emissionProgram(p *Proc) {
	pp := 4
	r := p.Rank()
	p.Compute(float64(10 + r))
	for d := 0; d < 2; d++ {
		peer := r ^ (1 << d)
		if peer < pp {
			p.Send(peer, 7+d, []float64{float64(r), float64(peer)})
		}
	}
	for d := 0; d < 2; d++ {
		peer := r ^ (1 << d)
		if peer < pp {
			p.Recv(peer, 7+d)
		}
	}
	p.Compute(3)
}

func emissionRun(t *testing.T) (*Result, *Trace) {
	t.Helper()
	m := machine.Hypercube(4, 10, 2)
	m.CollectMetrics = true
	m.CollectTrace = true
	res, err := Run(m, emissionProgram)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil || res.Trace == nil {
		t.Fatal("run produced no metrics or trace")
	}
	return res, res.Trace
}

// TestEmissionByteIdentical runs the same configuration twice and
// requires every emitter — per-rank CSV, per-link CSV, Chrome trace
// JSON, and raw event CSV — to produce byte-for-byte identical output.
// This is the repo's run-to-run determinism contract (ROADMAP §fidelity)
// applied to the observability layer: any map-order leak into emission
// shows up here as a diff.
func TestEmissionByteIdentical(t *testing.T) {
	type emitted struct {
		ranks, links, chrome, events string
	}
	capture := func() emitted {
		res, tr := emissionRun(t)
		var ranks, links, chrome, events bytes.Buffer
		if err := res.Metrics.WriteRanksCSV(&ranks); err != nil {
			t.Fatal(err)
		}
		if err := res.Metrics.WriteLinksCSV(&links); err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteChromeTrace(&chrome); err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteCSV(&events); err != nil {
			t.Fatal(err)
		}
		return emitted{ranks.String(), links.String(), chrome.String(), events.String()}
	}
	a, b := capture(), capture()
	if a.ranks != b.ranks {
		t.Errorf("ranks CSV differs between identical runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", a.ranks, b.ranks)
	}
	if a.links != b.links {
		t.Errorf("links CSV differs between identical runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", a.links, b.links)
	}
	if a.chrome != b.chrome {
		t.Errorf("Chrome trace differs between identical runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", a.chrome, b.chrome)
	}
	if a.events != b.events {
		t.Errorf("event CSV differs between identical runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", a.events, b.events)
	}
	// Sanity: the run actually produced multi-rank, multi-link content.
	if n := strings.Count(a.links, "\n"); n < 3 {
		t.Fatalf("links CSV has only %d lines; program exercised too little", n)
	}
}

// reverse returns a reversed copy of s.
func reverse[T any](s []T) []T {
	out := make([]T, len(s))
	for i, v := range s {
		out[len(s)-1-i] = v
	}
	return out
}

// TestEmissionSortsScrambledInput checks the defensive half of the
// ordering contract: even when a Metrics or Trace arrives with its
// slices scrambled (a hypothetical future assembly path that forgets
// the (Rank)/(From,To)/(Rank,Start) ordering), the emitters still
// write sorted, deterministic output identical to the well-ordered
// original's.
func TestEmissionSortsScrambledInput(t *testing.T) {
	res, tr := emissionRun(t)

	var wantRanks, wantLinks, wantChrome, wantEvents bytes.Buffer
	if err := res.Metrics.WriteRanksCSV(&wantRanks); err != nil {
		t.Fatal(err)
	}
	if err := res.Metrics.WriteLinksCSV(&wantLinks); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChromeTrace(&wantChrome); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCSV(&wantEvents); err != nil {
		t.Fatal(err)
	}

	scrambledM := &Metrics{
		P:     res.Metrics.P,
		Tp:    res.Metrics.Tp,
		Ranks: reverse(res.Metrics.Ranks),
		Links: reverse(res.Metrics.Links),
	}
	// Scramble the trace by concatenating the per-rank histories in
	// reverse rank order. Within a rank the time order is preserved:
	// sortedEvents orders by (Rank, Start) with a stable sort, so ties
	// (an instant recv and the compute it unblocks share a Start) keep
	// their construction order and block reordering is the strongest
	// scramble the contract promises to undo.
	var scrambledEvents []Event
	for r := tr.P - 1; r >= 0; r-- {
		scrambledEvents = append(scrambledEvents, tr.PerRank(r)...)
	}
	scrambledT := &Trace{P: tr.P, Tp: tr.Tp, Events: scrambledEvents}

	var gotRanks, gotLinks, gotChrome, gotEvents bytes.Buffer
	if err := scrambledM.WriteRanksCSV(&gotRanks); err != nil {
		t.Fatal(err)
	}
	if err := scrambledM.WriteLinksCSV(&gotLinks); err != nil {
		t.Fatal(err)
	}
	if err := scrambledT.WriteChromeTrace(&gotChrome); err != nil {
		t.Fatal(err)
	}
	if err := scrambledT.WriteCSV(&gotEvents); err != nil {
		t.Fatal(err)
	}

	if gotRanks.String() != wantRanks.String() {
		t.Errorf("scrambled ranks CSV not re-sorted:\n%s", gotRanks.String())
	}
	if gotLinks.String() != wantLinks.String() {
		t.Errorf("scrambled links CSV not re-sorted:\n%s", gotLinks.String())
	}
	if gotChrome.String() != wantChrome.String() {
		t.Errorf("scrambled Chrome trace not re-sorted:\n%s", gotChrome.String())
	}
	if gotEvents.String() != wantEvents.String() {
		t.Errorf("scrambled event CSV not re-sorted:\n%s", gotEvents.String())
	}

	// The scramble must not have mutated the originals in place.
	var again bytes.Buffer
	if err := tr.WriteCSV(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != wantEvents.String() {
		t.Error("sorting a scrambled copy mutated the original trace")
	}
}
