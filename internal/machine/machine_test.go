package machine

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestMsgTimeAdjacent(t *testing.T) {
	m := Hypercube(8, 150, 3)
	// Neighbors 0 and 1: one hop, ts + tw·m.
	if got, want := m.MsgTime(10, 0, 1), 150+3*10.0; got != want {
		t.Fatalf("MsgTime = %v, want %v", got, want)
	}
}

func TestMsgTimeSelfIsFree(t *testing.T) {
	m := Hypercube(8, 150, 3)
	if m.MsgTime(1000, 3, 3) != 0 {
		t.Fatal("self message should cost 0")
	}
}

func TestStoreAndForwardChargesPerHop(t *testing.T) {
	m := Hypercube(8, 10, 2)
	// 0 -> 7 is 3 hops on a 3-cube.
	want := 3 * (10 + 2*5.0)
	if got := m.MsgTime(5, 0, 7); got != want {
		t.Fatalf("SF MsgTime = %v, want %v", got, want)
	}
}

func TestCutThroughDistanceIndependent(t *testing.T) {
	m := Hypercube(8, 10, 2)
	m.Routing = CutThrough
	if got, want := m.MsgTime(5, 0, 7), 10+2*5.0; got != want {
		t.Fatalf("CT MsgTime = %v, want %v", got, want)
	}
}

func TestMsgTimeHopsZero(t *testing.T) {
	m := Hypercube(4, 1, 1)
	if m.MsgTimeHops(100, 0) != 0 {
		t.Fatal("zero hops should cost 0")
	}
}

func TestValidate(t *testing.T) {
	if err := (&Machine{}).Validate(); err == nil || !strings.Contains(err.Error(), "no topology") {
		t.Fatalf("Validate of empty machine = %v", err)
	}
	m := Hypercube(4, 1, 1)
	m.Tw = -1
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("Validate negative tw = %v", err)
	}
	if err := Hypercube(4, 1, 1).Validate(); err != nil {
		t.Fatalf("Validate of valid machine = %v", err)
	}
}

func TestPresets(t *testing.T) {
	cases := []struct {
		m      *Machine
		ts, tw float64
	}{
		{NCube2(16), 150, 3},
		{FutureHypercube(16), 10, 3},
		{SIMD(16), 0.5, 3},
	}
	for _, c := range cases {
		if c.m.Ts != c.ts || c.m.Tw != c.tw {
			t.Errorf("%s: ts=%v tw=%v, want %v/%v", c.m, c.m.Ts, c.m.Tw, c.ts, c.tw)
		}
		if c.m.P() != 16 {
			t.Errorf("%s: P=%d, want 16", c.m, c.m.P())
		}
		if err := c.m.Validate(); err != nil {
			t.Errorf("%s: %v", c.m, err)
		}
	}
}

func TestCM5Preset(t *testing.T) {
	m := CM5(512)
	if m.P() != 512 {
		t.Fatalf("P = %d", m.P())
	}
	// ts = 380/1.53 ≈ 248.37, tw = 1.8/1.53 ≈ 1.176.
	if m.Ts < 248 || m.Ts > 249 {
		t.Fatalf("CM5 ts = %v", m.Ts)
	}
	if m.Tw < 1.17 || m.Tw > 1.18 {
		t.Fatalf("CM5 tw = %v", m.Tw)
	}
	// Fully connected: every transfer is one hop.
	if m.MsgTime(7, 0, 511) != m.MsgTime(7, 3, 4) {
		t.Fatal("CM5 transfers should be distance independent")
	}
}

func TestStringForms(t *testing.T) {
	m := NCube2(8)
	s := m.String()
	for _, frag := range []string{"hypercube", "ts=150", "tw=3", "store-and-forward", "one-port"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
	m.AllPort = true
	if !strings.Contains(m.String(), "all-port") {
		t.Errorf("all-port missing from %q", m.String())
	}
	if Routing(9).String() != "Routing(9)" {
		t.Errorf("unknown routing String = %q", Routing(9).String())
	}
	if CutThrough.String() != "cut-through" {
		t.Errorf("CutThrough String = %q", CutThrough.String())
	}
}

// Property: message time is monotone in word count and in hop count,
// and symmetric between endpoints.
func TestQuickMsgTimeMonotoneSymmetric(t *testing.T) {
	m := Hypercube(64, 7, 2)
	f := func(a, b uint8, w uint16) bool {
		x, y := int(a)%64, int(b)%64
		w1 := int(w % 1000)
		if m.MsgTime(w1, x, y) != m.MsgTime(w1, y, x) {
			return false
		}
		return m.MsgTime(w1, x, y) <= m.MsgTime(w1+1, x, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: cut-through never charges more than store-and-forward.
func TestQuickCutThroughCheaper(t *testing.T) {
	sf := Hypercube(64, 5, 3)
	ct := Hypercube(64, 5, 3)
	ct.Routing = CutThrough
	f := func(a, b uint8, w uint16) bool {
		x, y := int(a)%64, int(b)%64
		words := int(w % 500)
		return ct.MsgTime(words, x, y) <= sf.MsgTime(words, x, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCutThroughPerHopLatency(t *testing.T) {
	m := Hypercube(8, 10, 2)
	m.Routing = CutThrough
	m.Th = 4
	// 0 -> 7 is 3 hops: ts + th·3 + tw·5 = 10 + 12 + 10 = 32.
	if got := m.MsgTime(5, 0, 7); got != 32 {
		t.Fatalf("CT+Th MsgTime = %v, want 32", got)
	}
	// Th is ignored under store-and-forward.
	m.Routing = StoreAndForward
	if got := m.MsgTime(5, 0, 7); got != 3*(10+2*5.0) {
		t.Fatalf("SF MsgTime = %v", got)
	}
	m.Th = -1
	m.Routing = CutThrough
	if err := m.Validate(); err == nil {
		t.Fatal("negative Th accepted")
	}
}

func TestWithCostDerivesCopy(t *testing.T) {
	m := Hypercube(8, 150, 3)
	m2 := m.WithCost(10, 1)
	if m2 == m {
		t.Fatal("WithCost returned the receiver, want a copy")
	}
	if m2.Ts != 10 || m2.Tw != 1 {
		t.Fatalf("WithCost copy has ts=%v tw=%v, want 10, 1", m2.Ts, m2.Tw)
	}
	if m.Ts != 150 || m.Tw != 3 {
		t.Fatalf("WithCost mutated the receiver: ts=%v tw=%v", m.Ts, m.Tw)
	}
	if m2.Topo != m.Topo || m2.Routing != m.Routing {
		t.Fatal("WithCost must preserve topology and routing")
	}
}

func TestWithAllPortDerivesCopy(t *testing.T) {
	m := Hypercube(8, 150, 3)
	ap := m.WithAllPort(true)
	if ap == m {
		t.Fatal("WithAllPort returned the receiver, want a copy")
	}
	if !ap.AllPort {
		t.Fatal("WithAllPort(true) copy is not all-port")
	}
	if m.AllPort {
		t.Fatal("WithAllPort mutated the receiver")
	}
	if off := ap.WithAllPort(false); off.AllPort || !ap.AllPort {
		t.Fatal("WithAllPort(false) must derive a one-port copy without mutating")
	}
	if ap.Ts != m.Ts || ap.Tw != m.Tw || ap.Topo != m.Topo {
		t.Fatal("WithAllPort must preserve cost constants and topology")
	}
}

// Every preset name reports, without building a topology, the (ts, tw)
// its machines carry — the constants sweep's prediction pre-pass
// charges — and its constructor is the named preset function.
func TestLookupPresetConstantsMatchMachine(t *testing.T) {
	for _, c := range []struct {
		name   string
		ts, tw float64
		ctor   func(int) *Machine
	}{
		{"ncube2", 150, 3, NCube2},
		{"fast", 10, 3, FutureHypercube},
		{"simd", 0.5, 3, SIMD},
		{"cm5", CM5StartupMicros / CM5FlopMicros, CM5PerWordMicros / CM5FlopMicros, CM5},
		{"custom", 17, 2, func(p int) *Machine { return Hypercube(p, 17, 2) }},
	} {
		build, ts, tw, ok := LookupPreset(c.name, 17, 2)
		if !ok {
			t.Fatalf("LookupPreset(%q) not found", c.name)
		}
		if ts != c.ts || tw != c.tw {
			t.Errorf("%s: constants (%v, %v), want (%v, %v)", c.name, ts, tw, c.ts, c.tw)
		}
		m := build(64)
		if m.Ts != ts || m.Tw != tw {
			t.Errorf("%s: built machine carries (%v, %v), lookup reports (%v, %v)", c.name, m.Ts, m.Tw, ts, tw)
		}
		if want := c.ctor(64); !reflect.DeepEqual(m, want) {
			t.Errorf("%s: built %+v, want %+v", c.name, m, want)
		}
	}
	if _, _, _, ok := LookupPreset("cray", 1, 1); ok {
		t.Error("LookupPreset accepted an unknown name")
	}
}

// TestParseBackend round-trips every Backend through the names String
// emits, the names cell keys, snapshot fingerprints and sweep
// checkpoints carry, and rejects an unknown name.
func TestParseBackend(t *testing.T) {
	for name, want := range map[string]Backend{
		"goroutines": BackendGoroutines,
		"events":     BackendEvents,
	} {
		got, err := ParseBackend(name)
		if err != nil || got != want {
			t.Fatalf("ParseBackend(%q) = %v, %v", name, got, err)
		}
		if got.String() != name {
			t.Fatalf("Backend %v renders as %q", got, got.String())
		}
	}
	if _, err := ParseBackend("quantum"); err == nil {
		t.Fatal("want error for unknown backend name")
	}
}

// TestBackendUnknownValue: a Backend outside the defined constants is
// not Known, renders with its number, and fails Validate, which every
// simulated run passes through.
func TestBackendUnknownValue(t *testing.T) {
	for _, b := range []Backend{-1, 99} {
		if b.Known() {
			t.Fatalf("%v reports Known", b)
		}
		m := Hypercube(16, 150, 3)
		m.Backend = b
		if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "unknown backend") {
			t.Fatalf("Validate with backend %d = %v, want unknown backend", int(b), err)
		}
	}
	if s := Backend(99).String(); s != "Backend(99)" {
		t.Fatalf("Backend(99) renders as %q", s)
	}
	if !BackendEvents.Known() || !BackendGoroutines.Known() {
		t.Fatal("a defined Backend is not Known")
	}
}
