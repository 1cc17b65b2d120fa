package matscale_test

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"matscale"
	"matscale/internal/checkpoint"
	"matscale/internal/machine"
	"matscale/internal/server"
	"matscale/internal/simulator"
	"matscale/internal/sweep"
)

// keyRecorder is a sweep.CellCache that never hits and records every
// key it is asked for, exposing the backend each cell was keyed under.
type keyRecorder struct {
	mu   sync.Mutex
	keys []string
}

func (c *keyRecorder) Get(key string) (sweep.CellResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.keys = append(c.keys, key)
	return sweep.CellResult{}, false
}

func (c *keyRecorder) Put(string, sweep.CellResult) {}

func (c *keyRecorder) assertBackend(t *testing.T, who string, want string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.keys) == 0 {
		t.Fatalf("%s looked up no cell keys", who)
	}
	for _, k := range c.keys {
		if !strings.HasSuffix(k, "|backend="+want) {
			t.Fatalf("%s cell key %q does not end in backend=%s", who, k, want)
		}
	}
}

// TestDefaultBackendIsEvents pins the zero-value engine: presets, sweep
// options, server configs and matscale.Sweep all simulate on the event
// engine unless the goroutine engine is asked for, while the backend
// names on the wire (checkpoints, cell keys, snapshot fingerprints)
// keep their meaning.
func TestDefaultBackendIsEvents(t *testing.T) {
	for _, b := range []machine.Backend{machine.BackendEvents, machine.BackendGoroutines} {
		got, err := machine.ParseBackend(b.String())
		if err != nil || got != b {
			t.Fatalf("ParseBackend(%q) = %v, %v; want %v", b.String(), got, err, b)
		}
	}
	if machine.BackendEvents.String() != "events" || machine.BackendGoroutines.String() != "goroutines" {
		t.Fatalf("backend names changed: %q, %q", machine.BackendEvents, machine.BackendGoroutines)
	}

	for name, m := range map[string]*machine.Machine{
		"ncube2": machine.NCube2(64), "future": machine.FutureHypercube(64), "simd": machine.SIMD(64),
		"cm5": machine.CM5(64), "hypercube": machine.Hypercube(64, 1, 1), "mesh": machine.Mesh(64, 1, 1),
	} {
		if m.Backend != machine.BackendEvents {
			t.Errorf("preset %s defaults to backend %v", name, m.Backend)
		}
	}

	// A preset machine runs on the event engine: only it can
	// checkpoint, and the snapshot's fingerprint names it.
	var buf bytes.Buffer
	a := matscale.RandomMatrix(16, 16, 1)
	_, err := matscale.Run(matscale.Cannon, matscale.NCube2(64), a, a,
		matscale.WithCheckpoint(&buf), matscale.WithSuspendAfter(5))
	var se *matscale.SuspendedError
	if !errors.As(err, &se) {
		t.Fatalf("checkpointed run on a preset: err = %v, want *SuspendedError", err)
	}
	snap, err := checkpoint.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if fp := snap.Meta["machine"]; !strings.Contains(fp, "|backend=events|") {
		t.Fatalf("snapshot fingerprint %q does not say backend=events", fp)
	}

	// simulator.Run on a plain machine matches the opted-in goroutine
	// engine exactly.
	hc := machine.Hypercube(8, 5, 1)
	body := func(p *simulator.Proc) {
		p.Compute(float64(p.Rank()))
		p.Send((p.Rank()+1)%p.P(), 0, []float64{float64(p.Rank())})
		p.Recycle(p.Recv((p.Rank()+p.P()-1)%p.P(), 0))
	}
	e, err := simulator.Run(hc, body)
	if err != nil {
		t.Fatal(err)
	}
	g, err := simulator.Run(hc.WithBackend(machine.BackendGoroutines), body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e, g) {
		t.Errorf("default engine differs from goroutines: Tp %v vs %v", e.Tp, g.Tp)
	}

	spec := &sweep.Spec{
		Algorithms: []string{"cannon", "gk"},
		Machines:   []string{"ncube2"},
		Ps:         []int{16, 64},
		Ns:         []int{16},
	}
	opts := &keyRecorder{}
	if _, err := sweep.Run(spec, sweep.Options{Cache: opts}); err != nil {
		t.Fatal(err)
	}
	opts.assertBackend(t, "sweep.Options{}", "events")

	cfg := &keyRecorder{}
	srv, err := server.New(server.Config{Cache: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	job, err := srv.Submit(spec, machine.Backend(-1))
	if err != nil {
		t.Fatal(err)
	}
	<-job.Finished()
	if job.Backend() != machine.BackendEvents || job.Status().Backend != "events" {
		t.Fatalf("server.Config{} job runs on %v (status %q)", job.Backend(), job.Status().Backend)
	}
	cfg.assertBackend(t, "server.Config{}", "events")

	// matscale.Sweep without WithBackend: the typed error of a rejected
	// option names the backend the sweep would have run on, and the
	// output equals an explicit Events sweep.
	var uce *matscale.UnsupportedCapabilityError
	if _, err := matscale.Sweep(spec, matscale.WithCheckpoint(&buf), matscale.WithSuspendAfter(1)); !errors.As(err, &uce) {
		t.Fatalf("Sweep with checkpoint options: err = %v", err)
	}
	if uce.Backend != matscale.Events {
		t.Fatalf("matscale.Sweep defaults to backend %v", uce.Backend)
	}
	def, err := matscale.Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := matscale.Sweep(spec, matscale.WithBackend(matscale.Events))
	if err != nil {
		t.Fatal(err)
	}
	if def.CSV() != ev.CSV() {
		t.Fatal("default sweep differs from an explicit Events sweep")
	}
}
