package core

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"matscale/internal/faults"
	"matscale/internal/machine"
	"matscale/internal/matrix"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_digests.txt from the current formulations")

const goldenFile = "testdata/golden_digests.txt"

// GoldenDigests and GoldenFile give the external shuffle test, which
// imports experiments, the digest grid and its recording.
var GoldenDigests, GoldenFile = goldenDigests, goldenFile

// goldenDigests runs every row of the formulation table over the digest grid and
// returns one "case digest" line per run, in a fixed order.
func goldenDigests(t *testing.T) []string {
	t.Helper()
	machines := []struct {
		name string
		mk   func(p int) *machine.Machine
	}{
		{"ncube2", machine.NCube2},
		{"mesh", func(p int) *machine.Machine { return machine.Mesh(p, 7, 2) }},
		{"cm5", machine.CM5},
	}
	scenarios := []struct {
		name string
		fc   *faults.Config
	}{
		{"clean", nil},
		{"faulted", &faults.Config{Seed: 42, Loss: 0.02, Stragglers: map[int]float64{3: 1.5}, Jitter: 0.2}},
	}
	var lines []string
	for _, f := range Formulations {
		for _, mc := range machines {
			for _, p := range []int{1, 4, 16, 64} {
				for _, n := range []int{8, 16} {
					a := matrix.RandomInts(n, n, 71)
					b := matrix.RandomInts(n, n, 72)
					for _, sc := range scenarios {
						m := mc.mk(p).WithFaults(sc.fc)
						m.CollectMetrics = true
						m.CollectTrace = true
						name := fmt.Sprintf("%s/%s/p=%d/n=%d/%s", f.Name, mc.name, p, n, sc.name)
						lines = append(lines, name+" "+resultDigest(t, f.Run, m, a, b))
					}
				}
			}
		}
	}
	return append(lines, waveDigests(t)...)
}

// waveDigests runs every row with a skeleton on plain machines
// — no metrics, no trace, no loss — where the simulator's wave tier
// takes the run, with real-valued operands, so the rows pin the wave
// tier's times and its host product's addition order. Each row is
// prefixed "wave/". The grid covers square and cube rank counts, one
// element per processor (p = 64, n = 8) and odd block sides (n = 12).
func waveDigests(t *testing.T) []string {
	t.Helper()
	machines := []struct {
		name string
		mk   func(p int) *machine.Machine
	}{
		{"ncube2", machine.NCube2},
		{"cm5", machine.CM5},
		{"hypercube", func(p int) *machine.Machine { return machine.Hypercube(p, 6.3, 3) }},
	}
	scenarios := []struct {
		name string
		fc   *faults.Config
	}{
		{"clean", nil},
		{"faulted", &faults.Config{Seed: 42, Stragglers: map[int]float64{3: 1.5}, Jitter: 0.2}},
	}
	var lines []string
	for _, f := range skeletonRows() {
		for _, mc := range machines {
			for _, p := range []int{1, 4, 8, 16, 64} {
				for _, n := range []int{8, 12, 16} {
					a := matrix.Random(n, n, 81)
					b := matrix.Random(n, n, 82)
					for _, sc := range scenarios {
						m := mc.mk(p).WithFaults(sc.fc)
						name := fmt.Sprintf("wave/%s/%s/p=%d/n=%d/%s", f.Name, mc.name, p, n, sc.name)
						lines = append(lines, name+" "+resultDigest(t, f.Run, m, a, b))
					}
				}
			}
		}
	}
	return lines
}

// resultDigest hashes everything a run emits: the algorithm name, the
// Sim structure as JSON, the Chrome trace, the rank and link CSVs and
// the product's bits — or the error text when the run fails. A run
// that collected no trace (a wave-tier row) hashes no trace or CSVs.
func resultDigest(t *testing.T, alg Algorithm, m *machine.Machine, a, b *matrix.Dense) string {
	t.Helper()
	h := sha256.New()
	res, err := alg(m, a, b)
	if err != nil {
		fmt.Fprintf(h, "error: %v", err)
		return hex.EncodeToString(h.Sum(nil))
	}
	fmt.Fprintf(h, "%s\n", res.Algorithm)
	js, err := json.Marshal(res.Sim)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(js)
	var emits []func(*bytes.Buffer) error
	if res.Sim.Trace != nil {
		emits = []func(*bytes.Buffer) error{
			func(w *bytes.Buffer) error { return res.Sim.Trace.WriteChromeTrace(w) },
			func(w *bytes.Buffer) error { return res.Sim.Metrics.WriteRanksCSV(w) },
			func(w *bytes.Buffer) error { return res.Sim.Metrics.WriteLinksCSV(w) },
		}
	}
	for _, emit := range emits {
		var buf bytes.Buffer
		if err := emit(&buf); err != nil {
			t.Fatal(err)
		}
		h.Write(buf.Bytes())
	}
	var word [8]byte
	for _, v := range res.C.Data {
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
		h.Write(word[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenDigests pins every formulation's complete output — times,
// metrics, traces and product bits, on three machines, clean and
// faulted — and the wave tier's times and products (waveDigests)
// against digests recorded from an earlier tree, so a
// refactor of the formulations has to reproduce the same bytes. Rerun
// with -update-golden only when a change is meant to alter output:
//
//	go test -run TestGoldenDigests -update-golden ./internal/core
func TestGoldenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are recorded on amd64; other architectures may fuse multiply-adds and change Tp bits")
	}
	got := goldenDigests(t)
	if *updateGolden {
		if err := os.WriteFile(goldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, digest, _ := strings.Cut(sc.Text(), " ")
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d cases, the grid has %d; rerun with -update-golden if the grid changed", goldenFile, len(want), len(got))
	}
	for _, line := range got {
		name, digest, _ := strings.Cut(line, " ")
		if want[name] != digest {
			t.Errorf("%s: digest %s, recorded %s", name, digest, want[name])
		}
	}
}
