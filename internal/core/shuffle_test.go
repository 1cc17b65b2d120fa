package core_test

import (
	"bytes"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"matscale/internal/core"
	"matscale/internal/experiments"
)

// TestShuffledTableSameBytes runs the formulation table in a shuffled
// order and requires the same bytes: RunAll equals REPRODUCTION.txt,
// and the golden digest lines, as a set, equal the recorded ones. The
// Table 1 rows keep their relative order, which breaks ties in the
// region maps and orders the reports on purpose; nothing else may
// depend on a row's place in the table.
func TestShuffledTableSameBytes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are recorded on amd64")
	}
	saved := slices.Clone(core.Formulations)
	defer copy(core.Formulations, saved)
	rows := core.Formulations
	rand.New(rand.NewPCG(1, 2)).Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	// The Table 1 rows go back in Table 1's order, into the places the
	// shuffle gave them.
	table1 := slices.DeleteFunc(slices.Clone(saved), func(f core.Formulation) bool { return f.Table1 == nil })
	for i := range rows {
		if rows[i].Table1 != nil {
			rows[i], table1 = table1[0], table1[1:]
		}
	}

	var buf bytes.Buffer
	if err := experiments.RunAll(&buf, false, 0); err != nil {
		t.Fatal(err)
	}
	if want, err := os.ReadFile("../../REPRODUCTION.txt"); err != nil || !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("RunAll over the shuffled table differs from REPRODUCTION.txt (%v)", err)
	}
	recorded, err := os.ReadFile(core.GoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(recorded), "\n"), "\n")
	got := core.GoldenDigests(t)
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Error("the golden digests over the shuffled table differ from " + core.GoldenFile)
	}
}
