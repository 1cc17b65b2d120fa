package matscale_test

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"matscale"
)

// TestReproductionUpToDate regenerates the full reproduction and
// compares it with the committed REPRODUCTION.txt, so a change that
// moves a printed number cannot leave the file stale.
func TestReproductionUpToDate(t *testing.T) {
	want, err := os.ReadFile("REPRODUCTION.txt")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := matscale.RunAll(&buf, false); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		line := 0
		for line < len(gl) && line < len(wl) && gl[line] == wl[line] {
			line++
		}
		g, w := "<end of output>", "<end of file>"
		if line < len(gl) {
			g = gl[line]
		}
		if line < len(wl) {
			w = wl[line]
		}
		t.Fatalf("REPRODUCTION.txt is stale; run `make repro` to rewrite it.\nfirst difference at line %d:\n  RunAll:            %q\n  REPRODUCTION.txt:  %q", line+1, g, w)
	}
}
