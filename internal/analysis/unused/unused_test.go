package unused_test

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"matscale/internal/analysis/unused"
)

// fixture is a module whose internal/a package holds one declaration
// per case: dead code (marked with a want comment) and every kind of
// root the check must respect. A nested module imports it.
var fixture = filepath.Join("testdata", "fixture")

var fixtureKeepers = map[string]string{"fixture/internal/a.Kept": "listed keeper"}

// wants returns the diagnostics the fixture's `// want "name"`
// comments expect, in the check's file:line order.
func wants(t *testing.T) []string {
	t.Helper()
	const file = "internal/a/a.go"
	f, err := os.Open(filepath.Join(fixture, file))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	re := regexp.MustCompile(`// want "([^"]+)"`)
	var out []string
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		if m := re.FindStringSubmatch(sc.Text()); m != nil {
			out = append(out, fmt.Sprintf("%s:%d: %s", file, line, m[1]))
		}
	}
	return out
}

// The check fails on each dead declaration — unexported, exported, and
// reached only by its own test — and on nothing else: not the root
// package's API, a method of a type it aliases, a method reached only
// through an interface, code only a nested module calls, a keeper, or
// what a keeper uses.
func TestFixtureReportsDeadCodeOnly(t *testing.T) {
	var out bytes.Buffer
	if code := unused.Run(&out, fixture, fixtureKeepers); code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out.String())
	}
	got := strings.Split(strings.TrimSpace(out.String()), "\n")
	if want := wants(t); !reflect.DeepEqual(got, want) {
		t.Fatalf("diagnostics:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// With every dead declaration listed as a keeper the check is silent
// and exits 0.
func TestFixtureCleanWhenAllKept(t *testing.T) {
	keepers := map[string]string{}
	for k, v := range fixtureKeepers {
		keepers[k] = v
	}
	for _, w := range wants(t) {
		keepers[w[strings.LastIndex(w, " ")+1:]] = "kept"
	}
	var out bytes.Buffer
	if code := unused.Run(&out, fixture, keepers); code != 0 || out.Len() != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
}

// A keeper is stale when it names no declaration or one the roots
// reach anyway; either fails the check.
func TestFixtureStaleKeepers(t *testing.T) {
	keepers := map[string]string{
		"fixture/internal/a.Kept":          "listed keeper",
		"fixture/internal/a.Missing":       "names nothing",
		"fixture/internal/a.Live":          "reached from the root API",
		"fixture/internal/a.T.AliasMethod": "reached as a method of an aliased type",
	}
	r, err := unused.Check(fixture, keepers)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fixture/internal/a.Live", "fixture/internal/a.Missing", "fixture/internal/a.T.AliasMethod"}
	if !reflect.DeepEqual(r.Stale, want) {
		t.Fatalf("stale = %v, want %v", r.Stale, want)
	}
}
