package analysis_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"matscale/internal/analysis/config"
	"matscale/internal/analysis/unused"
)

// goTool returns the go command of the running toolchain.
func goTool(t *testing.T) string {
	t.Helper()
	tool := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(tool); err != nil {
		t.Skipf("go tool not found at %s: %v", tool, err)
	}
	return tool
}

// repoRoot locates the module root (the directory containing go.mod).
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}

// TestRepoIsVetClean is the suite's meta-test: it builds the
// matscale-vet vettool exactly as `make vet` does and runs it across
// the module, asserting the tree satisfies its own contracts. Every
// analyzer's ability to fire is proven separately by its fixture test;
// this test proves the production tree is clean.
func TestRepoIsVetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("meta-test builds the module; skipped in -short mode")
	}
	go_ := goTool(t)
	root := repoRoot(t)

	tool := filepath.Join(t.TempDir(), "matscale-vet")
	build := exec.Command(go_, "build", "-o", tool, "./cmd/matscale-vet")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building matscale-vet: %v\n%s", err, out)
	}

	vet := exec.Command(go_, "vet", "-vettool="+tool, "./...")
	vet.Dir = root
	if out, err := vet.CombinedOutput(); err != nil {
		t.Errorf("go vet -vettool=matscale-vet ./... failed: %v\n%s", err, out)
	} else if s := strings.TrimSpace(string(out)); s != "" {
		t.Logf("vet output (non-fatal): %s", s)
	}
}

// TestRepoHasNoUnusedCode runs the whole-module unused check as
// `make vet` does: no declaration outside config.UnusedKeepers may be
// unreachable from the module's roots, and no keeper may be stale —
// naming a declaration that is gone or that production code now
// reaches.
func TestRepoHasNoUnusedCode(t *testing.T) {
	if testing.Short() {
		t.Skip("meta-test loads the whole module; skipped in -short mode")
	}
	r, err := unused.Check(repoRoot(t), config.UnusedKeepers)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range r.Unused {
		t.Errorf("%s:%d: %s is unreachable from non-test code", f.Pos.Filename, f.Pos.Line, f.Name)
	}
	for _, k := range r.Stale {
		t.Errorf("stale keeper %s (%s)", k, config.UnusedKeepers[k])
	}
}
