package costcharge_test

import (
	"path/filepath"
	"testing"

	"matscale/internal/analysis/analyzertest"
	"matscale/internal/analysis/costcharge"
)

func TestCostcharge(t *testing.T) {
	// internal/matrix, the host matmul kernel, is outside the charged
	// packages: its fixture uses goroutines, sync, and channels and
	// must produce zero diagnostics.
	analyzertest.Run(t, filepath.Join("testdata"), costcharge.Analyzer,
		"matscale/internal/core", "matscale/internal/matrix", "clean")
}
