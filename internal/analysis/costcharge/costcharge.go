// Package costcharge defines an analyzer enforcing the cost-charging
// contract: in the algorithm and collective packages every transfer
// must flow through the simulator's charged Proc API (SendOwned, Recv,
// ExchangeNeighbor, ChargedSend, …) so it is accounted at ts + tw·m.
// A raw channel operation or sync primitive would move data or order
// execution in ways the postal model never charges, silently corrupting
// Tp, To = p·Tp − W, and every isoefficiency figure derived from them.
package costcharge

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"golang.org/x/tools/go/analysis"

	"matscale/internal/analysis/config"
)

// Doc is the analyzer's long-form description.
const Doc = `forbid uncharged communication in algorithm/collective packages

All communication in formulation code must go through the simulator's
charged Send/Recv API so the ts + tw·m postal model accounts for it.
Raw channel sends/receives, select statements, goroutine launches,
channel construction, and the sync/sync-atomic packages bypass the cost
model and are forbidden here. A reviewed exception (charged elsewhere,
measurement-only plumbing) is annotated '//costcharge:reviewed'.`

// Analyzer is the costcharge analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "costcharge",
	Doc:  Doc,
	Run:  run,
}

// reviewedMarker suppresses a diagnostic on its line (or the line
// below it), asserting the uncharged primitive was reviewed.
const reviewedMarker = "//costcharge:reviewed"

func run(pass *analysis.Pass) (interface{}, error) {
	if !config.Charged(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		if config.TestFile(pass.Fset, f.Pos()) {
			continue
		}
		reviewed := config.MarkedLines(pass.Fset, f, reviewedMarker)
		report := func(pos token.Pos, format string, args ...interface{}) {
			if config.SuppressedAt(reviewed, pass.Fset, pos) {
				return
			}
			pass.Reportf(pos, format, args...)
		}
		for _, imp := range f.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil && (path == "sync" || path == "sync/atomic") {
				report(imp.Pos(), "import of %q in a charged package: sync primitives coordinate outside the cost model; charge communication through the simulator's Proc API", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SendStmt:
				report(n.Arrow, "raw channel send bypasses the ts + tw·m cost model; use Proc.Send (or ChargedSend) so the transfer is charged")
			case *ast.UnaryExpr:
				if n.Op.String() == "<-" {
					report(n.OpPos, "raw channel receive bypasses the cost model; use Proc.Recv so arrival time advances the virtual clock")
				}
			case *ast.SelectStmt:
				report(n.Select, "select races on real-time channel readiness; message matching must go through the simulator's deterministic (source, tag) queues")
			case *ast.GoStmt:
				report(n.Go, "goroutine launch in a charged package: concurrency belongs to the simulator runtime, not the formulation")
			case *ast.CallExpr:
				if isMakeChan(pass, n) {
					report(n.Pos(), "channel construction in a charged package: data movement must be charged through the simulator's Proc API")
				}
			}
			return true
		})
	}
	return nil, nil
}

// isMakeChan reports whether call is make(chan …).
func isMakeChan(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "make" || len(call.Args) == 0 {
		return false
	}
	if b, ok := pass.TypesInfo.ObjectOf(id).(*types.Builtin); !ok || b.Name() != "make" {
		return false
	}
	t := pass.TypesInfo.TypeOf(call.Args[0])
	if t == nil {
		return false
	}
	_, isChan := t.Underlying().(*types.Chan)
	return isChan
}
