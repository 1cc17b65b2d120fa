// Package nodetbreak defines an analyzer enforcing the determinism
// contract: for a fixed seed, a simulation and everything derived from
// it (metrics tables, traces, fault replays) must be byte-identical run
// to run. In the packages config.Deterministic names it forbids the
// ambient sources of nondeterminism — wall clocks, the global random
// source, scheduler state — and map iteration that feeds ordered
// output.
package nodetbreak

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"

	"matscale/internal/analysis/config"
)

// Doc is the analyzer's long-form description (shown by -help).
const Doc = `forbid nondeterminism in simulator, faults, and formulation code

Runs are replayed for fault injection and diffed byte-for-byte in tests,
so deterministic packages may not call time.Now/Since/Until, the global
math/rand source, or runtime.NumGoroutine, and may not range over a map
when the loop body emits output, appends to an outer slice, assigns
outer variables, or accumulates floating-point sums (all of which make
results depend on map iteration order). Order-insensitive map loops can
be annotated with a trailing '//nodetbreak:ordered' comment.

sync.Pool declarations and literals are also flagged: Get returns an
arbitrary previously-pooled value, so a pool that carries any
simulation state makes results depend on goroutine scheduling. Pools
reviewed to recycle payload memory only can be annotated with
'//nodetbreak:pooled'.`

// Analyzer is the nodetbreak analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "nodetbreak",
	Doc:  Doc,
	Run:  run,
}

// ordMarker suppresses the map-range check on its line (or the line
// below it), asserting the loop body is insensitive to iteration order.
const ordMarker = "//nodetbreak:ordered"

// pooledMarker suppresses the sync.Pool check on its line (or the line
// below it), asserting the pool recycles payload memory only and
// carries no simulation state.
const pooledMarker = "//nodetbreak:pooled"

// randAllowed lists math/rand constructors that take an explicit source
// or seed; everything else at package level draws from the global,
// unseeded source.
var randAllowed = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !config.Deterministic(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		if config.TestFile(pass.Fset, f.Pos()) {
			continue
		}
		marked := config.MarkedLines(pass.Fset, f, ordMarker)
		pools := poolCheck{pass: pass, pooled: config.MarkedLines(pass.Fset, f, pooledMarker), flagged: map[int]bool{}}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n, marked)
			case *ast.Field:
				pools.check(n.Type)
			case *ast.ValueSpec:
				// The type expression, and each name's type, which
				// also covers an inferred one: var p = newPool().
				pools.check(n.Type)
				for _, name := range n.Names {
					pools.check(name)
				}
			case *ast.CompositeLit:
				// A pool literal, which also covers p := &sync.Pool{…}.
				pools.check(n)
			}
			return true
		})
	}
	return nil, nil
}

// poolCheck reports the struct fields, variables and literals of type
// sync.Pool (or *sync.Pool) in one file of a deterministic package:
// what Get returns depends on goroutine scheduling, so only pools
// reviewed to carry payload memory — never simulation state — are
// allowed, via pooledMarker. A line is reported at most once, as a
// marker covers a whole line.
type poolCheck struct {
	pass    *analysis.Pass
	pooled  map[int]bool // lines carrying pooledMarker
	flagged map[int]bool // lines already reported
}

func (c poolCheck) check(e ast.Expr) {
	if e == nil || !isSyncPool(c.pass.TypesInfo.TypeOf(e)) {
		return
	}
	line := c.pass.Fset.Position(e.Pos()).Line
	if c.pooled[line] || c.pooled[line-1] || c.flagged[line] {
		return
	}
	c.flagged[line] = true
	c.pass.Reportf(e.Pos(), "sync.Pool in a deterministic package: Get returns a scheduling-dependent value; pool payload memory only and annotate %s after review", pooledMarker)
}

// isSyncPool reports whether t is sync.Pool or a pointer to it.
func isSyncPool(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Pool"
}

// checkCall reports calls to forbidden wall-clock, scheduler, and
// global-random functions.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	switch pkg, name := fn.Pkg().Path(), fn.Name(); {
	case pkg == "time" && (name == "Now" || name == "Since" || name == "Until"):
		pass.Reportf(call.Pos(), "call to time.%s breaks run-to-run determinism; advance the virtual clock through the simulator instead", name)
	case pkg == "runtime" && name == "NumGoroutine":
		pass.Reportf(call.Pos(), "runtime.NumGoroutine depends on goroutine scheduling and breaks determinism")
	case (pkg == "math/rand" || pkg == "math/rand/v2") && !randAllowed[name] && fn.Type().(*types.Signature).Recv() == nil:
		pass.Reportf(call.Pos(), "%s.%s draws from the unseeded global source; construct a seeded generator and thread the seed", pkg, name)
	}
}

// checkMapRange reports ranging over a map when the loop body is
// sensitive to iteration order: it emits output, appends to or assigns
// variables declared outside the loop, or accumulates floating-point
// sums (whose value depends on summation order).
func checkMapRange(pass *analysis.Pass, rs *ast.RangeStmt, marked map[int]bool) {
	t := pass.TypesInfo.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	line := pass.Fset.Position(rs.For).Line
	if marked[line] || marked[line-1] {
		return
	}
	if reason := orderSensitive(pass, rs); reason != "" {
		pass.Reportf(rs.For, "range over map %s: map iteration order is random; iterate sorted keys (or annotate %s if the body is order-insensitive)", reason, ordMarker)
	}
}

// orderSensitive returns a non-empty reason when the range body depends
// on iteration order, and "" when the heuristic finds nothing.
func orderSensitive(pass *analysis.Pass, rs *ast.RangeStmt) string {
	var reason string
	set := func(r string) {
		if reason == "" {
			reason = r
		}
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if name, ok := emissionCall(pass, n); ok {
				set(fmt.Sprintf("feeds ordered output through %s", name))
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for i, lhs := range n.Lhs {
				// Writes through an index (m2[k] = v, out[i] = v) hit a
				// distinct element per key and are order-insensitive.
				if _, isIndex := lhs.(*ast.IndexExpr); isIndex {
					continue
				}
				root := rootIdent(lhs)
				if root == nil || !declaredOutside(pass, root, rs) {
					continue
				}
				switch {
				case n.Tok == token.ASSIGN && i < len(n.Rhs) && isAppend(n.Rhs[i]):
					set(fmt.Sprintf("appends to %s declared outside the loop", root.Name))
				case n.Tok == token.ASSIGN && len(n.Rhs) == 1 && len(n.Lhs) > 1 && isAppend(n.Rhs[0]):
					set(fmt.Sprintf("appends to %s declared outside the loop", root.Name))
				case n.Tok == token.ASSIGN:
					set(fmt.Sprintf("assigns %s declared outside the loop", root.Name))
				case isFloat(pass.TypesInfo.TypeOf(lhs)):
					set(fmt.Sprintf("accumulates float %s (summation order changes the result bits)", root.Name))
				}
			}
		case *ast.IncDecStmt:
			// Integer ++/-- is commutative and exact; ignore.
			return true
		}
		return true
	})
	return reason
}

// emissionCall reports whether call writes formatted or serialized
// output, returning a display name for the sink.
func emissionCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return "", false
	}
	name := fn.Name()
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
		(strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Sprint")) {
		return "fmt." + name, true
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		switch name {
		case "Write", "WriteString", "WriteByte", "WriteRune", "WriteTo", "Encode":
			return "method " + name, true
		}
	}
	return "", false
}

// isAppend reports whether e is a call to the append builtin.
func isAppend(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "append"
}

// isFloat reports whether t has floating-point kind.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// rootIdent unwraps selectors and index expressions to the base
// identifier of an lvalue, or nil when the base is not an identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// declaredOutside reports whether id resolves to an object declared
// outside the range statement.
func declaredOutside(pass *analysis.Pass, id *ast.Ident, rs *ast.RangeStmt) bool {
	obj := pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return false
	}
	return obj.Pos() < rs.Pos() || obj.Pos() >= rs.End()
}
