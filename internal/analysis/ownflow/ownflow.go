// Package ownflow defines a control-flow-sensitive analyzer verifying
// the pooled zero-copy messaging discipline of docs/PERFORMANCE.md: a
// buffer handed to an *Owned send (or to Recycle/PutBuf) belongs to the
// runtime afterwards, a buffer obtained from Recv/GetBuf/ExchangeNeighbor
// belongs to the caller and must eventually die into the pool or
// escape, and a sub-slice of a still-used buffer must never travel the
// ownership-transfer path (the pooled slice would alias live memory).
//
// Before this analyzer those rules were enforced by prose comments at
// each call site; ownflow turns them into a linear-ownership dataflow
// over the function's control-flow graph (golang.org/x/tools/go/cfg):
// a forward may-analysis propagates "ownership of v was transferred at
// site S" facts along CFG edges, killed by reassignment of v, and every
// use reached by such a fact is a contract violation. The state machine
// per buffer:
//
//	owned (Recv/GetBuf/make/param) → transferred (*Owned send, Recycle, PutBuf) → dead
//	                             └→ escaped (returned, stored, passed to a call)
//
// A use of a transferred buffer, a second transfer (double Recycle), an
// owned send of a sub-slice whose base is used afterwards, and an owned
// buffer that neither dies nor escapes are all reported. Genuinely safe
// escapes the analysis cannot see are suppressed with a trailing
// '//ownflow:reviewed' comment on the reported line (or the line
// above), reviewed like any other contract comment.
package ownflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/cfg"

	"matscale/internal/analysis/config"
)

// Doc is the analyzer's long-form description (shown by -help).
const Doc = `verify buffer ownership across the pooled zero-copy messaging API

The simulator's ownership-transfer messaging (SendOwned, SendFreeOwned,
SendNeighborOwned, Recycle, PutBuf) recycles message payloads through
a buffer pool. Passing a buffer to one of these transfers its
ownership: using it afterwards reads (or corrupts) pooled memory,
recycling it twice poisons the pool, and transferring a sub-slice of a
buffer that is still used aliases live memory into the pool. Buffers
obtained from Recv/GetBuf/ExchangeNeighbor are caller-owned and must
reach Recycle/PutBuf, an owned send, a return, or another escape, or
the pool churns allocations on the hot path. ownflow tracks these states over the control-flow graph and
reports violations; reviewed escapes are annotated '//ownflow:reviewed'.`

// Analyzer is the ownflow analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "ownflow",
	Doc:  Doc,
	Run:  run,
}

// reviewedMarker suppresses a diagnostic on its line (or the line
// below it), asserting the flagged flow was reviewed and is safe.
const reviewedMarker = "//ownflow:reviewed"

// consumeArg maps the ownership-consuming methods of the simulator's
// pooled messaging API to the index of the argument whose ownership
// transfers to the runtime.
var consumeArg = map[string]int{
	"SendOwned":         2,
	"SendFreeOwned":     2,
	"SendNeighborOwned": 2,
	"Recycle":           0,
	"PutBuf":            0,
}

// producers are the methods whose []float64 result is an owned buffer
// the caller is responsible for: it must die into the pool or escape.
var producers = map[string]bool{
	"Recv":             true,
	"GetBuf":           true,
	"ExchangeNeighbor": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !config.Ownership(pass.Pkg.Path()) {
		return nil, nil
	}
	var r reporter
	for _, f := range pass.Files {
		if config.TestFile(pass.Fset, f.Pos()) {
			continue
		}
		reviewed := config.MarkedLines(pass.Fset, f, reviewedMarker)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// The function body and each function literal inside it are
			// separate control-flow units; buffers crossing a closure
			// boundary are untracked (see trackedVars).
			forEachUnit(fd.Body, func(body *ast.BlockStmt) {
				u := newUnit(pass, body, reviewed, &r)
				u.analyze()
			})
		}
	}
	r.emit(pass)
	return nil, nil
}

// forEachUnit calls fn for body and for the body of every function
// literal nested inside it (each literal once, at any depth).
func forEachUnit(body *ast.BlockStmt, fn func(*ast.BlockStmt)) {
	fn(body)
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			forEachUnit(fl.Body, fn)
			return false
		}
		return true
	})
}

// violation is one deferred diagnostic; collecting them first keeps
// emission ordered by position regardless of fixpoint iteration order.
type violation struct {
	pos token.Pos
	msg string
}

type reporter struct{ vs []violation }

func (r *reporter) add(pos token.Pos, format string, args ...interface{}) {
	r.vs = append(r.vs, violation{pos, fmt.Sprintf(format, args...)})
}

func (r *reporter) emit(pass *analysis.Pass) {
	sort.Slice(r.vs, func(i, j int) bool { return r.vs[i].pos < r.vs[j].pos })
	seen := map[string]bool{}
	for _, v := range r.vs {
		key := fmt.Sprintf("%d:%s", v.pos, v.msg)
		if seen[key] {
			continue
		}
		seen[key] = true
		pass.Reportf(v.pos, "%s", v.msg)
	}
}

// transfer is one ownership-consuming call site for one variable.
type transfer struct {
	call     *ast.CallExpr
	v        *types.Var
	method   string
	subslice bool // the argument was v[...] rather than v itself
	// firstUse is the position of the first use of v reached from this
	// transfer (set during the check pass; NoPos when unreached).
	firstUse token.Pos
}

// unit analyzes one function body (or function literal body).
type unit struct {
	pass     *analysis.Pass
	body     *ast.BlockStmt
	reviewed map[int]bool
	r        *reporter

	graph   *cfg.CFG
	tracked map[*types.Var]bool
	// transfers indexes ownership-consuming events by their CallExpr.
	transfers map[*ast.CallExpr][]*transfer
	// rangeVars maps range-statement Key/Value identifiers to their
	// tracked variable: the CFG places them in the loop pre-header, but
	// semantically they are rebound at the top of every iteration.
	rangeVars map[*ast.Ident]*types.Var
}

func newUnit(pass *analysis.Pass, body *ast.BlockStmt, reviewed map[int]bool, r *reporter) *unit {
	return &unit{pass: pass, body: body, reviewed: reviewed, r: r}
}

// mayReturn prunes CFG edges after calls that never return. Only the
// panic builtin matters in the analyzed packages.
func mayReturn(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return !ok || id.Name != "panic"
}

func (u *unit) analyze() {
	u.findTracked()
	u.checkLeaks() // dropped results need no tracked variables
	if len(u.tracked) == 0 {
		return
	}
	u.findTransfers()
	if len(u.transfers) == 0 {
		return
	}
	u.findRangeDefs()
	u.graph = cfg.New(u.body, mayReturn)
	u.propagate()
}

// findRangeDefs collects the Key/Value identifiers of range statements
// that rebind tracked variables.
func (u *unit) findRangeDefs() {
	u.rangeVars = map[*ast.Ident]*types.Var{}
	ast.Inspect(u.body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		for _, e := range []ast.Expr{rs.Key, rs.Value} {
			if e == nil {
				continue
			}
			if id, ok := unparen(e).(*ast.Ident); ok {
				if v, ok := u.pass.TypesInfo.ObjectOf(id).(*types.Var); ok && u.tracked[v] {
					u.rangeVars[id] = v
				}
			}
		}
		return true
	})
}

// findTracked collects the []float64 variables declared in this unit
// whose every occurrence stays inside the unit and outside nested
// function literals. Buffers captured by closures have unknowable
// lifetimes to a per-unit analysis, so they are left untracked rather
// than misreported.
func (u *unit) findTracked() {
	u.tracked = map[*types.Var]bool{}
	inNested := map[types.Object]bool{}
	ast.Inspect(u.body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			ast.Inspect(fl, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := u.pass.TypesInfo.ObjectOf(id); obj != nil {
						inNested[obj] = true
					}
				}
				return true
			})
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := u.pass.TypesInfo.ObjectOf(id).(*types.Var)
		if !ok || v.IsField() || !isFloatSlice(v.Type()) {
			return true
		}
		// Only variables declared within this unit: parameters and
		// package-level slices may alias state the unit cannot see.
		if v.Pos() >= u.body.Pos() && v.Pos() < u.body.End() {
			u.tracked[v] = true
		}
		return true
	})
	for v := range u.tracked {
		if inNested[v] {
			delete(u.tracked, v)
		}
	}
}

// isFloatSlice reports whether t is []float64.
func isFloatSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Float64
}

// poolMethod resolves call to a method of the simulator package
// (Proc or the Engine interface), returning its name.
func (u *unit) poolMethod(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := u.pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != config.SimulatorPath {
		return "", false
	}
	if fn.Type().(*types.Signature).Recv() == nil {
		return "", false
	}
	return fn.Name(), true
}

// findTransfers records every ownership-consuming call whose consumed
// argument is a tracked variable or a sub-slice of one.
func (u *unit) findTransfers() {
	u.transfers = map[*ast.CallExpr][]*transfer{}
	ast.Inspect(u.body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, ok := u.poolMethod(call)
		if !ok {
			return true
		}
		argIdx, ok := consumeArg[name]
		if !ok || argIdx >= len(call.Args) {
			return true
		}
		arg := unparen(call.Args[argIdx])
		sub := false
		if se, ok := arg.(*ast.SliceExpr); ok {
			arg = unparen(se.X)
			sub = true
		}
		id, ok := arg.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := u.pass.TypesInfo.ObjectOf(id).(*types.Var)
		if !ok || !u.tracked[v] {
			return true
		}
		u.transfers[call] = append(u.transfers[call],
			&transfer{call: call, v: v, method: name, subslice: sub})
		return true
	})
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// ---------------------------------------------------------------------
// Leak check: owned buffers produced by Recv/GetBuf/ExchangeNeighbor
// must die into the pool or escape.
// ---------------------------------------------------------------------

// checkLeaks flags producer calls whose buffer is dropped outright and
// tracked variables holding produced buffers that neither die nor
// escape anywhere in the unit. The check is flow-insensitive and
// deliberately conservative: any call argument position, store, or
// return counts as an escape.
func (u *unit) checkLeaks() {
	produced := map[*types.Var][]*ast.CallExpr{} // var → producing calls
	ast.Inspect(u.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ExprStmt:
			// A producer call as a bare statement drops its buffer.
			if call, ok := n.X.(*ast.CallExpr); ok {
				if name, ok := u.poolMethod(call); ok && producers[name] && isFloatSlice(u.pass.TypesInfo.TypeOf(call)) {
					u.report(call.Pos(),
						"result of %s is discarded: the delivered buffer never returns to the pool; recycle it (or annotate %s after review)",
						name, reviewedMarker)
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				u.recordProduced(produced, unparen(n.Lhs[i]), rhs)
			}
		case *ast.ValueSpec:
			for i, val := range n.Values {
				if i >= len(n.Names) {
					break
				}
				u.recordProduced(produced, n.Names[i], val)
			}
		}
		return true
	})
	for v, calls := range produced {
		if u.diesOrEscapes(v) {
			continue
		}
		sort.Slice(calls, func(i, j int) bool { return calls[i].Pos() < calls[j].Pos() })
		u.report(calls[0].Pos(),
			"buffer held by %s never reaches Recycle/PutBuf and never escapes: the pool churns an allocation per message on this path; recycle it when consumed (or annotate %s after review)",
			v.Name(), reviewedMarker)
	}
}

// recordProduced notes a producer call bound to lhs: dropped into the
// blank identifier it reports immediately; bound to a tracked variable
// it is queued for the dies-or-escapes check.
func (u *unit) recordProduced(produced map[*types.Var][]*ast.CallExpr, lhs ast.Expr, rhs ast.Expr) {
	call, ok := unparen(rhs).(*ast.CallExpr)
	if !ok {
		return
	}
	name, ok := u.poolMethod(call)
	if !ok || !producers[name] {
		return
	}
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return
	}
	if id.Name == "_" {
		u.report(call.Pos(),
			"result of %s is assigned to the blank identifier: the delivered buffer never returns to the pool; recycle it (or annotate %s after review)",
			name, reviewedMarker)
		return
	}
	if v, ok := u.pass.TypesInfo.ObjectOf(id).(*types.Var); ok && u.tracked[v] {
		produced[v] = append(produced[v], call)
	}
}

// diesOrEscapes reports whether any occurrence of v lets the buffer
// leave the unit's custody: a consuming pool call, any other call
// argument that can retain the backing array (except the non-retaining
// builtins len/cap/copy/append/min/max), a non-scalar return, a store
// into another lvalue, or a composite literal element. Expressions of
// basic type (buf[0], len(buf)) read the buffer without retaining it
// and do not count.
func (u *unit) diesOrEscapes(v *types.Var) bool {
	escaped := false
	ast.Inspect(u.body, func(n ast.Node) bool {
		if escaped {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			for _, arg := range n.Args {
				if !u.retains(arg, v) {
					continue
				}
				if id, ok := n.Fun.(*ast.Ident); ok {
					switch id.Name {
					case "len", "cap", "copy", "append", "min", "max":
						continue // reads the slice, does not retain it
					}
				}
				escaped = true
				return false
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if u.retains(res, v) {
					escaped = true
					return false
				}
			}
		case *ast.AssignStmt:
			// v on the right of an assignment whose left side is not v
			// itself stores the buffer somewhere the unit no longer
			// controls (another variable, a field, an element).
			for i, rhs := range n.Rhs {
				if !u.retains(rhs, v) {
					continue
				}
				if len(n.Lhs) == len(n.Rhs) {
					if id, ok := unparen(n.Lhs[i]).(*ast.Ident); ok && u.objIs(id, v) {
						continue // v = v[1:] style self-update
					}
				}
				escaped = true
				return false
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if u.retains(elt, v) {
					escaped = true
					return false
				}
			}
		}
		return true
	})
	return escaped
}

// retains reports whether evaluating e can retain v's backing array:
// e mentions v and e's own value is not of basic type.
func (u *unit) retains(e ast.Expr, v *types.Var) bool {
	if !u.mentionsVar(e, v) {
		return false
	}
	t := u.pass.TypesInfo.TypeOf(e)
	if t == nil {
		return true // unknown type: assume the worst
	}
	_, basic := t.Underlying().(*types.Basic)
	return !basic
}

// mentionsVar reports whether e contains an identifier resolving to v.
func (u *unit) mentionsVar(e ast.Expr, v *types.Var) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && u.objIs(id, v) {
			found = true
		}
		return !found
	})
	return found
}

func (u *unit) objIs(id *ast.Ident, v *types.Var) bool {
	return u.pass.TypesInfo.ObjectOf(id) == v
}

// ---------------------------------------------------------------------
// Use-after-transfer: forward may-analysis over the CFG.
// ---------------------------------------------------------------------

// state maps each tracked variable to the set of transfer sites that
// may have consumed it on some path reaching the current point.
type state map[*types.Var]map[*transfer]bool

func (s state) clone() state {
	out := make(state, len(s))
	for v, sites := range s {
		cp := make(map[*transfer]bool, len(sites))
		for t := range sites {
			cp[t] = true
		}
		out[v] = cp
	}
	return out
}

// join unions o into s, reporting whether s changed.
func (s state) join(o state) bool {
	changed := false
	for v, sites := range o {
		dst := s[v]
		if dst == nil {
			dst = map[*transfer]bool{}
			s[v] = dst
		}
		for t := range sites {
			if !dst[t] {
				dst[t] = true
				changed = true
			}
		}
	}
	return changed
}

// propagate runs the forward fixpoint and then the reporting pass.
func (u *unit) propagate() {
	in := make([]state, len(u.graph.Blocks))
	for i := range in {
		in[i] = state{}
	}
	// Fixpoint: iterate until block-entry states stabilize. Blocks form
	// a small graph per function; simple round-robin converges quickly
	// because the lattice (sets of transfer sites) is finite.
	for changed := true; changed; {
		changed = false
		for _, b := range u.graph.Blocks {
			if !b.Live {
				continue
			}
			out := u.flowBlock(b, in[b.Index].clone(), nil)
			for _, succ := range b.Succs {
				if in[succ.Index].join(out) {
					changed = true
				}
			}
		}
	}
	// Reporting pass over the stabilized states.
	for _, b := range u.graph.Blocks {
		if !b.Live {
			continue
		}
		u.flowBlock(b, in[b.Index].clone(), u.r)
	}
	u.reportSubsliceSites()
}

// flowBlock pushes st through the block's nodes in order, returning
// the exit state. With r non-nil, contract violations are recorded.
func (u *unit) flowBlock(b *cfg.Block, st state, r *reporter) state {
	// A range loop rebinds its Key/Value variables at the top of every
	// iteration; the CFG only materializes that binding in the
	// pre-header, so replay the kill at the loop head.
	if b.Kind == cfg.KindRangeLoop {
		if rs, ok := b.Stmt.(*ast.RangeStmt); ok {
			for _, e := range []ast.Expr{rs.Key, rs.Value} {
				if e == nil {
					continue
				}
				if id, ok := unparen(e).(*ast.Ident); ok {
					if v, ok := u.pass.TypesInfo.ObjectOf(id).(*types.Var); ok {
						delete(st, v)
					}
				}
			}
		}
	}
	for _, n := range b.Nodes {
		u.flowNode(n, st, r)
	}
	return st
}

// flowNode applies one CFG node: check uses against the entry state,
// then apply transfers (gen), then reassignments (kill).
func (u *unit) flowNode(n ast.Node, st state, r *reporter) {
	// A bare range Key/Value identifier node is a binding, not a use.
	if id, ok := n.(*ast.Ident); ok {
		if v, ok := u.rangeVars[id]; ok {
			delete(st, v)
			return
		}
	}

	transferArgs := map[*ast.Ident]bool{}
	var transfers []*transfer
	var defs []*types.Var

	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			// Deferred calls run at function exit, not here; treating a
			// deferred Recycle as an immediate transfer would flag every
			// subsequent use. The deferred call still counts as an
			// escape for the leak check.
			return false
		case *ast.CallExpr:
			for _, t := range u.transfers[m] {
				transfers = append(transfers, t)
				// The consumed argument's identifier belongs to the
				// transfer event, not to the plain uses.
				if id, ok := u.consumedIdent(m, t); ok {
					transferArgs[id] = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range m.Lhs {
				if id, ok := unparen(lhs).(*ast.Ident); ok {
					if v, ok := u.pass.TypesInfo.ObjectOf(id).(*types.Var); ok && u.tracked[v] {
						defs = append(defs, v)
						transferArgs[id] = true // LHS ident is a def, not a use
					}
				}
			}
		case *ast.ValueSpec:
			// var x []float64 (re)binds x: a def, not a use.
			for _, name := range m.Names {
				if v, ok := u.pass.TypesInfo.ObjectOf(name).(*types.Var); ok && u.tracked[v] {
					defs = append(defs, v)
					transferArgs[name] = true
				}
			}
		}
		return true
	})

	// 1. Uses against the entry state.
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.Ident:
			if transferArgs[m] {
				return true
			}
			v, ok := u.pass.TypesInfo.ObjectOf(m).(*types.Var)
			if !ok || !u.tracked[v] {
				return true
			}
			for t := range st[v] {
				u.recordUse(r, m, t)
			}
		}
		return true
	})

	// 2. Transfers: a transfer of an already-transferred buffer is
	// itself a violation (double Recycle / double owned send), then the
	// site joins the state.
	for _, t := range transfers {
		for prev := range st[t.v] {
			u.recordRetransfer(r, t, prev)
		}
		sites := st[t.v]
		if sites == nil {
			sites = map[*transfer]bool{}
			st[t.v] = sites
		}
		sites[t] = true
	}

	// 3. Kills: reassignment gives the variable a fresh buffer.
	for _, v := range defs {
		delete(st, v)
	}
}

// consumedIdent returns the identifier of the consumed argument of t
// inside call (unwrapping a sub-slice expression).
func (u *unit) consumedIdent(call *ast.CallExpr, t *transfer) (*ast.Ident, bool) {
	idx := consumeArg[t.method]
	if idx >= len(call.Args) {
		return nil, false
	}
	arg := unparen(call.Args[idx])
	if se, ok := arg.(*ast.SliceExpr); ok {
		arg = unparen(se.X)
	}
	id, ok := arg.(*ast.Ident)
	return id, ok
}

// recordUse reports a use of a may-transferred buffer. Whole-variable
// transfers report at the use; sub-slice transfers report at the
// transfer site (the send is the mistake there — the base variable's
// continued use is legitimate), so here they only record the use
// position for reportSubsliceSites.
func (u *unit) recordUse(r *reporter, id *ast.Ident, t *transfer) {
	if t.subslice {
		if t.firstUse == token.NoPos || id.Pos() < t.firstUse {
			t.firstUse = id.Pos()
		}
		return
	}
	if r == nil || u.suppressed(id.Pos()) {
		return
	}
	r.add(id.Pos(),
		"use of %s after its ownership was transferred to the runtime at line %d (%s): the buffer may already be recycled into another message; copy before sending, or restructure so the buffer is dead (or annotate %s after review)",
		id.Name, u.line(t.call.Pos()), t.method, reviewedMarker)
}

// recordRetransfer reports a second consumption of the same buffer.
func (u *unit) recordRetransfer(r *reporter, t, prev *transfer) {
	if prev.subslice {
		// The earlier sub-slice send reports at its own site; this
		// consumption is also a use of the base variable.
		if prev.firstUse == token.NoPos || t.call.Pos() < prev.firstUse {
			prev.firstUse = t.call.Pos()
		}
		return
	}
	if r == nil || u.suppressed(t.call.Pos()) {
		return
	}
	what := "transferred again by " + t.method
	if t.method == "Recycle" && prev.method == "Recycle" {
		what = "recycled twice"
	}
	r.add(t.call.Pos(),
		"%s already transferred at line %d (%s) is %s: double consumption corrupts the buffer pool (or annotate %s after review)",
		t.v.Name(), u.line(prev.call.Pos()), prev.method, what, reviewedMarker)
}

// reportSubsliceSites emits the deferred sub-slice diagnostics: an
// owned transfer of v[...] is only wrong when v is still used on some
// path after the call.
func (u *unit) reportSubsliceSites() {
	var sites []*transfer
	for _, ts := range u.transfers {
		for _, t := range ts {
			if t.subslice && t.firstUse != token.NoPos {
				sites = append(sites, t)
			}
		}
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].call.Pos() < sites[j].call.Pos() })
	for _, t := range sites {
		if u.suppressed(t.call.Pos()) {
			continue
		}
		u.r.add(t.call.Pos(),
			"%s hands a sub-slice of %s to the pool while %s is still used at line %d: the pooled slice aliases the live buffer, so a later delivery would overwrite it; send a copy instead (or annotate %s after review)",
			t.method, t.v.Name(), t.v.Name(), u.line(t.firstUse), reviewedMarker)
	}
}

func (u *unit) report(pos token.Pos, format string, args ...interface{}) {
	if u.suppressed(pos) {
		return
	}
	u.r.add(pos, format, args...)
}

// suppressed reports whether pos's line (or the one above) carries the
// reviewed marker.
func (u *unit) suppressed(pos token.Pos) bool {
	line := u.line(pos)
	return u.reviewed[line] || u.reviewed[line-1]
}

func (u *unit) line(pos token.Pos) int {
	return u.pass.Fset.Position(pos).Line
}
