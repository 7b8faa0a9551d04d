package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"ccnic/internal/lint/flow"
)

// Ownlint enforces linear ownership of bufpool buffers, the statically
// provable form of the conservation invariant the runtime engine checks
// (DESIGN.md §5): a buffer returned by a function annotated //ccnic:owns
// (Port.Alloc, ring.Reg.Take, ...) must be released or transferred exactly
// once on every path. The analyzer runs a forward dataflow problem over each
// function's CFG (internal/lint/flow) with a four-point lattice per tracked
// variable — untracked, owned, released, maybe-released — and reports:
//
//   - a leak: an owned buffer still live on some path reaching return;
//   - a double release: a buffer passed to a //ccnic:transfer function
//     twice on one path;
//   - a use after release;
//   - an owned return from a function not annotated //ccnic:owns, which
//     would silently break the interprocedural contract.
//
// Transfers are: a call argument to a //ccnic:transfer function (the only
// way a callee takes ownership; an unannotated helper that frees its
// parameter still only borrows it), a store into a
// field/slice/map/channel/global, append, and return. Assigning a tracked
// variable to another local moves ownership (the source becomes untracked),
// so aliases are not double-counted; `if b == nil` branches refine the nil
// arm to untracked so the early-return idiom stays clean. Buffers captured
// by function literals or go statements leave the analysis (conservatively
// silent). //ccnic:own-ok suppresses a finding with a rationale.
var Ownlint = &Analyzer{
	Name: "ownlint",
	Doc:  "enforce release-or-transfer-exactly-once ownership of bufpool buffers",
	Run:  runOwnlint,
}

func runOwnlint(pass *Pass) error {
	facts := pass.Prog.ownFactsOf()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			oc := &ownChecker{pass: pass, info: pass.TypesInfo, facts: facts, fn: fn}
			oc.check(fd)
		}
	}
	return nil
}

// ownState is one tracked variable's point in the ownership lattice.
type ownState uint8

const (
	// ownUntracked: not an owned acquisition on this path (bottom).
	ownUntracked ownState = iota
	// ownOwned: an accounted owned buffer; release or transfer exactly once.
	ownOwned
	// ownReleased: released or transferred; further uses are errors.
	ownReleased
	// ownMaybe: owned on some path, released on another (top).
	ownMaybe
)

// joinState merges two path states. The joins are asymmetric on purpose:
// untracked⊔owned=owned keeps the release obligation of a conditional
// acquisition, while untracked⊔released=untracked keeps the
// `if b != nil { Free(b) }` merge clean instead of poisoning later reads.
func joinState(a, b ownState) ownState {
	if a == b {
		return a
	}
	if a > b {
		a, b = b, a
	}
	switch {
	case b == ownMaybe:
		return ownMaybe
	case a == ownUntracked && b == ownReleased:
		return ownUntracked
	case a == ownUntracked:
		return b // owned: the obligation survives the join
	default:
		return ownMaybe // owned⊔released
	}
}

// ownVal carries a variable's state plus its acquisition site, so leaks are
// reported where the buffer was acquired, not at the synthetic exit.
type ownVal struct {
	st  ownState
	pos token.Pos
}

// ownMap is one path state's tracked variables. Untracked entries are never
// stored (absence is untracked), which keeps equality a simple comparison.
type ownMap map[*types.Var]ownVal

// ownSt is the solver state: the variable map plus a reached bit. The bit
// matters because this lattice's bottom is NOT the empty map — a reached
// path with no tracked variables joins entries down to untracked
// (absence⊔released = untracked), while an unreached edge must leave the
// other side alone.
type ownSt struct {
	reached bool
	m       ownMap
}

func copyOwn(m ownMap) ownMap {
	out := make(ownMap, len(m))
	for v, s := range m {
		out[v] = s
	}
	return out
}

func ownJoin(a, b ownSt) ownSt {
	if !a.reached {
		return b
	}
	if !b.reached {
		return a
	}
	out := ownMap{}
	set := func(v *types.Var, val ownVal) {
		if val.st != ownUntracked {
			out[v] = val
		}
	}
	for v, av := range a.m {
		if bv, ok := b.m[v]; ok {
			pos := av.pos
			if !pos.IsValid() || (bv.pos.IsValid() && bv.pos < pos) {
				pos = bv.pos
			}
			set(v, ownVal{st: joinState(av.st, bv.st), pos: pos})
		} else {
			set(v, ownVal{st: joinState(av.st, ownUntracked), pos: av.pos})
		}
	}
	for v, bv := range b.m {
		if _, ok := a.m[v]; !ok {
			set(v, ownVal{st: joinState(bv.st, ownUntracked), pos: bv.pos})
		}
	}
	return ownSt{reached: true, m: out}
}

func ownEq(a, b ownSt) bool {
	if a.reached != b.reached || len(a.m) != len(b.m) {
		return false
	}
	for v, av := range a.m {
		if bv, ok := b.m[v]; !ok || av.st != bv.st {
			return false
		}
	}
	return true
}

// ownFacts are the interprocedural summaries ownlint checks against, read
// straight off the annotations: acquires holds the functions whose returned
// buffer the caller owns (//ccnic:owns); consumes maps a function to the
// parameter indices whose buffer it takes ownership of (//ccnic:transfer).
type ownFacts struct {
	acquires map[*types.Func]bool
	consumes map[*types.Func]map[int]bool
}

// ownFactsOf builds (once) the ownership summaries of the loaded program.
func (pr *Program) ownFactsOf() *ownFacts {
	if pr.owns != nil {
		return pr.owns
	}
	facts := &ownFacts{
		acquires: map[*types.Func]bool{},
		consumes: map[*types.Func]map[int]bool{},
	}
	for _, pkg := range pr.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				if pr.FuncAnnotated(pkg, fd, AnnotOwns) {
					facts.acquires[fn] = true
				}
				if !pr.FuncAnnotated(pkg, fd, AnnotTransfer) {
					continue
				}
				params := fn.Type().(*types.Signature).Params()
				idx := map[int]bool{}
				for i := 0; i < params.Len(); i++ {
					if t := params.At(i).Type(); isBufPtr(t) || isBufSlice(t) {
						idx[i] = true
					}
				}
				facts.consumes[fn] = idx
			}
		}
	}
	pr.owns = facts
	return facts
}

// isBufPtr reports whether t is a pointer to a named struct type called Buf
// (the bufpool convention; fixtures declare their own Buf, mirroring
// probelint's Probe convention).
func isBufPtr(t types.Type) bool {
	if t == nil {
		return false
	}
	p, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	return ok && n.Obj().Name() == "Buf"
}

// isBufSlice reports whether t is a slice of Buf pointers.
func isBufSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	return ok && isBufPtr(s.Elem())
}

// ownChecker runs the ownership problem over one function.
type ownChecker struct {
	pass  *Pass
	info  *types.Info
	facts *ownFacts
	fn    *types.Func

	// reporting is off while the solver iterates and on for the single
	// replay of the solution, so each finding is reported once.
	reporting bool
}

// check solves the ownership problem for fd, replays the solution to report
// findings, and reports the obligations still live at exit, after deferred
// calls.
func (oc *ownChecker) check(fd *ast.FuncDecl) {
	g := flow.Build(fd, oc.info)
	ins := flow.Solve(g, flow.Problem[ownSt]{
		Bottom:   func() ownSt { return ownSt{} },
		Entry:    func() ownSt { return ownSt{reached: true, m: ownMap{}} },
		Join:     ownJoin,
		Equal:    ownEq,
		Transfer: oc.transfer,
		Refine:   oc.refine,
	})
	oc.reporting = true
	exit := ownMap{}
	for _, blk := range g.Blocks {
		out := oc.transfer(blk, ins[blk])
		if blk == g.Exit && out.reached {
			exit = out.m
		}
	}
	oc.leakCheck(fd, exit)
}

// leakCheck reports every obligation still live at exit, at its acquisition
// site.
func (oc *ownChecker) leakCheck(fd *ast.FuncDecl, exit ownMap) {
	type leak struct {
		v   *types.Var
		val ownVal
	}
	var leaks []leak
	//ccnic:nondet-ok sorted-collect: totally ordered below by (pos, name)
	for v, val := range exit {
		if val.st == ownOwned || val.st == ownMaybe {
			leaks = append(leaks, leak{v, val})
		}
	}
	sort.Slice(leaks, func(i, j int) bool {
		if leaks[i].val.pos != leaks[j].val.pos {
			return leaks[i].val.pos < leaks[j].val.pos
		}
		return leaks[i].v.Name() < leaks[j].v.Name()
	})
	for _, l := range leaks {
		pos := l.val.pos
		if !pos.IsValid() {
			pos = fd.Pos()
		}
		switch l.val.st {
		case ownMaybe:
			oc.reportf(pos, "buffer %s is released or transferred on some paths to return but not all", l.v.Name())
		case ownOwned:
			oc.reportf(pos, "owned buffer %s is not released or transferred on every path to return", l.v.Name())
		case ownUntracked, ownReleased:
			// Filtered out when collecting leaks; nothing to report.
		}
	}
}

func (oc *ownChecker) reportf(pos token.Pos, format string, args ...any) {
	if !oc.reporting || oc.pass.Prog.Suppressed(oc.pass.Pkg, pos, AnnotOwnOK) {
		return
	}
	oc.pass.Report(pos, format, args...)
}

// transfer applies one block's statements, in order, to a copy of in.
// Unreached blocks stay bottom: nothing in them executes, so nothing in
// them is reported.
func (oc *ownChecker) transfer(b *flow.Block, in ownSt) ownSt {
	if !in.reached {
		return in
	}
	st := copyOwn(in.m)
	for _, n := range b.Nodes {
		oc.node(n, st)
	}
	return ownSt{reached: true, m: st}
}

// refine drops the nil arm of a `b == nil` / `b != nil` branch from
// tracking: a nil buffer carries no obligation, so the early-return idiom
// joins clean.
func (oc *ownChecker) refine(e *flow.Edge, out ownSt) ownSt {
	cond := e.From.Cond
	if cond == nil || !out.reached {
		return out
	}
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return out
	}
	v := oc.nilCompareVar(bin)
	if v == nil {
		return out
	}
	nilArm := (bin.Op == token.EQL && e.Kind == flow.EdgeTrue) ||
		(bin.Op == token.NEQ && e.Kind == flow.EdgeFalse)
	if !nilArm {
		return out
	}
	if _, ok := out.m[v]; !ok {
		return out
	}
	cp := copyOwn(out.m)
	delete(cp, v)
	return ownSt{reached: true, m: cp}
}

// nilCompareVar returns the tracked variable compared against nil in bin.
func (oc *ownChecker) nilCompareVar(bin *ast.BinaryExpr) *types.Var {
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	var other ast.Expr
	switch {
	case isNil(bin.X):
		other = bin.Y
	case isNil(bin.Y):
		other = bin.X
	default:
		return nil
	}
	if id, ok := ast.Unparen(other).(*ast.Ident); ok {
		return oc.trackedVar(id)
	}
	return nil
}

// trackedVar resolves id to a local (or parameter) variable of buffer
// pointer type; package-level variables and fields stay untracked.
func (oc *ownChecker) trackedVar(id *ast.Ident) *types.Var {
	obj := oc.info.Uses[id]
	if obj == nil {
		obj = oc.info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || !isBufPtr(v.Type()) {
		return nil
	}
	if v.Pkg() == nil || v.Parent() == nil || v.Parent() == v.Pkg().Scope() {
		return nil
	}
	return v
}

// node applies one CFG node. h collects identifiers already given a precise
// meaning (moved, consumed, assigned, nil-compared), so the trailing use
// scan only flags genuinely stale reads.
func (oc *ownChecker) node(n ast.Node, st ownMap) {
	h := map[*ast.Ident]bool{}
	oc.markNilCompares(n, h)
	switch n := n.(type) {
	case *ast.AssignStmt:
		oc.assign(n, st, h)
	case *ast.DeclStmt:
		oc.declStmt(n, st, h)
	case *ast.ExprStmt:
		oc.expr(n.X, st, h)
	case *ast.SendStmt:
		oc.expr(n.Chan, st, h)
		oc.consume(n.Value, st, h)
	case *ast.ReturnStmt:
		oc.ret(n, st, h)
	case *ast.GoStmt:
		// The spawned call runs concurrently; everything it touches leaves
		// the analysis.
		oc.abandon(n, st)
	case ast.Expr:
		// Branch conditions, case expressions, range operands, defer
		// arguments, and defer calls replayed in the exit block.
		oc.expr(n, st, h)
	}
	oc.scanUses(n, st, h)
}

// markNilCompares pre-marks tracked identifiers compared against nil:
// reading the pointer value does not dereference a released buffer.
func (oc *ownChecker) markNilCompares(n ast.Node, h map[*ast.Ident]bool) {
	ast.Inspect(n, func(x ast.Node) bool {
		bin, ok := x.(*ast.BinaryExpr)
		if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
			return true
		}
		isNil := func(e ast.Expr) bool {
			id, ok := ast.Unparen(e).(*ast.Ident)
			return ok && id.Name == "nil"
		}
		mark := func(e ast.Expr) {
			if id, ok := ast.Unparen(e).(*ast.Ident); ok && oc.trackedVar(id) != nil {
				h[id] = true
			}
		}
		if isNil(bin.X) {
			mark(bin.Y)
		}
		if isNil(bin.Y) {
			mark(bin.X)
		}
		return true
	})
}

// assign processes `lhs... (:)= rhs...`: all sources first (moves and
// acquisitions), then all targets, so swaps stay correct.
func (oc *ownChecker) assign(as *ast.AssignStmt, st ownMap, h map[*ast.Ident]bool) {
	if len(as.Lhs) != len(as.Rhs) {
		// Tuple form: no single-value ownership flows through; evaluate for
		// nested calls and give every pointer target a fresh untracked value.
		for _, r := range as.Rhs {
			oc.expr(r, st, h)
		}
		for _, l := range as.Lhs {
			oc.assignTo(l, ownVal{}, st, h)
		}
		return
	}
	vals := make([]ownVal, len(as.Rhs))
	for i, r := range as.Rhs {
		vals[i] = oc.evalRHS(r, st, h)
	}
	for i, l := range as.Lhs {
		oc.assignTo(l, vals[i], st, h)
	}
}

// evalRHS evaluates one assignment source and returns the ownership its
// value carries: a move out of a tracked variable, or an acquisition from an
// annotated call.
func (oc *ownChecker) evalRHS(r ast.Expr, st ownMap, h map[*ast.Ident]bool) ownVal {
	r = ast.Unparen(r)
	if id, ok := r.(*ast.Ident); ok {
		if v := oc.trackedVar(id); v != nil {
			h[id] = true
			val := st[v]
			if val.st == ownReleased || val.st == ownMaybe {
				oc.useAfter(id, val.st)
				val = ownVal{}
			}
			delete(st, v) // move semantics: ownership follows the value
			return val
		}
		return ownVal{}
	}
	if call, ok := r.(*ast.CallExpr); ok {
		return oc.call(call, st, h, true)
	}
	oc.expr(r, st, h)
	return ownVal{}
}

// assignTo binds val to one assignment target. A composite target (field,
// index, dereference) is a store: the value's ownership transfers into the
// containing structure and tracking ends.
func (oc *ownChecker) assignTo(l ast.Expr, val ownVal, st ownMap, h map[*ast.Ident]bool) {
	l = ast.Unparen(l)
	if id, ok := l.(*ast.Ident); ok {
		if id.Name == "_" {
			if val.st == ownOwned {
				oc.reportf(id.Pos(), "owned buffer discarded by assignment to _; it is never released")
			}
			return
		}
		if v := oc.trackedVar(id); v != nil {
			h[id] = true
			if old := st[v]; old.st == ownOwned || old.st == ownMaybe {
				oc.reportf(id.Pos(), "buffer %s overwritten while still owned; the previous buffer leaks", id.Name)
			}
			if val.st == ownUntracked {
				delete(st, v)
			} else {
				st[v] = val
			}
			return
		}
	}
	// Store into a field/slice/map/global: evaluate index expressions for
	// nested calls; the stored value's obligation is discharged.
	oc.expr(l, st, h)
}

// declStmt handles `var b = ...` declarations like assignments.
func (oc *ownChecker) declStmt(ds *ast.DeclStmt, st ownMap, h map[*ast.Ident]bool) {
	gd, ok := ds.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		if len(vs.Values) == 0 {
			// `var b *Buf` (re-)declares b as nil: inside a loop body this
			// runs every iteration, killing last iteration's state.
			for _, name := range vs.Names {
				if v := oc.trackedVar(name); v != nil {
					h[name] = true
					delete(st, v)
				}
			}
			continue
		}
		if len(vs.Values) != len(vs.Names) {
			continue
		}
		for i, name := range vs.Names {
			val := oc.evalRHS(vs.Values[i], st, h)
			oc.assignTo(name, val, st, h)
		}
	}
}

// ret processes a return statement: returning an owned buffer is a transfer
// to the caller, legal only when the function advertises it via //ccnic:owns
// (callers would otherwise leak silently).
func (oc *ownChecker) ret(r *ast.ReturnStmt, st ownMap, h map[*ast.Ident]bool) {
	annotated := oc.facts.acquires[oc.fn]
	for _, res := range r.Results {
		res = ast.Unparen(res)
		if id, ok := res.(*ast.Ident); ok {
			if v := oc.trackedVar(id); v != nil {
				h[id] = true
				switch st[v].st {
				case ownOwned:
					if !annotated {
						oc.reportf(id.Pos(), "returning owned buffer %s from a function not annotated //ccnic:owns; callers will leak it", id.Name)
					}
				case ownReleased, ownMaybe:
					oc.useAfter(id, st[v].st)
				case ownUntracked:
					// Caller-owned parameter or plain pointer: no contract.
				}
				st[v] = ownVal{st: ownReleased, pos: st[v].pos}
				continue
			}
		}
		if call, ok := res.(*ast.CallExpr); ok {
			val := oc.call(call, st, h, true)
			if val.st == ownOwned && !annotated {
				oc.reportf(res.Pos(), "returning an owned buffer from a function not annotated //ccnic:owns; callers will leak it")
			}
			continue
		}
		oc.expr(res, st, h)
	}
}

// expr walks an expression, dispatching nested calls (which handle their own
// arguments) and abandoning anything captured by a function literal.
func (oc *ownChecker) expr(e ast.Expr, st ownMap, h map[*ast.Ident]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			oc.abandon(x, st)
			return false
		case *ast.CallExpr:
			oc.call(x, st, h, false)
			return false
		}
		return true
	})
}

// call applies one call's ownership effects: consumed arguments transfer,
// and an acquiring callee's result must be captured.
func (oc *ownChecker) call(call *ast.CallExpr, st ownMap, h map[*ast.Ident]bool, captured bool) ownVal {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
		if _, isBuiltin := oc.info.Uses[id].(*types.Builtin); isBuiltin {
			// append(s, b...) moves the appended buffers into the slice.
			if len(call.Args) > 0 {
				oc.expr(call.Args[0], st, h)
				for _, a := range call.Args[1:] {
					oc.consume(a, st, h)
				}
			}
			return ownVal{}
		}
	}
	callee := calleeOf(oc.info, call)
	oc.expr(call.Fun, st, h)

	consumes := oc.facts.consumes[callee]
	var nparams int
	if callee != nil {
		if sig, ok := callee.Type().(*types.Signature); ok {
			nparams = sig.Params().Len()
		}
	}
	for i, a := range call.Args {
		pidx := i
		if nparams > 0 && pidx >= nparams {
			pidx = nparams - 1 // variadic tail
		}
		if consumes[pidx] {
			oc.consume(a, st, h)
		} else {
			oc.borrow(a, st, h)
		}
	}

	if callee != nil && oc.facts.acquires[callee] {
		if !captured {
			oc.reportf(call.Pos(), "owned buffer returned by %s is discarded; it is never released", callee.Name())
			return ownVal{}
		}
		return ownVal{st: ownOwned, pos: call.Pos()}
	}
	return ownVal{}
}

// consume transfers ownership of one argument into the callee.
func (oc *ownChecker) consume(a ast.Expr, st ownMap, h map[*ast.Ident]bool) {
	a = ast.Unparen(a)
	if id, ok := a.(*ast.Ident); ok {
		if v := oc.trackedVar(id); v != nil {
			h[id] = true
			switch st[v].st {
			case ownReleased:
				oc.reportf(id.Pos(), "buffer %s is released or transferred a second time on this path", id.Name)
			case ownMaybe:
				oc.reportf(id.Pos(), "buffer %s may already be released or transferred on a path reaching here", id.Name)
			case ownUntracked, ownOwned:
				// A single live release: exactly the contract.
			}
			st[v] = ownVal{st: ownReleased, pos: st[v].pos}
			return
		}
	}
	if call, ok := a.(*ast.CallExpr); ok {
		oc.call(call, st, h, true) // acquired result flows straight into the consumer
		return
	}
	oc.expr(a, st, h)
}

// borrow evaluates a non-consuming argument; the callee only borrows it.
func (oc *ownChecker) borrow(a ast.Expr, st ownMap, h map[*ast.Ident]bool) {
	a = ast.Unparen(a)
	if call, ok := a.(*ast.CallExpr); ok {
		oc.call(call, st, h, false)
		return
	}
	if _, ok := a.(*ast.Ident); ok {
		return // the trailing use scan vets the read
	}
	oc.expr(a, st, h)
}

// scanUses reports reads of released buffers the specific handlers did not
// already account for.
func (oc *ownChecker) scanUses(n ast.Node, st ownMap, h map[*ast.Ident]bool) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			oc.abandon(x, st)
			return false
		case *ast.Ident:
			if h[x] {
				return true
			}
			v := oc.trackedVar(x)
			if v == nil {
				return true
			}
			if s := st[v].st; s == ownReleased || s == ownMaybe {
				oc.useAfter(x, s)
				delete(st, v) // report once per stale variable, not per read
			}
		}
		return true
	})
}

func (oc *ownChecker) useAfter(id *ast.Ident, s ownState) {
	if s == ownMaybe {
		oc.reportf(id.Pos(), "buffer %s used here but may be released or transferred on a path reaching this point", id.Name)
		return
	}
	oc.reportf(id.Pos(), "buffer %s used after it was released or transferred", id.Name)
}

// abandon removes every tracked variable mentioned under n from the
// analysis: closures and go statements take custody conservatively.
func (oc *ownChecker) abandon(n ast.Node, st ownMap) {
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok {
			if v := oc.trackedVar(id); v != nil {
				delete(st, v)
			}
		}
		return true
	})
}
