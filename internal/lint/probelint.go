package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Probelint requires every call through a Probe-typed validation hook to be
// nil-guarded. The model packages emit validation events through optional
// Probe interfaces (coherence.Probe, sim.Probe); the contract (DESIGN.md §5)
// is that a run without a checker attached pays exactly one predictable
// branch per hook. An unguarded call makes the nil case a panic instead of a
// no-op — and the hooks are nil in every production run.
//
// Taking a method value (`emit := pr.Event`) is held to the same rule:
// evaluating a method value on a nil interface panics just like a call, so
// the take must sit under a nil guard too.
var Probelint = &Analyzer{
	Name: "probelint",
	Doc:  "require nil guards on calls through Probe-typed validation hooks",
	Run:  runProbelint,
}

func runProbelint(pass *Pass) error {
	for _, f := range pass.Files {
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return
			}
			recv := sel.X
			if !isProbeType(pass.TypesInfo.Types[recv].Type) {
				return
			}
			if selIsMethodExpr(pass, sel) {
				return // Probe.Event-style method expression: no receiver evaluated
			}
			if probeGuarded(pass, recv, sel, stack) {
				return
			}
			if selIsCalled(sel, stack) {
				pass.Report(sel.Pos(), "call through Probe hook %s is not nil-guarded; wrap it in `if %s != nil { ... }`", types.ExprString(recv), types.ExprString(recv))
			} else {
				pass.Report(sel.Pos(), "method value taken from Probe hook %s is not nil-guarded; evaluating it panics when the hook is nil", types.ExprString(recv))
			}
		})
	}
	return nil
}

// selIsCalled reports whether sel is the function operand of an enclosing
// call (`pr.Event(...)`) rather than a bare method value (`pr.Event`).
func selIsCalled(sel *ast.SelectorExpr, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			continue
		}
		call, ok := stack[i].(*ast.CallExpr)
		return ok && ast.Unparen(call.Fun) == sel
	}
	return false
}

// selIsMethodExpr reports whether sel is a method expression (T.M), whose
// evaluation involves no receiver and cannot panic.
func selIsMethodExpr(pass *Pass, sel *ast.SelectorExpr) bool {
	s, ok := pass.TypesInfo.Selections[sel]
	return ok && s.Kind() == types.MethodExpr
}

// isProbeType reports whether t is (a pointer to) a named interface type
// called Probe.
func isProbeType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Probe" {
		return false
	}
	_, isIface := named.Underlying().(*types.Interface)
	return isIface
}

// probeGuarded reports whether the hook use at `use` (a call or a method
// value) is dominated by a nil check: an enclosing `if recv != nil`
// (possibly as an && conjunct, with the use in the then-branch), or an
// earlier `if recv == nil { return/panic }` sibling in an enclosing block,
// inside the innermost function literal or declaration around the use.
func probeGuarded(pass *Pass, recv ast.Expr, use ast.Node, stack []ast.Node) bool {
	recvStr := types.ExprString(recv)
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.IfStmt:
			inThen := n.Body.Pos() <= use.Pos() && use.Pos() < n.Body.End()
			if inThen && condHasNotNil(n.Cond, recvStr) {
				return true
			}
		case *ast.BlockStmt:
			// The statement chain below this block that leads to the use.
			var within ast.Node
			if i+1 < len(stack) {
				within = stack[i+1]
			}
			for _, s := range n.List {
				if within != nil && s.Pos() <= within.Pos() && within.Pos() < s.End() {
					break // reached the use's own statement
				}
				if ifs, ok := s.(*ast.IfStmt); ok && earlyExitNilGuard(ifs, recvStr) {
					return true
				}
			}
		case *ast.FuncLit:
			// A guard outside a closure does not dominate uses inside it: the
			// closure may run later, after the hook changed. Invoked in place
			// or not, the literal needs its own guard.
			return false
		}
	}
	return false
}

// condHasNotNil reports whether cond contains `expr != nil` as a top-level
// conjunct (under && and parentheses only; a disjunct does not dominate).
func condHasNotNil(cond ast.Expr, exprStr string) bool {
	switch c := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			return condHasNotNil(c.X, exprStr) || condHasNotNil(c.Y, exprStr)
		case token.NEQ:
			return isNilCompare(c, exprStr)
		}
	}
	return false
}

// earlyExitNilGuard matches `if expr == nil { return/panic/continue/break }`.
func earlyExitNilGuard(ifs *ast.IfStmt, exprStr string) bool {
	cond, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
	if !ok || cond.Op != token.EQL || !isNilCompare(cond, exprStr) {
		return false
	}
	if len(ifs.Body.List) == 0 {
		return false
	}
	switch last := ifs.Body.List[len(ifs.Body.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// isNilCompare reports whether one side of cmp prints as exprStr and the
// other is the nil identifier.
func isNilCompare(cmp *ast.BinaryExpr, exprStr string) bool {
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	if isNil(cmp.Y) && types.ExprString(ast.Unparen(cmp.X)) == exprStr {
		return true
	}
	if isNil(cmp.X) && types.ExprString(ast.Unparen(cmp.Y)) == exprStr {
		return true
	}
	return false
}
