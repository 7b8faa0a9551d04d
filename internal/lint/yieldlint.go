package lint

import (
	"go/ast"
	"go/types"
)

// Yieldlint flags calls to (transitively) yielding functions where no
// process may yield. The simulation kernel interleaves processes only at
// yield points (Proc.Sleep/Wait/Yield and everything built on them, like
// coherence.Agent's charge methods), so shared model structures must be
// consistent whenever a yielding call executes. Two places forbid one:
//
//   - a region annotated //ccnic:atomic asserts "no interleaving happens
//     here": typically the span between popping a resource off a free
//     structure and marking it owned. This is the static form of the
//     conservation bug PR 2's runtime engine caught in bufpool: the recycle
//     fast path yielded (via Agent.Exec) between the stack pop and the
//     take() transition, leaving a buffer unowned and unlisted mid-yield.
//   - a spin step runs inside the scheduler, outside every process, so it
//     may not block; the kernel panics if one does. The steps are the last
//     argument of Proc.Spin, Kernel.SpawnSpin and Kernel.SpawnSpinAt, and
//     the delivery handlers given to shard.Engine.Connect and
//     fabric.Switch.Attach, which run as the steps of bodiless processes.
//     A step given as a function or method value, a function literal, a
//     local variable bound to either, or a struct field bound to either
//     anywhere in the package is resolved and checked.
var Yieldlint = &Analyzer{
	Name: "yieldlint",
	Doc:  "flag yielding calls inside //ccnic:atomic critical regions and spin steps that yield",
	Run:  runYieldlint,
}

func runYieldlint(pass *Pass) error {
	yields := pass.Prog.YieldSet()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			regions := pass.Prog.AtomicRegions(pass.Pkg, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeOf(pass.TypesInfo, call)
				if callee == nil {
					return true
				}
				if takesStep(callee) && len(call.Args) > 0 {
					checkSpinStep(pass, yields, fd, call.Args[len(call.Args)-1])
				}
				if !yields[callee] {
					return true
				}
				for _, r := range regions {
					if r.contains(call.Pos()) {
						pass.Report(call.Pos(), "call to yielding function %s inside //ccnic:atomic region (%s): the structure is inconsistent at this yield point", callee.Name(), pass.Prog.YieldChain(callee))
						break
					}
				}
				return true
			})
		}
	}
	return nil
}

// stepTakers maps each method whose last argument runs as a spin step to
// the name of its receiver type. Fixtures declare local equivalents.
var stepTakers = map[string]string{
	"Spin":        "Proc",
	"SpawnSpin":   "Kernel",
	"SpawnSpinAt": "Kernel",
	"Connect":     "Engine",
	"Attach":      "Switch",
}

// takesStep reports whether fn is a method whose last argument runs as a
// spin step (see stepTakers).
func takesStep(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	recv, known := stepTakers[fn.Name()]
	if !ok || !known || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == recv
}

// checkSpinStep reports step if it resolves to a yielding function, or to a
// function literal whose body calls one. A local variable resolves to every
// value assigned to it in fd, a struct field to every value assigned to it
// (or keyed to it in a composite literal) in the package.
func checkSpinStep(pass *Pass, yields map[*types.Func]bool, fd *ast.FuncDecl, step ast.Expr) {
	info := pass.TypesInfo
	seen := map[*types.Var]bool{}
	var resolve func(e ast.Expr)
	resolve = func(e ast.Expr) {
		e = ast.Unparen(e)
		var obj types.Object
		switch e := e.(type) {
		case *ast.FuncLit:
			ast.Inspect(e.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := calleeOf(info, call); callee != nil && yields[callee] {
					pass.Report(step.Pos(), "spin step calls yielding function %s (%s): a step runs outside every process and must not block", callee.Name(), pass.Prog.YieldChain(callee))
					return false
				}
				return true
			})
			return
		case *ast.Ident:
			obj = info.Uses[e]
		case *ast.SelectorExpr:
			obj = info.Uses[e.Sel]
		}
		switch obj := obj.(type) {
		case *types.Func:
			if fn := obj.Origin(); yields[fn] {
				pass.Report(step.Pos(), "spin step %s yields (%s): a step runs outside every process and must not block", fn.Name(), pass.Prog.YieldChain(fn))
			}
		case *types.Var:
			if seen[obj] {
				return
			}
			seen[obj] = true
			scope := []ast.Node{fd.Body}
			if obj.IsField() {
				scope = scope[:0]
				for _, f := range pass.Files {
					scope = append(scope, f)
				}
			}
			for _, n := range scope {
				for _, v := range assignedTo(info, n, obj) {
					resolve(v)
				}
			}
		}
	}
	resolve(step)
}

// assignedTo returns the expressions within root that assign or declare v,
// or key v in a composite literal.
func assignedTo(info *types.Info, root ast.Node, v *types.Var) []ast.Expr {
	var out []ast.Expr
	match := func(lhs []ast.Expr, rhs []ast.Expr) {
		if len(lhs) != len(rhs) {
			return
		}
		for i, l := range lhs {
			l = ast.Unparen(l)
			if sel, ok := l.(*ast.SelectorExpr); ok {
				l = sel.Sel // a field assigned through its struct
			}
			id, ok := l.(*ast.Ident)
			if ok && (info.Defs[id] == v || info.Uses[id] == v) {
				out = append(out, rhs[i])
			}
		}
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			match(n.Lhs, n.Rhs)
		case *ast.KeyValueExpr:
			match([]ast.Expr{n.Key}, []ast.Expr{n.Value})
		case *ast.ValueSpec:
			lhs := make([]ast.Expr, len(n.Names))
			for i, id := range n.Names {
				lhs[i] = id
			}
			match(lhs, n.Values)
		}
		return true
	})
	return out
}
