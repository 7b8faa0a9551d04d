package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// yieldRoots are the kernel's blocking primitives: any function that can
// reach one of these on some path may yield control to another simulated
// process mid-body. coherence.Agent.Exec is listed explicitly even though it
// delegates to Proc.Sleep, so the root set does not silently shrink if its
// body changes shape.
var yieldRoots = map[string]bool{
	"(*ccnic/internal/sim.Proc).Sleep":       true,
	"(*ccnic/internal/sim.Proc).Wait":        true,
	"(*ccnic/internal/sim.Proc).Yield":       true,
	"(*ccnic/internal/coherence.Agent).Exec": true,
	// The shard engine's Run executes arbitrary processes across every
	// member kernel: from a caller's perspective it yields by definition.
	"(*ccnic/internal/sim/shard.Engine).Run": true,
}

// CallGraph is the program's static call graph: for every declared function
// or method, the statically-resolved callees of its body, plus the reverse
// map. Calls through function values and interface methods are not resolved
// (the classic limitation the //ccnic:yields annotation papers over);
// function literals are attributed to their enclosing declaration, which
// over-approximates closures that are defined but not called in place.
// YieldSet's transitive closure and ownlint's interprocedural summaries
// both walk this graph.
type CallGraph struct {
	Callees map[*types.Func][]*types.Func
	Callers map[*types.Func][]*types.Func
}

// CallGraph builds (once) the static call graph of the loaded program.
func (pr *Program) CallGraph() *CallGraph {
	if pr.cg != nil {
		return pr.cg
	}
	cg := &CallGraph{
		Callees: map[*types.Func][]*types.Func{},
		Callers: map[*types.Func][]*types.Func{},
	}
	for _, pkg := range pr.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if callee := calleeOf(pkg.Info, call); callee != nil {
						cg.Callees[fn] = append(cg.Callees[fn], callee)
						cg.Callers[callee] = append(cg.Callers[callee], fn)
					}
					return true
				})
			}
		}
	}
	pr.cg = cg
	return cg
}

// YieldSet computes (once) the transitive set of yielding functions over the
// loaded program's static call graph. Roots are yieldRoots plus any function
// annotated //ccnic:yields; see CallGraph for the resolution limits.
func (pr *Program) YieldSet() map[*types.Func]bool {
	if pr.yields != nil {
		return pr.yields
	}
	cg := pr.CallGraph()
	yields := map[*types.Func]bool{}
	var work []*types.Func
	mark := func(fn *types.Func) {
		if !yields[fn] {
			yields[fn] = true
			work = append(work, fn)
		}
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
				if yieldRoots[fn.FullName()] || pr.FuncAnnotated(pkg, fd, AnnotYields) {
					mark(fn)
				}
				// Roots called but not declared in the module (none today,
				// but the root set is configuration, not code).
				for _, callee := range cg.Callees[fn] {
					if yieldRoots[callee.FullName()] {
						mark(callee)
					}
				}
			}
		}
	}

	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		for _, caller := range cg.Callers[fn] {
			mark(caller)
		}
	}
	pr.yields = yields
	return yields
}

// YieldChain returns a human-readable witness path from fn to a yield root,
// e.g. "Free -> Exec -> Sleep". fn must be in YieldSet.
func (pr *Program) YieldChain(fn *types.Func) string {
	yields := pr.YieldSet()
	var parts []string
	seen := map[*types.Func]bool{}
	for fn != nil && !seen[fn] {
		seen[fn] = true
		parts = append(parts, fn.Name())
		if yieldRoots[fn.FullName()] {
			break
		}
		fn = pr.yieldWitness(fn, yields, seen)
	}
	return strings.Join(parts, " -> ")
}

// yieldWitness finds one yielding callee of fn not yet on the chain.
func (pr *Program) yieldWitness(fn *types.Func, yields map[*types.Func]bool, seen map[*types.Func]bool) *types.Func {
	fd := pr.DeclOf(fn)
	if fd == nil || fd.Body == nil {
		return nil
	}
	var found *types.Func
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		pkg := pr.byPath[fn.Pkg().Path()]
		if pkg == nil {
			return true
		}
		if callee := calleeOf(pkg.Info, call); callee != nil && yields[callee] && !seen[callee] {
			found = callee
		}
		return true
	})
	return found
}

// calleeOf statically resolves a call's target function or method, or nil
// for builtins, conversions, and calls through function values. A call of a
// generic function or method resolves to its generic declaration (explicit
// instantiations f[T](x) included), the object DeclOf and annotations know.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	var fn *types.Func
	switch fun := fun.(type) {
	case *ast.Ident:
		fn, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = info.Uses[fun.Sel].(*types.Func)
	}
	if fn == nil {
		return nil
	}
	return fn.Origin()
}
