package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Alloclint checks functions annotated //ccnic:noalloc — the hot paths whose
// zero-allocation behavior the AllocsPerRun tests assert — for constructs
// that heap-allocate:
//
//   - make, new, slice/map literals, and address-taken composite literals,
//   - append that can grow a different slice than it reads (the amortized
//     self-append idiom `x = append(x, ...)` is allowed: it reuses warmed
//     capacity in steady state),
//   - function literals that capture variables (closure allocation; the
//     analyzer does not model escape, so every capturing literal counts),
//   - string concatenation and string<->[]byte/[]rune conversions,
//   - interface boxing of non-pointer-shaped values (call arguments and
//     assignments),
//   - goroutine spawns,
//   - calls to module functions not themselves annotated //ccnic:noalloc.
//
// The noalloc contract is transitive through annotations: a noalloc function
// may call only other noalloc functions, builtins, and interface methods
// (the Probe observer boundary, whose implementations are trusted to be
// read-only and cheap). Arguments of panic(...) are exempt — panicking paths
// are not steady state — and audited exceptions (freelist warm-up
// allocation, bounded slow-path spills) carry //ccnic:alloc-ok with a
// rationale.
var Alloclint = &Analyzer{
	Name: "alloclint",
	Doc:  "check //ccnic:noalloc functions for heap-allocating constructs",
	Run:  runAlloclint,
}

func runAlloclint(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !pass.Prog.FuncAnnotated(pass.Pkg, fd, AnnotNoalloc) {
				continue
			}
			c := &allocChecker{
				pass:        pass,
				fd:          fd,
				selfAppends: map[*ast.CallExpr]bool{},
			}
			c.walk(fd.Body)
		}
	}
	return nil
}

type allocChecker struct {
	pass        *Pass
	fd          *ast.FuncDecl
	selfAppends map[*ast.CallExpr]bool
}

func (c *allocChecker) report(pos token.Pos, format string, args ...any) {
	if c.pass.Prog.Suppressed(c.pass.Pkg, pos, AnnotAllocOK) {
		return
	}
	c.pass.Report(pos, format, args...)
}

// walk visits n and its children, skipping the arguments of panic calls.
func (c *allocChecker) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			return c.checkCall(n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					c.report(n.Pos(), "address-taken composite literal allocates")
				}
			}
		case *ast.CompositeLit:
			if tv, ok := c.pass.TypesInfo.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					c.report(n.Pos(), "slice literal allocates")
				case *types.Map:
					c.report(n.Pos(), "map literal allocates")
				}
			}
		case *ast.FuncLit:
			c.checkCapture(n)
		case *ast.GoStmt:
			c.report(n.Pos(), "go statement allocates a goroutine")
		case *ast.BinaryExpr:
			c.checkStringConcat(n)
		case *ast.AssignStmt:
			c.checkAssign(n)
		}
		return true
	})
}

// checkCall classifies one call; it returns false to stop descent (panic
// arguments are cold paths and exempt from all checks).
func (c *allocChecker) checkCall(call *ast.CallExpr) bool {
	info := c.pass.TypesInfo
	tv, ok := info.Types[call.Fun]
	if ok && tv.IsType() {
		c.checkConversion(call, tv.Type)
		return true
	}
	if ok && tv.IsBuiltin() {
		name := builtinName(call.Fun)
		switch name {
		case "panic":
			return false
		case "make":
			c.report(call.Pos(), "make allocates")
		case "new":
			c.report(call.Pos(), "new allocates")
		case "append":
			if !c.selfAppends[call] {
				c.report(call.Pos(), "append may grow a new backing array; only the self-append idiom `x = append(x, ...)` is allowed in noalloc paths")
			}
		}
		return true
	}

	c.checkBoxedArgs(call)

	fn := calleeOf(info, call)
	if fn == nil {
		// A call through a function value: unresolvable statically; the
		// stored function's own declaration is where noalloc is enforced.
		return true
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil &&
		isInterfaceType(sig.Recv().Type()) {
		// Interface method: the Probe observer boundary. Implementations
		// are outside the static call graph and trusted (DESIGN.md §5).
		return true
	}
	if decl := c.pass.Prog.DeclOf(fn); decl != nil {
		calleePkg := c.pass.Prog.PackageOf(fn.Pkg().Path())
		if calleePkg != nil && !c.pass.Prog.FuncAnnotated(calleePkg, decl, AnnotNoalloc) {
			c.report(call.Pos(), "call to %s, which is not annotated //ccnic:noalloc", fn.FullName())
		}
		return true
	}
	c.report(call.Pos(), "call to external function %s cannot be verified allocation-free", fn.FullName())
	return true
}

// checkConversion flags conversions that copy memory: string <-> []byte or
// []rune, and integer-to-string.
func (c *allocChecker) checkConversion(call *ast.CallExpr, to types.Type) {
	if len(call.Args) != 1 {
		return
	}
	fromTV, ok := c.pass.TypesInfo.Types[call.Args[0]]
	if !ok || fromTV.Value != nil { // constant conversions fold away
		return
	}
	from := fromTV.Type
	if isString(to) && !isString(from) {
		if isByteOrRuneSlice(from) {
			c.report(call.Pos(), "conversion of byte/rune slice to string allocates")
		} else if b, ok := from.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
			c.report(call.Pos(), "integer-to-string conversion allocates")
		}
		return
	}
	if isByteOrRuneSlice(to) && isString(from) {
		c.report(call.Pos(), "conversion of string to byte/rune slice allocates")
	}
}

// checkBoxedArgs flags arguments boxed into interface parameters.
func (c *allocChecker) checkBoxedArgs(call *ast.CallExpr) {
	info := c.pass.TypesInfo
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice: no per-element boxing here
			}
			param = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
		case i < sig.Params().Len():
			param = sig.Params().At(i).Type()
		default:
			continue
		}
		c.checkBox(arg, param)
	}
}

// checkAssign flags interface boxing in assignments and registers the
// self-append idiom so checkCall can allow it.
func (c *allocChecker) checkAssign(as *ast.AssignStmt) {
	for i, rhs := range as.Rhs {
		if i >= len(as.Lhs) {
			break
		}
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && builtinName(call.Fun) == "append" {
			if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsBuiltin() &&
				len(call.Args) > 0 &&
				types.ExprString(as.Lhs[i]) == types.ExprString(call.Args[0]) {
				c.selfAppends[call] = true
			}
		}
		if lhsTV, ok := c.pass.TypesInfo.Types[as.Lhs[i]]; ok && len(as.Rhs) == len(as.Lhs) {
			c.checkBox(rhs, lhsTV.Type)
		}
	}
	if as.Tok == token.ADD_ASSIGN && len(as.Lhs) == 1 {
		if tv, ok := c.pass.TypesInfo.Types[as.Lhs[0]]; ok && isString(tv.Type) {
			c.report(as.Pos(), "string += concatenation allocates")
		}
	}
}

// checkBox flags storing a concrete, non-pointer-shaped value into an
// interface-typed slot.
func (c *allocChecker) checkBox(val ast.Expr, dst types.Type) {
	if dst == nil || !isInterfaceType(dst) {
		return
	}
	tv, ok := c.pass.TypesInfo.Types[val]
	if !ok || tv.Type == nil || tv.IsNil() {
		return
	}
	if isInterfaceType(tv.Type) || pointerShaped(tv.Type) {
		return
	}
	c.report(val.Pos(), "%s boxes a %s into an interface, which allocates", types.ExprString(val), tv.Type)
}

// checkStringConcat flags non-constant string concatenation.
func (c *allocChecker) checkStringConcat(b *ast.BinaryExpr) {
	if b.Op != token.ADD {
		return
	}
	tv, ok := c.pass.TypesInfo.Types[b]
	if !ok || tv.Value != nil { // constant-folded
		return
	}
	if isString(tv.Type) {
		c.report(b.Pos(), "string concatenation allocates")
	}
}

// checkCapture flags function literals that capture variables from the
// enclosing function, even one the compiler would keep on the stack: the
// analyzer does not model escape, so a noalloc path writes such code as a
// method or a plain loop instead.
func (c *allocChecker) checkCapture(lit *ast.FuncLit) {
	info := c.pass.TypesInfo
	done := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if done {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured: declared inside the enclosing function but outside the
		// literal itself. One finding per literal suffices.
		if v.Pos() >= c.fd.Pos() && v.Pos() < c.fd.End() &&
			(v.Pos() < lit.Pos() || v.Pos() >= lit.End()) {
			c.report(lit.Pos(), "function literal captures %s and allocates a closure", v.Name())
			done = true
			return false
		}
		return true
	})
}

func builtinName(fun ast.Expr) string {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok {
		return ""
	}
	return id.Name
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
