package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"ccnic/internal/lint/flow"
)

// Timelint enforces the simulated-time discipline: model code computes with
// sim.Time (integer picoseconds advanced only by the kernel), never with the
// host clock, and never with bare magic numbers standing in for durations
// (DESIGN.md §5). Three rules:
//
//   - no conversions between sim.Time and the wall-clock types time.Time /
//     time.Duration outside internal/platform (the one place host-facing
//     calibration is allowed to bridge the two worlds);
//   - no addition, subtraction, or ordered comparison of a sim.Time value
//     with a nonzero untyped integer literal outside internal/sim and
//     internal/platform: durations must be spelled from the named unit
//     constants (5*sim.Microsecond), not raw picosecond counts;
//   - no equality comparison of a timestamp captured before a yielding call
//     against the current time: after a yield, arbitrary simulated time has
//     passed, so `snap == p.Now()` is stale by construction (a forward
//     dataflow problem over the function's CFG: Now-snapshots go stale at
//     the first yielding call).
//
// There is no suppression key: code that must bridge the two clocks or
// scale raw time values belongs in an exempt package.
var Timelint = &Analyzer{
	Name: "timelint",
	Doc:  "enforce sim.Time discipline: no wall-clock mixing, no literal durations, no stale-timestamp equality",
	Run:  runTimelint,
}

// timelintExempt are the packages allowed to convert and scale raw time
// values: the kernel defines the representation, the platform tables are
// where calibrated numbers enter the model.
var timelintExempt = map[string]bool{
	"ccnic/internal/sim":      true,
	"ccnic/internal/platform": true,
}

func runTimelint(pass *Pass) error {
	exempt := timelintExempt[pass.Pkg.Path]
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !exempt {
				checkTimeSyntax(pass, fd)
			}
			checkStaleNow(pass, fd)
		}
	}
	return nil
}

// isSimTime reports whether t is a named integer type called Time — the
// kernel's sim.Time, or a fixture's local equivalent. The stdlib time.Time
// is a struct, so it never matches.
func isSimTime(t types.Type) bool {
	if t == nil {
		return false
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Name() != "Time" {
		return false
	}
	b, ok := n.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// isWallClock reports whether t is time.Time or time.Duration.
func isWallClock(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "time" {
		return false
	}
	name := n.Obj().Name()
	return name == "Time" || name == "Duration"
}

// checkTimeSyntax applies the two flow-insensitive rules to fd's body.
func checkTimeSyntax(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			// A conversion T(x) bridging simulated and wall-clock time.
			tv, ok := info.Types[n.Fun]
			if !ok || !tv.IsType() || len(n.Args) != 1 {
				return true
			}
			dst := tv.Type
			src := info.Types[n.Args[0]].Type
			if isSimTime(dst) && mentionsWallClock(info, n.Args[0]) {
				pass.Report(n.Pos(), "conversion from wall-clock time to sim.Time outside internal/platform; simulated time advances only through the kernel")
			} else if isWallClock(dst) && (isSimTime(src) || mentionsSimTime(info, n.Args[0])) {
				pass.Report(n.Pos(), "conversion from sim.Time to a wall-clock type outside internal/platform")
			}
		case *ast.BinaryExpr:
			switch n.Op {
			case token.ADD, token.SUB, token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
			default:
				return true // scaling by a literal (5*sim.Microsecond) is the idiom
			}
			x, y := info.Types[n.X], info.Types[n.Y]
			if isSimTime(x.Type) && isNonZeroIntLit(n.Y, y) {
				pass.Report(n.Y.Pos(), "sim.Time %s bare literal: spell durations from the sim unit constants", n.Op)
			} else if isSimTime(y.Type) && isNonZeroIntLit(n.X, x) {
				pass.Report(n.X.Pos(), "sim.Time %s bare literal: spell durations from the sim unit constants", n.Op)
			}
		}
		return true
	})
}

// isNonZeroIntLit reports whether e is a bare integer literal (not a named
// constant, not zero) — a magic duration.
func isNonZeroIntLit(e ast.Expr, tv types.TypeAndValue) bool {
	if _, ok := ast.Unparen(e).(*ast.BasicLit); !ok {
		return false
	}
	if tv.Value == nil || tv.Value.Kind() != constant.Int {
		return false
	}
	v, ok := constant.Int64Val(tv.Value)
	return !ok || v != 0
}

// mentionsWallClock reports whether e's subtree contains a wall-clock-typed
// subexpression or a call into package time (time.Now().UnixNano() launders
// the clock through an int64 before the conversion sees it).
func mentionsWallClock(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if x, ok := n.(ast.Expr); ok {
			if tv, ok := info.Types[x]; ok && isWallClock(tv.Type) {
				found = true
				return false
			}
		}
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if fn, ok := info.Uses[sel.Sel].(*types.Func); ok &&
				fn.Pkg() != nil && fn.Pkg().Path() == "time" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// mentionsSimTime reports whether e's subtree contains a sim.Time-typed
// subexpression (catching time.Duration(int64(t)) laundering).
func mentionsSimTime(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if x, ok := n.(ast.Expr); ok {
			if tv, ok := info.Types[x]; ok && isSimTime(tv.Type) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// nowVal tracks one Now-snapshot variable: where it was captured and
// whether a yielding call has happened since.
type nowVal struct {
	stale bool
	pos   token.Pos
}

type nowMap map[*types.Var]nowVal

// nowSt wraps the snapshot map with a reached bit: the join is an
// intersection over reached paths, so a reached-but-empty path must drop
// every snapshot while an unreached edge must not.
type nowSt struct {
	reached bool
	m       nowMap
}

// checkStaleNow runs the stale-snapshot problem: a variable assigned from a
// method named Now (returning sim.Time) is fresh until the path crosses a
// yielding call; comparing a stale snapshot for equality against the
// current time can only succeed by coincidence.
func checkStaleNow(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	yields := pass.Prog.YieldSet()
	g := flow.Build(fd, info)

	copyNow := func(m nowMap) nowMap {
		out := make(nowMap, len(m))
		for v, s := range m {
			out[v] = s
		}
		return out
	}
	apply := func(n ast.Node, st nowMap, report bool) {
		// Comparisons are judged against the state before this node's own
		// yields and re-captures take effect.
		if report {
			ast.Inspect(n, func(x ast.Node) bool {
				bin, ok := x.(*ast.BinaryExpr)
				if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
					return true
				}
				for _, pair := range [2][2]ast.Expr{{bin.X, bin.Y}, {bin.Y, bin.X}} {
					id, ok := ast.Unparen(pair[0]).(*ast.Ident)
					if !ok {
						continue
					}
					v, ok := info.Uses[id].(*types.Var)
					if !ok || !st[v].stale || !nowDerived(info, st, pair[1]) {
						continue
					}
					pass.Report(bin.Pos(), "timestamp %s was captured before a yielding call; an equality comparison against the current time is stale", id.Name)
					break
				}
				return true
			})
		}
		// A yielding call on this node stales every live snapshot.
		if nodeYields(info, yields, n) {
			for v, s := range st {
				if !s.stale {
					st[v] = nowVal{stale: true, pos: s.pos}
				}
			}
		}
		// Assignments re-capture or kill snapshots.
		forEachSimpleAssign(n, func(lhs *ast.Ident, rhs ast.Expr) {
			v, ok := info.Defs[lhs].(*types.Var)
			if !ok {
				v, ok = info.Uses[lhs].(*types.Var)
			}
			if !ok || v == nil || !isSimTime(v.Type()) {
				return
			}
			if call, isNow := nowCall(info, rhs); isNow {
				st[v] = nowVal{pos: call.Pos()}
			} else {
				delete(st, v)
			}
		})
	}

	ins := flow.Solve(g, flow.Problem[nowSt]{
		Bottom: func() nowSt { return nowSt{} },
		Entry:  func() nowSt { return nowSt{reached: true, m: nowMap{}} },
		Join: func(a, b nowSt) nowSt {
			if !a.reached {
				return b
			}
			if !b.reached {
				return a
			}
			out := nowMap{}
			for v, av := range a.m {
				if bv, ok := b.m[v]; ok {
					out[v] = nowVal{stale: av.stale || bv.stale, pos: av.pos}
				}
				// Present on one path only: not a reliable snapshot; drop.
			}
			return nowSt{reached: true, m: out}
		},
		Equal: func(a, b nowSt) bool {
			if a.reached != b.reached || len(a.m) != len(b.m) {
				return false
			}
			for v, av := range a.m {
				if bv, ok := b.m[v]; !ok || av.stale != bv.stale {
					return false
				}
			}
			return true
		},
		Transfer: func(b *flow.Block, in nowSt) nowSt {
			if !in.reached {
				return in
			}
			st := copyNow(in.m)
			for _, n := range b.Nodes {
				apply(n, st, false)
			}
			return nowSt{reached: true, m: st}
		},
	})
	for _, blk := range g.Blocks {
		if !ins[blk].reached {
			continue
		}
		st := copyNow(ins[blk].m)
		for _, n := range blk.Nodes {
			apply(n, st, true)
		}
	}
}

// nowCall reports whether e is a direct call to a function or method named
// Now returning a sim.Time.
func nowCall(info *types.Info, e ast.Expr) (*ast.CallExpr, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	fn := calleeOf(info, call)
	if fn == nil || fn.Name() != "Now" {
		return nil, false
	}
	tv, ok := info.Types[call]
	return call, ok && isSimTime(tv.Type)
}

// nowDerived reports whether e reads the current time: a direct Now call or
// a still-fresh snapshot variable.
func nowDerived(info *types.Info, st nowMap, e ast.Expr) bool {
	if _, ok := nowCall(info, e); ok {
		return true
	}
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if v, ok := info.Uses[id].(*types.Var); ok {
			s, tracked := st[v]
			return tracked && !s.stale
		}
	}
	return false
}

// nodeYields reports whether n contains a call to a yielding function
// (outside nested function literals).
func nodeYields(info *types.Info, yields map[*types.Func]bool, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if fn := calleeOf(info, x); fn != nil && yields[fn] {
				found = true
			}
		}
		return !found
	})
	return found
}

// forEachSimpleAssign invokes f for every `lhs = rhs` / `lhs := rhs` pair
// with a plain identifier target in n (including var declarations).
func forEachSimpleAssign(n ast.Node, f func(lhs *ast.Ident, rhs ast.Expr)) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i, l := range x.Lhs {
				if id, ok := ast.Unparen(l).(*ast.Ident); ok {
					f(id, x.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(x.Names) != len(x.Values) {
				return true
			}
			for i, name := range x.Names {
				f(name, x.Values[i])
			}
		}
		return true
	})
}
