package flow

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// load type-checks one synthetic file and returns its declarations.
func load(t *testing.T, src string) (*token.FileSet, map[string]*ast.FuncDecl, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "flowtest.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("flowtest", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	decls := map[string]*ast.FuncDecl{}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			decls[fd.Name.Name] = fd
		}
	}
	return fset, decls, info
}

const cfgSrc = `package flowtest

func branches(x int) int {
	y := 0
	if x > 0 {
		y = 1
	} else {
		y = 2
	}
	return y
}

func loops(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		if i == 3 {
			continue
		}
		if i == 7 {
			break
		}
		s += i
	}
	return s
}

func sw(x int) string {
	switch x {
	case 0:
		return "zero"
	case 1:
		fallthrough
	case 2:
		return "small"
	default:
		return "big"
	}
}

func panics(x int) {
	if x < 0 {
		panic("negative")
	}
	_ = x
}

func deferred() {
	defer cleanup()
	work()
}

func cleanup() {}
func work()    {}
`

// reaches reports whether Exit is reachable from Entry.
func reaches(g *Graph) bool {
	seen := map[*Block]bool{}
	var visit func(b *Block) bool
	visit = func(b *Block) bool {
		if b == g.Exit {
			return true
		}
		if seen[b] {
			return false
		}
		seen[b] = true
		for _, e := range b.Succs {
			if visit(e.To) {
				return true
			}
		}
		return false
	}
	return visit(g.Entry)
}

func TestCFGShapes(t *testing.T) {
	_, decls, info := load(t, cfgSrc)
	for name, fd := range decls {
		g := Build(fd, info)
		if g.Entry == nil || g.Exit == nil {
			t.Fatalf("%s: missing entry/exit", name)
		}
		if !reaches(g) {
			t.Errorf("%s: exit unreachable from entry", name)
		}
	}

	// The if/else produces a diamond: entry block with Cond and a
	// true and false successor.
	g := Build(decls["branches"], info)
	var condBlocks int
	for _, b := range g.Blocks {
		if b.Cond != nil {
			condBlocks++
			var kinds []EdgeKind
			for _, e := range b.Succs {
				kinds = append(kinds, e.Kind)
			}
			if len(kinds) != 2 {
				t.Errorf("branches: cond block has %d successors, want 2", len(kinds))
			}
		}
	}
	if condBlocks != 1 {
		t.Errorf("branches: %d cond blocks, want 1", condBlocks)
	}

	// The loop has a back edge: some block's successor precedes it in
	// index order through the loop head.
	g = Build(decls["loops"], info)
	backEdge := false
	for _, b := range g.Blocks {
		for _, e := range b.Succs {
			if e.To.Index < b.Index && e.To != g.Exit {
				backEdge = true
			}
		}
	}
	if !backEdge {
		t.Error("loops: no back edge found")
	}

	// The panic path must not reach Exit: only the non-negative path does.
	g = Build(decls["panics"], info)
	if len(g.Exit.Preds) != 1 {
		t.Errorf("panics: exit has %d predecessors, want 1 (panic path terminates)", len(g.Exit.Preds))
	}

	// Deferred calls are replayed in the exit block.
	g = Build(decls["deferred"], info)
	found := false
	for _, n := range g.Exit.Nodes {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "cleanup" {
				found = true
			}
		}
	}
	if !found {
		t.Error("deferred: cleanup() not replayed in exit block")
	}
}

// TestSolveForward runs a tiny forward constant-reachability
// problem over the diamond: a fact set at entry must survive to exit, and
// the solver must converge on the loop graph.
func TestSolveForward(t *testing.T) {
	_, decls, info := load(t, cfgSrc)
	for _, name := range []string{"branches", "loops", "sw"} {
		g := Build(decls[name], info)
		// State: number of distinct paths' joins observed (capped) — a
		// monotone counter lattice that converges. Mostly this asserts
		// termination and that every reachable block gets a non-bottom
		// input.
		type S = int
		ins := Solve[S](g, Problem[S]{
			Bottom:   func() S { return 0 },
			Entry:    func() S { return 1 },
			Join:     func(a, b S) S { return max(a, b) },
			Equal:    func(a, b S) bool { return a == b },
			Transfer: func(b *Block, in S) S { return in },
		})
		if ins[g.Exit] != 1 {
			t.Errorf("%s: exit input = %d, want 1 (entry fact must reach exit)", name, ins[g.Exit])
		}
	}
}
