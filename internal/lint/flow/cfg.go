// Package flow is the lint suite's dataflow engine: per-function control
// flow graphs built from the already-type-checked ASTs and a generic
// forward worklist solver over join semilattices (solve.go).
//
// The engine exists so analyzers can be *flow-sensitive* — "released on
// every path", "captured before this yielding call" — instead of
// pattern-matching shapes the way the first-generation syntactic lints did.
// ownlint and timelint are its clients (DESIGN.md §5).
//
// The CFG is statement-granular: a Block holds statements in execution
// order, and an analyzer's transfer function walks each statement's
// expressions itself. Branch conditions are exposed on the block (Cond) and
// outgoing edges carry true/false kinds, so solvers can refine facts along
// branches (the `if b == nil { return }` idiom). Deferred calls are
// replayed in the synthetic Exit block, over-approximating "runs before
// every return". Calls to panic terminate their path without reaching
// Exit: panicking paths are not steady state, and the invariants the
// analyzers enforce (release-on-every-path, stale-timestamp discipline)
// are exit-path properties.
package flow

import (
	"go/ast"
	"go/types"
)

// EdgeKind distinguishes branch edges so solvers can refine facts.
type EdgeKind uint8

const (
	// EdgeAlways is an unconditional successor edge.
	EdgeAlways EdgeKind = iota
	// EdgeTrue leaves a block whose Cond evaluated true.
	EdgeTrue
	// EdgeFalse leaves a block whose Cond evaluated false.
	EdgeFalse
)

// Edge is one directed CFG edge.
type Edge struct {
	From, To *Block
	Kind     EdgeKind
}

// Block is a straight-line sequence of statements with no internal control
// transfer. Nodes are in execution order; Cond, if set, is the branch
// condition evaluated after the last node, and the block's outgoing edges
// then carry EdgeTrue/EdgeFalse kinds.
type Block struct {
	Index int
	Nodes []ast.Node
	Cond  ast.Expr
	Succs []*Edge
	Preds []*Edge
}

// Graph is one function's CFG.
type Graph struct {
	Decl   *ast.FuncDecl
	Entry  *Block
	Exit   *Block // single synthetic exit; return edges lead here
	Blocks []*Block
}

// builder tracks the in-progress graph and the branch targets of the
// enclosing loops and switches.
type builder struct {
	g    *Graph
	cur  *Block // nil when the path has terminated (return/panic/branch)
	info *types.Info

	breaks    []*branchTarget // innermost last
	continues []*branchTarget
	labels    map[string]*Block // goto targets (labeled statement entries)
	gotos     []pendingGoto
	// pendingLabel is the label of the labeled statement currently being
	// built, consumed by the next loop/switch/select for break/continue
	// resolution.
	pendingLabel string
}

// takeLabel consumes the pending label for the statement being entered.
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

type branchTarget struct {
	label string
	block *Block
}

type pendingGoto struct {
	from  *Block
	label string
}

// Build constructs the CFG of fd's body. info may be nil; it is used only
// to fold constant conditions out of `for { ... }` idioms (not required
// for correctness of the over-approximation).
func Build(fd *ast.FuncDecl, info *types.Info) *Graph {
	g := &Graph{Decl: fd}
	b := &builder{g: g, info: info, labels: map[string]*Block{}}
	g.Entry = b.newBlock()
	g.Exit = b.newBlock()
	b.cur = g.Entry
	if fd.Body != nil {
		b.stmtList(fd.Body.List)
	}
	// Falling off the end of the body reaches Exit.
	b.edgeTo(g.Exit, EdgeAlways)
	// Deferred calls run before every return: replay them in Exit so
	// forward analyses observe their effects on all exit paths.
	if fd.Body != nil {
		collectDefers(fd.Body, g.Exit)
	}
	for _, pg := range b.gotos {
		if to := b.labels[pg.label]; to != nil {
			connect(pg.from, to, EdgeAlways)
		}
	}
	return g
}

// collectDefers appends the call of every defer statement in body (at any
// depth, excluding nested function literals) to exit's node list.
func collectDefers(body *ast.BlockStmt, exit *Block) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			exit.Nodes = append(exit.Nodes, n.Call)
		}
		return true
	})
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func connect(from, to *Block, kind EdgeKind) {
	e := &Edge{From: from, To: to, Kind: kind}
	from.Succs = append(from.Succs, e)
	to.Preds = append(to.Preds, e)
}

// edgeTo links the current block to target, if the path is live.
func (b *builder) edgeTo(target *Block, kind EdgeKind) {
	if b.cur == nil {
		return
	}
	connect(b.cur, target, kind)
}

// startBlock begins a new current block (used after joins and loop heads).
func (b *builder) startBlock(blk *Block) { b.cur = blk }

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// append adds a node to the current block, reviving a dead path into an
// unreachable block so later statements still get analyzed (with bottom
// input — the solver never propagates into them, but syntax stays indexed).
func (b *builder) append(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// isPanicCall reports whether s is a statement-level call to the panic
// builtin.
func isPanicCall(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.append(s.Init)
		}
		b.append(s.Cond) // condition evaluation has effects too
		if b.cur == nil {
			b.cur = b.newBlock()
		}
		head := b.cur
		head.Cond = s.Cond
		then := b.newBlock()
		connect(head, then, EdgeTrue)
		join := b.newBlock()
		b.startBlock(then)
		b.stmt(s.Body)
		b.edgeTo(join, EdgeAlways)
		if s.Else != nil {
			els := b.newBlock()
			connect(head, els, EdgeFalse)
			b.startBlock(els)
			b.stmt(s.Else)
			b.edgeTo(join, EdgeAlways)
		} else {
			connect(head, join, EdgeFalse)
		}
		b.startBlock(join)

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		b.edgeTo(head, EdgeAlways)
		body := b.newBlock()
		done := b.newBlock()
		b.startBlock(head)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
			head.Cond = s.Cond
			connect(head, body, EdgeTrue)
			connect(head, done, EdgeFalse)
		} else {
			connect(head, body, EdgeAlways)
			// No condition: done is reachable only via break.
		}
		b.pushLoop(label, done, head)
		b.startBlock(body)
		b.stmt(s.Body)
		if s.Post != nil {
			b.stmt(s.Post)
		}
		b.edgeTo(head, EdgeAlways)
		b.popLoop()
		b.startBlock(done)

	case *ast.RangeStmt:
		label := b.takeLabel()
		b.append(s.X)
		head := b.newBlock()
		b.edgeTo(head, EdgeAlways)
		body := b.newBlock()
		done := b.newBlock()
		connect(head, body, EdgeTrue) // "another element"
		connect(head, done, EdgeFalse)
		// The per-iteration key/value bindings are implicit assignments
		// from the ranged container; analyzers treat range-bound variables
		// as untracked sources, so they are not materialized as nodes.
		b.pushLoop(label, done, head)
		b.startBlock(body)
		b.stmt(s.Body)
		b.edgeTo(head, EdgeAlways)
		b.popLoop()
		b.startBlock(done)

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.append(s.Init)
		}
		if s.Tag != nil {
			b.append(s.Tag)
		}
		// Case expressions are evaluated at the head during matching.
		for _, cl := range s.Body.List {
			for _, e := range cl.(*ast.CaseClause).List {
				b.append(e)
			}
		}
		b.caseClauses(s.Body.List, label)

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.append(s.Init)
		}
		b.append(s.Assign)
		b.caseClauses(s.Body.List, label)

	case *ast.SelectStmt:
		label := b.takeLabel()
		if b.cur == nil {
			b.cur = b.newBlock()
		}
		head := b.cur
		join := b.newBlock()
		anyClause := false
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			blk := b.newBlock()
			connect(head, blk, EdgeAlways)
			b.pushSwitchBreak(label, join)
			b.startBlock(blk)
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.edgeTo(join, EdgeAlways)
			b.popLoop()
			anyClause = true
		}
		if !anyClause {
			connect(head, join, EdgeAlways) // empty select blocks forever; keep graph connected
		}
		b.startBlock(join)

	case *ast.ReturnStmt:
		b.append(s)
		b.edgeTo(b.g.Exit, EdgeAlways)
		b.cur = nil

	case *ast.BranchStmt:
		switch s.Tok.String() {
		case "break":
			b.append(s)
			if t := b.findTarget(b.breaks, s.Label); t != nil {
				b.edgeTo(t, EdgeAlways)
			}
			b.cur = nil
		case "continue":
			b.append(s)
			if t := b.findTarget(b.continues, s.Label); t != nil {
				b.edgeTo(t, EdgeAlways)
			}
			b.cur = nil
		case "goto":
			b.append(s)
			if b.cur != nil && s.Label != nil {
				b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name})
			}
			b.cur = nil
		case "fallthrough":
			// Handled by caseClauses via fallsThrough; nothing here.
			b.append(s)
		}

	case *ast.LabeledStmt:
		// A label starts a fresh block so goto/continue can target it.
		blk := b.newBlock()
		b.edgeTo(blk, EdgeAlways)
		b.labels[s.Label.Name] = blk
		b.startBlock(blk)
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.DeferStmt:
		// Argument evaluation happens here; the call itself is replayed in
		// Exit (see Build).
		for _, a := range s.Call.Args {
			b.append(a)
		}

	case *ast.GoStmt:
		b.append(s)

	default:
		if isPanicCall(s) {
			b.append(s)
			b.cur = nil // panicking paths do not reach Exit
			return
		}
		b.append(s)
	}
}

// caseClauses builds the shared switch shape: head branches to every case
// body (and to the join when no default exists); fallthrough chains bodies.
func (b *builder) caseClauses(clauses []ast.Stmt, label string) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	head := b.cur
	join := b.newBlock()
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		bodies[i] = b.newBlock()
		if cc.List == nil {
			hasDefault = true
		}
		connect(head, bodies[i], EdgeAlways)
	}
	if !hasDefault {
		connect(head, join, EdgeAlways)
	}
	for i, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		b.pushSwitchBreak(label, join)
		b.startBlock(bodies[i])
		b.stmtList(cc.Body)
		if fallsThrough(cc.Body) && i+1 < len(bodies) {
			b.edgeTo(bodies[i+1], EdgeAlways)
			b.cur = nil
		} else {
			b.edgeTo(join, EdgeAlways)
		}
		b.popLoop()
	}
	b.startBlock(join)
}

func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok.String() == "fallthrough"
}

// pushLoop registers break/continue targets for a loop.
func (b *builder) pushLoop(label string, brk, cont *Block) {
	b.breaks = append(b.breaks, &branchTarget{label: label, block: brk})
	b.continues = append(b.continues, &branchTarget{label: label, block: cont})
}

// pushSwitchBreak registers only a break target (switch/select).
func (b *builder) pushSwitchBreak(label string, brk *Block) {
	b.breaks = append(b.breaks, &branchTarget{label: label, block: brk})
	b.continues = append(b.continues, nil)
}

func (b *builder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

// findTarget resolves a break/continue to its target block: the innermost
// one, or the one with the matching label.
func (b *builder) findTarget(stack []*branchTarget, label *ast.Ident) *Block {
	for i := len(stack) - 1; i >= 0; i-- {
		t := stack[i]
		if t == nil {
			continue
		}
		if label == nil || t.label == label.Name {
			return t.block
		}
	}
	return nil
}
