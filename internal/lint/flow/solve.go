package flow

// Problem describes one forward dataflow analysis over a Graph: a join
// semilattice of abstract states S plus the transfer function. Facts flow
// from Entry toward Exit. States must be treated as immutable by
// Join/Transfer/Refine (return fresh values; the solver caches and compares
// them).
type Problem[S any] struct {
	// Bottom is the identity for Join: the state of an unreached block.
	Bottom func() S
	// Entry is the state at the graph's Entry block.
	Entry func() S
	// Join combines states flowing in from multiple edges.
	Join func(a, b S) S
	// Equal decides convergence.
	Equal func(a, b S) bool
	// Transfer applies one block's effect to its input state.
	Transfer func(b *Block, in S) S
	// Refine, if non-nil, adjusts the state flowing across an edge
	// (branch-condition refinement: EdgeTrue/EdgeFalse out of a block
	// with Cond set). It sees the source block's output state.
	Refine func(e *Edge, out S) S
}

// Solve runs the worklist algorithm to fixpoint and returns each block's
// input state. Re-apply Transfer to a block's input to recover its output.
func Solve[S any](g *Graph, p Problem[S]) map[*Block]S {
	in := make(map[*Block]S, len(g.Blocks))
	out := make(map[*Block]S, len(g.Blocks))
	for _, blk := range g.Blocks {
		in[blk] = p.Bottom()
		out[blk] = p.Bottom()
	}
	in[g.Entry] = p.Entry()

	// Seed every block so unreachable-but-present code still gets a
	// (bottom) state, then iterate in a stable order until convergence.
	work := make([]*Block, 0, len(g.Blocks))
	inWork := make(map[*Block]bool, len(g.Blocks))
	push := func(blk *Block) {
		if !inWork[blk] {
			inWork[blk] = true
			work = append(work, blk)
		}
	}
	for _, blk := range order(g) {
		push(blk)
	}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		inWork[blk] = false

		// Meet over incoming edges.
		acc := p.Bottom()
		if blk == g.Entry {
			acc = p.Entry()
		}
		for _, e := range blk.Preds {
			s := out[e.From]
			if p.Refine != nil {
				s = p.Refine(e, s)
			}
			acc = p.Join(acc, s)
		}
		in[blk] = acc
		next := p.Transfer(blk, acc)
		if p.Equal(next, out[blk]) {
			continue
		}
		out[blk] = next
		for _, e := range blk.Succs {
			push(e.To)
		}
	}
	return in
}

// order returns blocks in reverse postorder so the first sweep visits
// predecessors before successors where possible.
func order(g *Graph) []*Block {
	seen := make(map[*Block]bool, len(g.Blocks))
	var post []*Block
	var visit func(b *Block)
	visit = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, e := range b.Succs {
			visit(e.To)
		}
		post = append(post, b)
	}
	visit(g.Entry)
	// Unreachable blocks last, in index order, so they still get seeded.
	for _, b := range g.Blocks {
		visit(b)
	}
	rpo := make([]*Block, len(post))
	for i, b := range post {
		rpo[len(post)-1-i] = b
	}
	return rpo
}
