// Package allocclean is a steady-state freelist fast path the checker must
// accept: self-appends into warmed capacity, pointer-shaped interface
// arguments, panic-only cold paths, and an audited //ccnic:alloc-ok
// exception.
package allocclean

type item struct {
	v    int
	next *item
}

type observer interface{ note(v *item) }

type pool struct {
	free []*item
	head *item
	obs  observer
}

//ccnic:noalloc
func (p *pool) push(it *item) {
	it.next = p.head
	p.head = it
	p.free = append(p.free, it) // self-append: reuses warmed capacity
	if p.obs != nil {
		p.obs.note(it) // pointer-shaped argument: no boxing
	}
}

//ccnic:noalloc
func (p *pool) pop() *item {
	n := len(p.free)
	if n == 0 {
		panic("empty pool: " + "refill first")
	}
	it := p.free[n-1]
	p.free = p.free[:n-1]
	p.recycleIfCold(it)
	return it
}

//ccnic:noalloc
func (p *pool) recycleIfCold(it *item) {
	if it.v == 0 {
		it.next = warm(it) //ccnic:alloc-ok audited warm-up outside steady state
	}
}

// warm is unannotated; the call above is covered by //ccnic:alloc-ok.
func warm(it *item) *item { return it }
