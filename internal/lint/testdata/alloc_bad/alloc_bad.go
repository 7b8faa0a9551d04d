// Package allocbad injects heap allocations into //ccnic:noalloc functions;
// every construct here would defeat an AllocsPerRun guard in steady state.
package allocbad

type item struct{ v int }

type pool struct {
	free    []*item
	scratch []int
	label   string
}

// helper is annotated, so calling it from a noalloc path is fine.
//
//ccnic:noalloc
func helper(p *pool) { _ = p }

// plain is NOT annotated; noalloc paths may not call it.
func plain(p *pool) { _ = p }

type observer interface{ note(v any) }

//ccnic:noalloc
func (p *pool) fastPath(n int) *item {
	buf := make([]int, n)      // want "make allocates"
	p.scratch = append(buf, n) // want "append may grow"
	it := new(item)            // want "new allocates"
	it2 := &item{v: n}         // want "address-taken composite literal"
	_ = it2
	pair := []int{n, n} // want "slice literal allocates"
	_ = pair
	idx := map[int]bool{} // want "map literal allocates"
	_ = idx
	p.label += "x" // want "concatenation allocates"
	helper(p)
	plain(p)     // want "not annotated //ccnic:noalloc"
	go helper(p) // want "go statement allocates"
	return it
}

//ccnic:noalloc
func (p *pool) observe(obs observer, n int) func() {
	obs.note(n) // want "boxes a int into an interface"
	var a any = p
	_ = a // pointer-shaped: storing p in an interface does not allocate
	var b any
	b = n // want "boxes a int into an interface"
	_ = b
	return func() { p.scratch[0] = n } // want "allocates a closure"
}

//ccnic:noalloc
func (p *pool) convert(s string, bs []byte) int {
	b2 := []byte(s)  // want "string to byte/rune slice allocates"
	s2 := string(bs) // want "byte/rune slice to string allocates"
	return len(b2) + len(s2)
}

// drain's literals never leave the function, but the analyzer does not
// model escape: every capturing literal counts as a closure allocation.
//
//ccnic:noalloc
func (p *pool) drain(n int) {
	trim := func(k int) { p.free = p.free[:k] } // want "allocates a closure"
	for i := n; i > 0; i-- {
		trim(i - 1)
	}
	func() { p.scratch = nil }() // want "allocates a closure"
}
