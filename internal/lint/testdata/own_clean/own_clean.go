// Package ownclean exercises every idiom the ownership analyzer must accept:
// nil-guarded early returns, conditional releases, moves, transfers through
// append / channel send / ring store, deferred releases, a function that
// consumes a buffer and hands it back owned, and a consuming helper.
package ownclean

// Buf is a pool buffer; the analyzer recognizes the type by name.
type Buf struct {
	refs int
	data []byte
}

// Port hands out and reclaims buffers.
type Port struct {
	free        []*Buf
	outstanding int
}

// Alloc returns an owned buffer (nil when the pool is empty).
//
//ccnic:owns
func (p *Port) Alloc() *Buf {
	n := len(p.free)
	if n == 0 {
		return nil
	}
	b := p.free[n-1]
	p.free = p.free[:n-1]
	p.outstanding++
	return b
}

// Free returns a buffer to the pool, consuming it.
//
//ccnic:transfer
func (p *Port) Free(b *Buf) {
	p.outstanding--
	p.free = append(p.free, b)
}

// take consumes a buffer and hands the same buffer back as a new owned
// allocation, as bufpool's take does.
//
//ccnic:transfer
//ccnic:owns
func (p *Port) take(b *Buf) *Buf {
	p.outstanding++
	return b
}

// roundTrip is the straight-line acquire-use-release shape.
func (p *Port) roundTrip() {
	b := p.Alloc()
	if b == nil {
		return
	}
	b.refs++
	p.Free(b)
}

// conditional releases under a nil guard; the merge of the released arm and
// the refined nil arm must stay clean.
func (p *Port) conditional() {
	b := p.Alloc()
	if b != nil {
		p.Free(b)
	}
}

// splitPath releases on both of two return paths; the mutation self-test
// deletes the cold-path Free and the analyzer must flag the leak.
func (p *Port) splitPath(hot bool) {
	b := p.Alloc()
	if b == nil {
		return
	}
	if hot {
		b.refs++
		p.Free(b)
		return
	}
	p.Free(b)
}

// batch transfers through append and a channel send.
func (p *Port) batch(out []*Buf, ch chan *Buf) []*Buf {
	b := p.Alloc()
	if b == nil {
		return out
	}
	out = append(out, b)
	c := p.Alloc()
	if c == nil {
		return out
	}
	ch <- c
	return out
}

// deferred releases at function exit.
func (p *Port) deferred() int {
	b := p.Alloc()
	if b == nil {
		return 0
	}
	defer p.Free(b)
	return b.refs
}

// move reassigns ownership to a second variable; only the destination
// carries the obligation afterwards.
func (p *Port) move() {
	b := p.Alloc()
	c := b
	if c != nil {
		p.Free(c)
	}
}

// retake reassigns the variable to take's result: the consumed buffer and
// the reacquired one are one obligation, released once.
func (p *Port) retake() {
	b := p.Alloc()
	if b == nil {
		return
	}
	b = p.take(b)
	p.Free(b)
}

// drop consumes b on every path, and says so with //ccnic:transfer: that
// annotation is the only way a helper takes ownership.
//
//ccnic:transfer
func (p *Port) drop(b *Buf) {
	if b == nil {
		return
	}
	p.Free(b)
}

// viaHelper hands its buffer to the consuming helper.
func (p *Port) viaHelper() {
	b := p.Alloc()
	p.drop(b)
}

// loop re-acquires each iteration; the loop-head join must not leak state
// across iterations.
func (p *Port) loop(n int) {
	for i := 0; i < n; i++ {
		b := p.Alloc()
		if b == nil {
			break
		}
		p.Free(b)
	}
}
