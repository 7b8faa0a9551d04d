// Package ownbad violates the linear-ownership contract in every way the
// analyzer distinguishes: leaks on all or some paths, double releases, uses
// after release, discarded and unannotated owned returns, and a buffer
// handed to a helper that frees it without being annotated to consume it.
package ownbad

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

// leak never releases the buffer on any path.
func (p *Port) leak() {
	b := p.Alloc() // want "owned buffer b is not released or transferred on every path"
	b.refs++
}

// leakOnError releases on the happy path only.
func (p *Port) leakOnError(fail bool) {
	b := p.Alloc() // want "released or transferred on some paths to return but not all"
	if fail {
		return
	}
	p.Free(b)
}

// double releases twice on one path.
func (p *Port) double() {
	b := p.Alloc()
	p.Free(b)
	p.Free(b) // want "released or transferred a second time on this path"
}

// useAfterFree reads the buffer after handing it back.
func (p *Port) useAfterFree() int {
	b := p.Alloc()
	p.Free(b)
	return b.refs // want "used after it was released or transferred"
}

// maybeUse reads a buffer one path has already released.
func (p *Port) maybeUse(flush bool) int {
	b := p.Alloc()
	if flush {
		p.Free(b)
	}
	return b.refs // want "may be released or transferred on a path reaching this point"
}

// discard drops an owned result on the floor.
func (p *Port) discard() {
	p.Alloc() // want "owned buffer returned by Alloc is discarded"
}

// blank discards through the blank identifier.
func (p *Port) blank() {
	_ = p.Alloc() // want "owned buffer discarded by assignment to _"
}

// escape returns an owned buffer without advertising it.
func (p *Port) escape() *Buf {
	b := p.Alloc()
	return b // want "from a function not annotated"
}

// overwrite drops the first buffer by reassigning the variable.
func (p *Port) overwrite() {
	b := p.Alloc()
	b = p.Alloc() // want "overwritten while still owned"
	p.Free(b)
}

// forget frees its parameter on every path, but only a //ccnic:transfer
// annotation makes a function consume a buffer: callers still own what they
// pass it.
func (p *Port) forget(b *Buf) {
	p.Free(b)
}

// viaUnannotated hands its buffer to forget, which only borrows it.
func (p *Port) viaUnannotated() {
	b := p.Alloc() // want "owned buffer b is not released or transferred on every path"
	p.forget(b)
}
