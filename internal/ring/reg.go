package ring

import (
	"fmt"

	"ccnic/internal/bufpool"
	"ccnic/internal/coherence"
	"ccnic/internal/mem"
	"ccnic/internal/sim"
)

// Reg is a conventional register-signaled descriptor ring: a circular array
// of packed 16B descriptors in host memory, a producer tail register, a
// consumer position, and per-descriptor completion (DD) writebacks.
//
// Reg owns the driver side (Post, Consume, Reclaim): one E810 driver whether
// a PCIe NIC or the unoptimized-UPI baseline sits behind the ring. Device
// sides differ radically — a PCIe NIC reaches the array with DMA, the UPI
// NIC with coherent loads and stores — so device models charge their own
// accesses using the address helpers here.
type Reg struct {
	sys   *coherence.System
	nDesc int
	base  mem.Addr
	tail  mem.Addr // producer doorbell register line
	head  mem.Addr // consumer progress register line

	slots []*bufpool.Buf
	done  []bool

	// Descriptor-line scratch of the driver's producer (Post) and consumer
	// (Consume, Reclaim) sides.
	postLines, consLines sim.Scratch[mem.Addr]
	// reclaim feeds Reclaim's free burst.
	reclaim reclaimFeed

	// Software indexes (monotone; callers take mod Size).
	TailIdx int // producer publish position
	HeadIdx int // consumer completion position

	// watch is fired by every advance of TailIdx, and by the producer's
	// publish of the tail register (Watch).
	watch sim.Watch
}

// NewReg allocates a register ring with nDesc descriptors. The descriptor
// array lives on descSocket; the tail and head register lines live on
// regSocket (device BAR space for PCIe NICs, device memory for the
// unoptimized UPI baseline).
func NewReg(sys *coherence.System, nDesc, descSocket, regSocket int) *Reg {
	if nDesc < SlotsPerLine {
		panic("ring: register ring too small")
	}
	sp := sys.Space()
	return &Reg{
		sys:   sys,
		nDesc: nDesc,
		base:  sp.Alloc(descSocket, nDesc*DescSize, mem.LineSize),
		tail:  sp.AllocLines(regSocket, 1),
		head:  sp.AllocLines(regSocket, 1),
		slots: make([]*bufpool.Buf, nDesc),
		done:  make([]bool, nDesc),
	}
}

// Watch returns the ring's publish watch, for the consumer's doze. Post
// fires it; a producer that gates the consumer's view of the tail on its
// register write's visibility fires it once it has set that gate.
func (r *Reg) Watch() *sim.Watch { return &r.watch }

// Size returns the descriptor count.
func (r *Reg) Size() int { return r.nDesc }

// notify reports a completed ring mutation to the system's validation probe.
func (r *Reg) notify() {
	if pr := r.sys.Probe(); pr != nil {
		pr.ObjectEvent(r)
	}
}

// CheckDesc implements coherence.Checkable.
func (r *Reg) CheckDesc() string {
	return fmt.Sprintf("reg ring %d @%#x", r.nDesc, r.base)
}

// CheckInvariants implements coherence.Checkable: the head never passes the
// tail and the tail never laps the head (the one-slot-gap rule drivers
// enforce through Space).
func (r *Reg) CheckInvariants() error {
	if r.HeadIdx < 0 || r.TailIdx < r.HeadIdx {
		return fmt.Errorf("head index %d ahead of tail index %d", r.HeadIdx, r.TailIdx)
	}
	if used := r.TailIdx - r.HeadIdx; used > r.nDesc-1 {
		return fmt.Errorf("tail %d laps head %d: %d used slots in a %d-descriptor ring",
			r.TailIdx, r.HeadIdx, used, r.nDesc)
	}
	return nil
}

// Space returns the number of free descriptor slots for the producer.
func (r *Reg) Space() int { return r.nDesc - (r.TailIdx - r.HeadIdx) - 1 }

// DescAddr returns the address of descriptor i (absolute index).
//
//ccnic:noalloc
func (r *Reg) DescAddr(i int) mem.Addr {
	return r.base + mem.Addr((i%r.nDesc)*DescSize)
}

// TailReg returns the tail register line address.
func (r *Reg) TailReg() mem.Addr { return r.tail }

// HeadReg returns the head register line address.
func (r *Reg) HeadReg() mem.Addr { return r.head }

// LinesFor appends to dst the distinct descriptor cache lines covering
// descriptors [from, from+count). Callers pass a scratch slice they own.
//
//ccnic:noalloc
func (r *Reg) LinesFor(dst []mem.Addr, from, count int) []mem.Addr {
	n := len(dst)
	for i := from; i < from+count; i++ {
		if l := mem.LineOf(r.DescAddr(i)); len(dst) == n || dst[len(dst)-1] != l {
			dst = append(dst, l)
		}
	}
	return dst
}

// access charges agent a for a gather read (or, with write, a scatter
// write) of the descriptor lines covering [from, from+count), building the
// list in the given side's scratch.
func (r *Reg) access(p *sim.Proc, a *coherence.Agent, side *sim.Scratch[mem.Addr], from, count int, write bool) {
	lines := r.LinesFor(side.Take(), from, count)
	if write {
		a.ScatterWrite(p, lines)
	} else {
		a.GatherRead(p, lines)
	}
	side.Put(lines)
}

// Put stores a buffer in slot i and clears its done flag, taking ownership:
// the buffer now belongs to the ring until the peer Takes it.
//
//ccnic:transfer
func (r *Reg) Put(i int, b *bufpool.Buf) {
	r.slots[i%r.nDesc] = b
	r.done[i%r.nDesc] = false
	r.notify()
}

// Get returns the buffer in slot i.
func (r *Reg) Get(i int) *bufpool.Buf { return r.slots[i%r.nDesc] }

// Take removes and returns the buffer in slot i; the caller now owns it
// (nil if the slot is empty).
//
//ccnic:owns
func (r *Reg) Take(i int) *bufpool.Buf {
	b := r.slots[i%r.nDesc]
	r.slots[i%r.nDesc] = nil
	r.notify()
	return b
}

// SetDone marks descriptor i completed (the DD writeback).
func (r *Reg) SetDone(i int) {
	r.done[i%r.nDesc] = true
	r.notify()
}

// Done reports descriptor i's completion flag.
func (r *Reg) Done(i int) bool { return r.done[i%r.nDesc] }

// ClearDone resets descriptor i's completion flag.
func (r *Reg) ClearDone(i int) { r.done[i%r.nDesc] = false }

// Post writes up to len(bufs) descriptors at the tail from the producer
// agent and advances TailIdx, returning how many fit (limited by Space).
// Publishing the new tail (doorbell or tail-register write) is the caller's.
func (r *Reg) Post(p *sim.Proc, a *coherence.Agent, bufs []*bufpool.Buf) int {
	n := min(len(bufs), r.Space())
	if n <= 0 {
		return 0 // no empty ScatterWrite: it still draws a cache-pressure fault
	}
	for i, b := range bufs[:n] {
		r.Put(r.TailIdx+i, b)
	}
	r.access(p, a, &r.postLines, r.TailIdx, n, true)
	r.TailIdx += n
	r.watch.Fire()
	return n
}

// Consume reads the len(out) descriptors at the head from the consumer
// agent and takes their buffers into out, advancing HeadIdx. The caller has
// established that they are ready.
func (r *Reg) Consume(p *sim.Proc, a *coherence.Agent, out []*bufpool.Buf) {
	r.access(p, a, &r.consLines, r.HeadIdx, len(out), false)
	for i := range out {
		out[i] = r.Take(r.HeadIdx)
		r.ClearDone(r.HeadIdx)
		r.HeadIdx++
	}
}

// Reclaim is Consume for n completed descriptors whose buffers go straight
// back to port (TX completion reclaim), freed as one burst.
func (r *Reg) Reclaim(p *sim.Proc, a *coherence.Agent, n int, port *bufpool.Port) {
	r.access(p, a, &r.consLines, r.HeadIdx, n, false)
	r.reclaim = reclaimFeed{r: r, left: n}
	port.FreeFed(p, &r.reclaim)
}

// reclaimFeed hands Reclaim's free burst (bufpool.FreeFeed) the buffers of
// the completed descriptors at the head. It consumes each descriptor (Take,
// ClearDone, HeadIdx++) in the event the free of the buffer before it
// completes, where the producer's Space may observe it between frees.
type reclaimFeed struct {
	r    *Reg
	left int // descriptors still to consume
}

// Next consumes descriptors up to the next one holding a buffer and returns
// that buffer, or nil once all are consumed.
//
//ccnic:owns
func (f *reclaimFeed) Next(int) *bufpool.Buf {
	r := f.r
	for f.left > 0 {
		f.left--
		b := r.Take(r.HeadIdx)
		r.ClearDone(r.HeadIdx)
		r.HeadIdx++
		if b != nil {
			return b
		}
	}
	return nil
}
