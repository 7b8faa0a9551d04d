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
// Reg owns the driver side (Walk's RegPost, RegConsume and Reclaim): one
// E810 driver whether a PCIe NIC or the unoptimized-UPI baseline sits
// behind the ring. Device sides differ radically — a PCIe NIC reaches the array with DMA, the UPI
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

// Size returns the descriptor count.
//
//ccnic:noalloc
func (r *Reg) Size() int { return r.nDesc }

// notify reports a completed ring mutation to the system's validation probe.
//
//ccnic:noalloc
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
//
//ccnic:noalloc
func (r *Reg) Space() int { return r.nDesc - (r.TailIdx - r.HeadIdx) - 1 }

// DescAddr returns the address of descriptor i (absolute index).
//
//ccnic:noalloc
func (r *Reg) DescAddr(i int) mem.Addr {
	return r.base + mem.Addr((i%r.nDesc)*DescSize)
}

// TailReg returns the tail register line address.
//
//ccnic:noalloc
func (r *Reg) TailReg() mem.Addr { return r.tail }

// HeadReg returns the head register line address.
//
//ccnic:noalloc
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

// Put stores a buffer in slot i and clears its done flag, taking ownership:
// the buffer now belongs to the ring until the peer Takes it.
//
//ccnic:transfer
//ccnic:noalloc
func (r *Reg) Put(i int, b *bufpool.Buf) {
	r.slots[i%r.nDesc] = b
	r.done[i%r.nDesc] = false
	r.notify()
}

// Get returns the buffer in slot i.
//
//ccnic:noalloc
func (r *Reg) Get(i int) *bufpool.Buf { return r.slots[i%r.nDesc] }

// Take removes and returns the buffer in slot i; the caller now owns it
// (nil if the slot is empty).
//
//ccnic:owns
//ccnic:noalloc
func (r *Reg) Take(i int) *bufpool.Buf {
	b := r.slots[i%r.nDesc]
	r.slots[i%r.nDesc] = nil
	r.notify()
	return b
}

// SetDone marks descriptor i completed (the DD writeback).
//
//ccnic:noalloc
func (r *Reg) SetDone(i int) {
	r.done[i%r.nDesc] = true
	r.notify()
}

// Done reports descriptor i's completion flag.
//
//ccnic:noalloc
func (r *Reg) Done(i int) bool { return r.done[i%r.nDesc] }

// ClearDone resets descriptor i's completion flag.
//
//ccnic:noalloc
func (r *Reg) ClearDone(i int) { r.done[i%r.nDesc] = false }

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
