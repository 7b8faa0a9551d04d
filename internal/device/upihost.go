package device

import (
	"ccnic/internal/bufpool"
	"ccnic/internal/coherence"
	"ccnic/internal/mem"
	"ccnic/internal/ring"
	"ccnic/internal/sim"
)

// This file implements the host-side driver of the coherent NIC interface:
// the Queue methods (TxBurst, RxBurst, Release) and the register-mode and
// host-managed buffer bookkeeping they need.

// driverOverhead charges fixed per-burst and per-packet instruction costs.
func driverOverhead(p *sim.Proc, a *coherence.Agent, pkts int, perBurst, perPkt sim.Time) {
	a.Exec(p, perBurst+sim.Time(pkts)*perPkt)
}

// TxBurst implements Queue.
func (q *upiQueue) TxBurst(p *sim.Proc, bufs []*bufpool.Buf) int {
	cfg := &q.dev.cfg
	driverOverhead(p, q.host, len(bufs), 10*sim.Nanosecond, 2*sim.Nanosecond)
	// A second segment is one more descriptor word on the coherent path.
	for _, b := range bufs {
		if b.ExtLen > 0 {
			q.host.Exec(p, 3*sim.Nanosecond)
		}
	}
	if !cfg.NICBufMgmt {
		q.primeRx(p)
		q.reclaimTx(p)
	}
	var n int
	if cfg.InlineSignal {
		n = q.txI.Post(p, q.host, bufs)
		if !cfg.NICBufMgmt {
			q.trackInflight(bufs[:n])
			q.freeReclaimed(p, q.txI.TakeReclaimed())
		}
	} else {
		n = q.regPost(p, q.host, q.txR, bufs)
	}
	if n > 0 {
		q.dev.notify(q.idx)
	}
	return n
}

// trackInflight records posted TX buffers per line group for later reclaim.
func (q *upiQueue) trackInflight(bufs []*bufpool.Buf) {
	per := 1
	if q.dev.cfg.Layout != ring.Padded {
		per = ring.SlotsPerLine
	}
	for len(bufs) > 0 {
		n := len(bufs)
		if n > per {
			n = per
		}
		q.txInflight = append(q.txInflight, txGroup{bufs: append([]*bufpool.Buf(nil), bufs[:n]...)})
		bufs = bufs[n:]
	}
}

// freeReclaimed frees TX buffers whose ring lines the consumer has cleared.
func (q *upiQueue) freeReclaimed(p *sim.Proc, lines int) {
	for i := 0; i < lines && len(q.txInflight) > 0; i++ {
		g := q.txInflight[0]
		q.txInflight = q.txInflight[1:]
		q.hostPort.FreeBurst(p, g.bufs)
	}
}

// regPost is the register-signaled producer path: write packed descriptors,
// then bump the tail register (one line write; the consumer polls it).
func (q *upiQueue) regPost(p *sim.Proc, a *coherence.Agent, r *ring.Reg, bufs []*bufpool.Buf) int {
	n := len(bufs)
	if sp := r.Space(); n > sp {
		n = sp
	}
	if n == 0 {
		return 0
	}
	for i := 0; i < n; i++ {
		r.Put(r.TailIdx+i, bufs[i])
	}
	a.ScatterWrite(p, r.LinesFor(r.TailIdx, n))
	r.TailIdx += n
	vis := a.WriteAsync(p, r.TailReg(), 8)
	if r == q.txR {
		q.txTailVis = vis
	} else {
		q.rxTailVis = vis
	}
	return n
}

// reclaimTx frees TX buffers completed by the NIC in register mode (DD
// writebacks) — the host bookkeeping pass PCIe-style interfaces require.
func (q *upiQueue) reclaimTx(p *sim.Proc) {
	if q.dev.cfg.InlineSignal || q.txR == nil {
		return
	}
	r := q.txR
	if p.Now() < q.txDoneVis {
		return
	}
	var lines []mem.Addr
	done := 0
	for r.HeadIdx+done < r.TailIdx && r.Done(r.HeadIdx+done) {
		done++
	}
	if done == 0 {
		return
	}
	lines = r.LinesFor(r.HeadIdx, done)
	q.host.GatherRead(p, lines)
	for i := 0; i < done; i++ {
		b := r.Take(r.HeadIdx)
		r.ClearDone(r.HeadIdx)
		r.HeadIdx++
		if b != nil {
			q.hostPort.Free(p, b)
		}
	}
}

// RxBurst implements Queue.
func (q *upiQueue) RxBurst(p *sim.Proc, out []*bufpool.Buf) int {
	cfg := &q.dev.cfg
	driverOverhead(p, q.host, 0, 5*sim.Nanosecond, 0)
	if !cfg.NICBufMgmt {
		q.primeRx(p)
	}
	if cfg.InlineSignal {
		got := q.rxI.Consume(p, q.host, len(out))
		copy(out, got)
		if !cfg.NICBufMgmt && len(got) > 0 {
			q.refillBlanks(p, len(got))
		}
		return len(got)
	}
	r := q.rxR
	n := 0
	if cfg.NICBufMgmt {
		// Symmetric register mode: the NIC bumped the RX tail
		// register after writing descriptors.
		q.host.Poll(p, r.TailReg(), 8)
		if p.Now() >= q.rxTailVis {
			n = r.TailIdx - r.HeadIdx
		}
	} else {
		// E810 register signaling: poll the RX completion register,
		// then read the completed descriptors up to its index.
		q.host.Poll(p, r.HeadReg(), 8)
		if p.Now() >= q.rxDoneVis {
			n = q.rxCompIdx - r.HeadIdx
		}
	}
	if n > len(out) {
		n = len(out)
	}
	if n == 0 {
		q.host.Poll(p, r.DescAddr(r.HeadIdx), ring.DescSize)
		return 0
	}
	q.host.GatherRead(p, r.LinesFor(r.HeadIdx, n))
	for i := 0; i < n; i++ {
		out[i] = r.Take(r.HeadIdx)
		r.ClearDone(r.HeadIdx)
		r.HeadIdx++
	}
	if cfg.NICBufMgmt {
		// Return credits to the producer via the head register.
		q.host.WriteAsync(p, r.HeadReg(), 8)
	} else {
		// Host-managed: refill the blank ring as descriptors drain.
		q.refillBlanks(p, n)
	}
	return n
}

// Release implements Queue: buffers return to the pool; ring refill happens
// in RxBurst. Consumes the buffers.
//
//ccnic:transfer
func (q *upiQueue) Release(p *sim.Proc, bufs []*bufpool.Buf) {
	q.hostPort.FreeBurst(p, bufs)
}

// refillBlanks posts n fresh blank buffers for the NIC (host-managed
// modes): through the fill ring when inline-signaled, through the RX ring
// plus its tail register otherwise.
func (q *upiQueue) refillBlanks(p *sim.Proc, n int) {
	blanks := make([]*bufpool.Buf, 0, n)
	for i := 0; i < n; i++ {
		b := q.hostPort.Alloc(p, bigSize)
		if b == nil {
			break
		}
		blanks = append(blanks, b)
	}
	if len(blanks) == 0 {
		return
	}
	if q.dev.cfg.InlineSignal {
		posted := q.fillI.Post(p, q.host, blanks)
		q.fillI.TakeReclaimed()
		q.hostPort.FreeBurst(p, blanks[posted:])
		return
	}
	r := q.rxR
	if sp := r.Space(); len(blanks) > sp {
		q.hostPort.FreeBurst(p, blanks[sp:])
		blanks = blanks[:sp]
	}
	if len(blanks) == 0 {
		return
	}
	for i, b := range blanks {
		r.Put(r.TailIdx+i, b)
	}
	q.host.ScatterWrite(p, r.LinesFor(r.TailIdx, len(blanks)))
	r.TailIdx += len(blanks)
	q.rxTailVis = q.host.WriteAsync(p, r.TailReg(), 8)
}

// Port implements Queue.
func (q *upiQueue) Port() *bufpool.Port { return q.hostPort }
