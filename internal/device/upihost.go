package device

import (
	"ccnic/internal/bufpool"
	"ccnic/internal/coherence"
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
		n = regPost(p, q.host, q.txR, &q.txTailVis, bufs)
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
// then bump the tail register (one line write; the consumer polls it once
// vis has passed).
func regPost(p *sim.Proc, a *coherence.Agent, r *ring.Reg, vis *sim.Time, bufs []*bufpool.Buf) int {
	n := r.Post(p, a, bufs)
	if n > 0 {
		*vis = a.WriteAsync(p, r.TailReg(), 8)
	}
	return n
}

// reclaimTx frees TX buffers completed by the NIC in register mode (DD
// writebacks) — the host bookkeeping pass PCIe-style interfaces require.
func (q *upiQueue) reclaimTx(p *sim.Proc) {
	if q.dev.cfg.InlineSignal || p.Now() < q.txDoneVis {
		return
	}
	r := q.txR
	done := 0
	for r.HeadIdx+done < r.TailIdx && r.Done(r.HeadIdx+done) {
		done++
	}
	if done > 0 {
		r.Reclaim(p, q.host, done, q.hostPort)
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
		got := q.rxI.Consume(p, q.host, out)
		if !cfg.NICBufMgmt && got > 0 {
			q.refillBlanks(p, got)
		}
		return got
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
	r.Consume(p, q.host, out[:n])
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

// primeRx performs the driver's RX queue initialization: posting the
// initial set of blank buffers (host-managed modes only).
func (q *upiQueue) primeRx(p *sim.Proc) {
	if q.primed || q.dev.cfg.NICBufMgmt {
		return
	}
	q.primed = true
	if q.dev.cfg.InlineSignal {
		q.postBlanks(p, q.dev.cfg.RingLines*3/4*q.dev.cfg.Layout.DescsPerLine())
		return
	}
	q.postBlanks(p, q.dev.cfg.RingLines*3/4)
	q.host.Write(p, q.rxR.TailReg(), 8)
}

// refillBlanks posts up to n fresh blank buffers for the NIC (host-managed
// modes), bumping the RX tail register in register mode.
func (q *upiQueue) refillBlanks(p *sim.Proc, n int) {
	if q.postBlanks(p, n) > 0 && !q.dev.cfg.InlineSignal {
		q.rxTailVis = q.host.WriteAsync(p, q.rxR.TailReg(), 8)
	}
}

// postBlanks allocates up to n blank buffers and posts them for the NIC:
// through the fill ring when inline-signaled, through the RX ring otherwise.
// Blanks that do not fit go back to the pool; the count posted is returned
// and publishing the RX tail is the caller's.
func (q *upiQueue) postBlanks(p *sim.Proc, n int) int {
	if cap(q.blanks) < n {
		q.blanks = make([]*bufpool.Buf, n)
	}
	blanks := q.blanks[:q.hostPort.AllocBurst(p, bigSize, q.blanks[:n])]
	if q.dev.cfg.InlineSignal {
		posted := q.fillI.Post(p, q.host, blanks)
		q.fillI.TakeReclaimed()
		q.hostPort.FreeBurst(p, blanks[posted:])
		return posted
	}
	fit := min(len(blanks), q.rxR.Space())
	q.hostPort.FreeBurst(p, blanks[fit:])
	return q.rxR.Post(p, q.host, blanks[:fit])
}

// Port implements Queue.
func (q *upiQueue) Port() *bufpool.Port { return q.hostPort }
