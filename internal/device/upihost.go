package device

import (
	"ccnic/internal/bufpool"
	"ccnic/internal/ring"
	"ccnic/internal/sim"
)

// This file implements the host-side driver of the coherent NIC interface:
// the Queue methods (TxBurst, RxBurst, Release) and the register-mode and
// host-managed buffer bookkeeping they need.

// Driver costs: the fixed per-burst and per-packet instruction cost of a
// TxBurst or RxBurst call, and a TX packet's second segment, one more
// descriptor word on the coherent path.
const (
	txBurstCost = 10 * sim.Nanosecond
	txPktCost   = 2 * sim.Nanosecond
	rxBurstCost = 5 * sim.Nanosecond
	extSegCost  = 3 * sim.Nanosecond
)

// TxBurst implements Queue. The call's driver overhead is its one park;
// the rest runs as a walk (driverWalk) in its spin steps.
func (q *upiQueue) TxBurst(p *sim.Proc, bufs []*bufpool.Buf) int {
	return q.call(txStart, bufs, txBurstCost+sim.Time(len(bufs))*txPktCost).park(p)
}

// RxBurst implements Queue, as TxBurst does.
func (q *upiQueue) RxBurst(p *sim.Proc, out []*bufpool.Buf) int {
	return q.call(rxStart, out, rxBurstCost).park(p)
}

// Release implements Queue: buffers return to the pool; ring refill happens
// in RxBurst. Consumes the buffers.
//
//ccnic:transfer
func (q *upiQueue) Release(p *sim.Proc, bufs []*bufpool.Buf) {
	q.hostPort.FreeBurst(p, bufs)
}

// Port implements Queue.
func (q *upiQueue) Port() *bufpool.Port { return q.hostPort }

// trackInflight records posted TX buffers per line group for later reclaim.
//
//ccnic:noalloc
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
		q.txInflight = append(q.txInflight, txGroup{bufs: append([]*bufpool.Buf(nil), bufs[:n]...)}) //ccnic:alloc-ok host-managed inline mode keeps a copy per in-flight line group
		bufs = bufs[n:]
	}
}

// driverWalk is one driver call as a walk (see charge), run in the spin
// steps of the calling process once the call's driver overhead has
// elapsed: a coherent queue's TxBurst or RxBurst (run), or a PCIe queue's
// TxBurst, RxBurst or Release (runPCIe). The coherent driver's subroutines
// are its bookkeeping passes: the RX queue's initial fill (prime), a
// blank-buffer post (postBlanks) and the refill that follows a receive
// (refill), TX completion reclaim (reclaim) and the inline TX path's frees
// of reclaimed lines. A queue keeps a free list of them: its TxBurst and
// RxBurst may run on two processes at once.
type driverWalk struct {
	q        *upiQueue  // the coherent queue called, or nil
	pq       *pcieQueue // the PCIe queue called, or nil
	stage    drvStage
	c        charge
	overhead sim.Time

	// bufs is TxBurst's packets, RxBurst's out or Release's buffers; n the
	// call's count.
	bufs []*bufpool.Buf
	n    int
	// j counts the packets the second-segment pass has seen, or the
	// reclaimed lines freed.
	j, lines int

	// The subroutines' return stages, postBlanks' and refill's blank count
	// and how many postBlanks posted, and the blanks it allocated and how
	// many fit the register ring.
	primeRet, postRet, refillRet, reclaimRet drvStage
	want, posted, fit                        int
	blanks                                   []*bufpool.Buf

	// The PCIe watchdog's instant and return stage, and the doorbell whose
	// write is in flight: its ring, or the tail a re-ring conveys, and the
	// stage that follows it.
	now           sim.Time
	watchRet, ret drvStage
	db            *doorbell
	dbRing        *ring.Reg
	tail          int

	// step is Advance, bound once; home is the free list the walker
	// returns to.
	step func() (sim.Time, bool)
	home **driverWalk
	next *driverWalk
}

// drvStage is where a driverWalk resumes.
type drvStage uint8

const (
	drvDone drvStage = iota // the call ends

	// TxBurst.
	txStart         // charge second segments
	txPrime         // host-managed: prime, then reclaim
	txReclaim       // reclaim completed TX descriptors
	txPost          // post the packets
	txPosted        // the inline Post has ended
	txRegPosted     // the register Post has ended
	txFreeReclaimed // free the next reclaimed line's buffers
	txFreed         // that free burst has ended
	txNotify        // signal event-driven NIC cores

	// RxBurst.
	rxStart       // host-managed: prime
	rxConsume     // consume, or poll the register
	rxConsumed    // the inline Consume has ended
	rxTailPolled  // the tail-register poll has completed
	rxHeadPolled  // the completion-register poll has completed
	rxAvail       // consume the ready descriptors
	rxRegConsumed // the register Consume has ended

	// prime.
	prime     // post the initial blanks
	primeTail // publish the RX tail

	// postBlanks.
	pbStart     // allocate blanks
	pbAllocated // the allocation burst has ended
	pbPosted    // inline: the fill ring's Post has ended
	pbFreed     // inline: the unposted blanks are freed
	pbRegFreed  // register: the blanks that do not fit are freed
	pbRegPosted // register: the RX ring's Post has ended

	// refill.
	refill     // post blanks
	refillTail // register: publish the RX tail
	refillVis  // the tail write has issued

	// reclaim.
	reclaim // reclaim completed descriptors
)

// call takes a driver walker for a call on q that starts at stage with
// bufs, once overhead has elapsed.
//
//ccnic:noalloc
func (q *upiQueue) call(stage drvStage, bufs []*bufpool.Buf, overhead sim.Time) *driverWalk {
	w := driver(&q.drivers)
	w.q, w.bufs, w.stage, w.overhead = q, bufs, stage, overhead
	return w
}

// driver takes a walker off the free list at home, or makes one.
//
//ccnic:noalloc
func driver(home **driverWalk) *driverWalk {
	w := *home
	if w == nil {
		w = &driverWalk{home: home} //ccnic:alloc-ok free-list warm-up: one walker per concurrent driver call
		w.step = w.Advance          //ccnic:alloc-ok bound once, when the walker is made
	} else {
		*home = w.next
	}
	w.n, w.j = 0, 0
	return w
}

// park sleeps the call's driver overhead on p, running the walk in its
// spin steps, and returns the call's count.
//
//ccnic:noalloc
func (w *driverWalk) park(p *sim.Proc) int {
	p.Spin(w.overhead, w.step)
	return w.end()
}

// end returns the ended call's walker to its free list and returns the
// call's count.
//
//ccnic:noalloc
func (w *driverWalk) end() int {
	n := w.n
	w.bufs, w.blanks = nil, nil
	w.next, *w.home = *w.home, w
	return n
}

// Advance completes the charge in flight and runs the call on to its next
// charge, returning its cost, or to its end.
//
//ccnic:noalloc
func (w *driverWalk) Advance() (sim.Time, bool) {
	if d, more := w.c.advance(); more {
		return d, true
	}
	if w.pq != nil {
		return w.runPCIe()
	}
	return w.run()
}

// run runs the call on from w.stage, once the charge before it has
// completed, up to its next charge or its end.
//
//ccnic:noalloc
func (w *driverWalk) run() (sim.Time, bool) {
	q := w.q
	cfg := &q.dev.cfg
	for {
		var d sim.Time
		var ok bool
		now := q.dev.sys.Kernel().Now()
		switch w.stage {
		case drvDone:
			return 0, false

		case txStart:
			// A second segment is one more descriptor word on the
			// coherent path.
			w.stage = txPrime
			for w.j < len(w.bufs) {
				w.j++
				if w.bufs[w.j-1].ExtLen > 0 {
					w.stage = txStart
					d, ok = extSegCost, true
					break
				}
			}
		case txPrime:
			w.stage = txPost
			if !cfg.NICBufMgmt {
				w.primeRet, w.reclaimRet, w.stage = txReclaim, txPost, prime
			}
		case txReclaim:
			w.stage = reclaim
		case txPost:
			if cfg.InlineSignal {
				w.stage = txPosted
				d, ok = w.c.ring.Post(q.txI, q.host, w.bufs)
			} else {
				w.stage = txRegPosted
				d, ok = w.c.ring.RegPost(q.txR, q.host, w.bufs, &q.txTailVis)
			}
		case txPosted:
			w.n, w.stage = w.c.ring.N(), txNotify
			if !cfg.NICBufMgmt {
				q.trackInflight(w.bufs[:w.n])
				w.j, w.lines, w.stage = 0, q.txI.TakeReclaimed(), txFreeReclaimed
			}
		case txRegPosted:
			w.n, w.stage = w.c.ring.N(), txNotify
		case txFreeReclaimed:
			// Free the TX buffers whose ring lines the consumer has
			// cleared.
			w.stage = txNotify
			if w.j < w.lines && len(q.txInflight) > 0 {
				g := q.txInflight[0]
				q.txInflight = q.txInflight[1:]
				w.stage = txFreed
				d, ok = w.c.startBurst(q.hostPort.StartFree(g.bufs))
			}
		case txFreed:
			w.c.burstEnd()
			w.j++
			w.stage = txFreeReclaimed
		case txNotify:
			if w.n > 0 {
				q.dev.notify(q.idx)
			}
			w.stage = drvDone

		case rxStart:
			w.stage = rxConsume
			if !cfg.NICBufMgmt {
				w.primeRet, w.stage = rxConsume, prime
			}
		case rxConsume:
			switch {
			case cfg.InlineSignal:
				w.stage = rxConsumed
				d, ok = w.c.ring.Consume(q.rxI, q.host, w.bufs)
			case cfg.NICBufMgmt:
				// Symmetric register mode: the NIC bumped the RX tail
				// register after writing descriptors.
				w.stage = rxTailPolled
				d, ok = w.c.acc.Poll(q.host, q.rxR.TailReg(), 8)
			default:
				// E810 register signaling: poll the RX completion
				// register, then read the completed descriptors up to
				// its index.
				w.stage = rxHeadPolled
				d, ok = w.c.acc.Poll(q.host, q.rxR.HeadReg(), 8)
			}
		case rxConsumed:
			w.n, w.stage = w.c.ring.N(), drvDone
			if !cfg.NICBufMgmt && w.n > 0 {
				w.want, w.refillRet, w.stage = w.n, drvDone, refill
			}
		case rxTailPolled:
			if now >= q.rxTailVis {
				w.n = q.rxR.TailIdx - q.rxR.HeadIdx
			}
			w.stage = rxAvail
		case rxHeadPolled:
			if now >= q.rxDoneVis {
				w.n = q.rxCompIdx - q.rxR.HeadIdx
			}
			w.stage = rxAvail
		case rxAvail:
			r := q.rxR
			w.n = min(w.n, len(w.bufs))
			if w.n == 0 {
				w.stage = drvDone
				d, ok = w.c.acc.Poll(q.host, r.DescAddr(r.HeadIdx), ring.DescSize)
				break
			}
			w.stage = rxRegConsumed
			d, ok = w.c.ring.RegConsume(r, q.host, w.bufs[:w.n])
		case rxRegConsumed:
			w.stage = drvDone
			if cfg.NICBufMgmt {
				// Return credits to the producer via the head register.
				d, ok = w.c.acc.WriteAsync(q.host, q.rxR.HeadReg(), 8)
				break
			}
			// Host-managed: refill the blank ring as descriptors drain.
			w.want, w.refillRet, w.stage = w.n, drvDone, refill

		case prime:
			// The driver's RX queue initialization: posting the initial
			// set of blank buffers (host-managed modes only).
			w.stage = w.primeRet
			if q.primed || cfg.NICBufMgmt {
				continue
			}
			q.primed = true
			w.want = cfg.RingLines * 3 / 4
			if cfg.InlineSignal {
				w.want *= cfg.Layout.DescsPerLine()
			}
			w.postRet, w.stage = primeTail, pbStart
		case primeTail:
			w.stage = w.primeRet
			if !cfg.InlineSignal {
				d, ok = w.c.acc.Write(q.host, q.rxR.TailReg(), 8)
			}

		case pbStart:
			// Allocate up to want blank buffers and post them for the
			// NIC: through the fill ring when inline-signaled, through the
			// RX ring otherwise. Blanks that do not fit go back to the
			// pool; publishing the RX tail is the caller's.
			if cap(q.blanks) < w.want {
				q.blanks = make([]*bufpool.Buf, w.want) //ccnic:alloc-ok grows to the ring's blank count once
			}
			w.posted, w.stage = 0, pbAllocated
			d, ok = w.c.startBurst(q.hostPort.StartAlloc(bigSize, q.blanks[:w.want]))
		case pbAllocated:
			w.blanks = q.blanks[:w.c.burstEnd()]
			if cfg.InlineSignal {
				w.stage = pbPosted
				d, ok = w.c.ring.Post(q.fillI, q.host, w.blanks)
				break
			}
			w.fit, w.stage = min(len(w.blanks), q.rxR.Space()), pbRegFreed
			d, ok = w.c.startBurst(q.hostPort.StartFree(w.blanks[w.fit:]))
		case pbPosted:
			w.posted = w.c.ring.N()
			q.fillI.TakeReclaimed()
			w.stage = pbFreed
			d, ok = w.c.startBurst(q.hostPort.StartFree(w.blanks[w.posted:]))
		case pbFreed:
			w.c.burstEnd()
			w.blanks, w.stage = nil, w.postRet
		case pbRegFreed:
			w.c.burstEnd()
			w.stage = pbRegPosted
			d, ok = w.c.ring.RegPost(q.rxR, q.host, w.blanks[:w.fit], nil)
		case pbRegPosted:
			w.posted = w.c.ring.N()
			w.blanks, w.stage = nil, w.postRet

		case refill:
			// Post up to want fresh blanks for the NIC, bumping the RX
			// tail register in register mode.
			w.postRet, w.stage = refillTail, pbStart
		case refillTail:
			w.stage = w.refillRet
			if w.posted > 0 && !cfg.InlineSignal {
				w.stage = refillVis
				d, ok = w.c.acc.WriteAsync(q.host, q.rxR.TailReg(), 8)
			}
		case refillVis:
			q.rxTailVis = w.c.acc.Visible()
			w.stage = w.refillRet

		case reclaim:
			// Free TX buffers completed by the NIC in register mode (DD
			// writebacks) — the host bookkeeping pass PCIe-style
			// interfaces require.
			w.stage = w.reclaimRet
			if cfg.InlineSignal || now < q.txDoneVis {
				continue
			}
			r := q.txR
			done := 0
			for r.HeadIdx+done < r.TailIdx && r.Done(r.HeadIdx+done) {
				done++
			}
			if done > 0 {
				d, ok = w.c.ring.Reclaim(r, q.host, done, q.hostPort)
			}
		//ccnic:default-ok run is sent only the coherent driver's stages
		default:
		}
		if ok {
			return d, true
		}
	}
}
