package device

import (
	"slices"

	"ccnic/internal/bufpool"
	"ccnic/internal/mem"
	"ccnic/internal/sim"
)

// This file implements the NIC-side processing of the coherent interface:
// descriptor consumption, loopback and synthetic-ingress packet delivery,
// and the buffer-management modes of §3.3-§3.4.

// pktMeta snapshots a TX packet's metadata at consumption time: in
// host-managed modes the host may recycle the buffer object as soon as the
// completion is visible, so the NIC must not read the Buf afterwards.
type pktMeta struct {
	buf    *bufpool.Buf // nil in host-managed modes after completion
	addr   mem.Addr
	ext    mem.Addr
	len    int
	extLen int
	seq    uint64
	born   sim.Time
}

// snapshot appends the metadata of a burst of consumed TX packets to dst.
//
//ccnic:noalloc
func snapshot(dst []pktMeta, pkts []*bufpool.Buf, keepBufs bool) []pktMeta {
	for _, b := range pkts {
		dst = append(dst, metaOf(b, keepBufs))
	}
	return dst
}

// metaOf snapshots one TX packet, keeping the Buf only if the NIC owns it.
//
//ccnic:noalloc
func metaOf(b *bufpool.Buf, keepBuf bool) pktMeta {
	m := pktMeta{
		addr: b.Addr, ext: b.ExtAddr,
		len: b.Len, extLen: b.ExtLen,
		seq: b.Seq, born: b.Born,
	}
	if keepBuf {
		m.buf = b
	}
	return m
}

// payloadLines appends to dst every cache line of every packet segment in
// a burst so payload accesses can overlap (memory-level parallelism across
// packets, as on real hardware).
//
//ccnic:noalloc
func payloadLines(dst []mem.Addr, metas []pktMeta) []mem.Addr {
	for _, m := range metas {
		dst = mem.AppendLines(dst, m.addr, m.len)
		dst = mem.AppendLines(dst, m.ext, m.extLen)
	}
	return dst
}

// nicWalk is a coherent queue's NIC-side work as a walk (see charge): one
// service iteration (iterate) — consume submitted TX packets, read their
// payloads, loop them back or exchange them with the synthetic wire — and
// the pieces of it the overlay's threads run as part of their own walks:
// regConsumeTx, completeTx and rxEmit. Each piece is a subroutine of the
// iteration, entered at its first stage and left through its return stage.
// A queue has two: walk, run by its NIC core (or the overlay's TX task for
// the queue) and rxWalk, run by the overlay's RX task.
type nicWalk struct {
	q     *upiQueue
	stage nicStage
	c     charge

	// busy reports whether the iteration found work.
	busy bool
	// metas are the iteration's consumed TX packets.
	metas []pktMeta
	// arrived counts the synthetic arrivals the iteration took; one holds
	// the arrival it delivers.
	arrived int
	one     [1]rxMeta

	// The subroutines' return stages.
	consRet, doneRet, emitRet nicStage
	// avail is regConsumeTx's descriptor count, doneN completeTx's; j is
	// the next completion line completeTx or rxEmit writes.
	avail, doneN, j int
	// rxEmit's packets, the next it places and how many it delivered; the
	// register path's first completed slot and completion count; got is a
	// fill-ring Consume's blank.
	pkts                []rxMeta
	i, posted           int
	doneFrom, doneCount int
	got                 [1]*bufpool.Buf

	// step is Advance, bound once.
	step func() (sim.Time, bool)
}

// nicStage is where a nicWalk resumes.
type nicStage uint8

const (
	nicDone nicStage = iota // nothing in flight

	// The service iteration.
	nicStart       // pipeline stall
	nicConsume     // consume the TX ring
	nicConsumed    // the inline Consume has ended
	nicPayload     // read the payloads
	nicPayloadRead // the payload gather has completed
	nicTxDone      // account, then loop back or free
	nicLoopFreed   // loopback: the TX buffers are freed
	nicTxFreed     // ingress: the TX buffers are freed
	nicOffer       // offer the next synthetic arrival
	nicInjected    // the arrival's delivery has ended
	nicEnd         // the iteration ends

	// regConsumeTx.
	txPoll   // poll the tail register
	txPolled // the tail poll has completed
	txRead   // the descriptor gather has completed

	// completeTx.
	txComplete      // flag the descriptors done
	txCompleteLine  // write the next completion line
	txCompleteWrote // its write has issued

	// rxEmit.
	emitStart       // allocate, or take blanks
	emitAllocated   // NIC-managed: the allocation burst has ended
	emitBlank       // host inline: take the next blank
	emitFilled      // host inline: the fill ring's Consume has ended
	emitWrite       // write the payloads
	emitWritten     // the payload scatter has completed: post
	emitPosted      // the Post has ended
	emitFreed       // NIC-managed: the unposted buffers are freed
	emitRegBlank    // E810: take the next blank
	emitRegPolled   // E810: the tail poll has completed
	emitRegRead     // E810: read the blank's descriptor
	emitRegGot      // E810: the descriptor read has completed
	emitRegDone     // E810: write the payloads
	emitRegWritten  // E810: the payload scatter has completed
	emitRegDoneLine // E810: write the next completion line
	emitRegHead     // E810: the completion register's write has issued
)

// init binds the walk to q.
func (w *nicWalk) init(q *upiQueue) {
	w.q = q
	w.step = w.Advance
}

// regConsumeTx starts the register-signaled NIC TX path: poll the tail
// register and read new descriptors, into w.metas once the walk has ended.
// Completion signaling happens after the payload has been read
// (completeTx), never before — otherwise the host could recycle a buffer
// the device is still reading.
//
//ccnic:noalloc
func (w *nicWalk) regConsumeTx() (sim.Time, bool) {
	w.consRet, w.stage = nicDone, txPoll
	return w.run()
}

// completeTx starts writing TX completion (DD) flags for the oldest n
// consumed descriptors after their payloads have been read (E810
// semantics).
//
//ccnic:noalloc
func (w *nicWalk) completeTx(n int) (sim.Time, bool) {
	w.doneN, w.doneRet, w.stage = n, nicDone, txComplete
	return w.run()
}

// rxEmit starts delivering received packets to the host: it allocates RX
// buffers per the configured management mode, writes payloads, and
// publishes RX descriptors. Packets that find no buffer or ring space are
// dropped (the host will catch up); w.posted counts those delivered once
// the walk has ended.
//
//ccnic:noalloc
func (w *nicWalk) rxEmit(pkts []rxMeta) (sim.Time, bool) {
	w.emit(pkts, nicDone)
	return w.run()
}

// nicCore is one NIC processing unit as a walk (see charge): a bodiless
// process serving its queue group, each queue's service iteration
// (nicWalk.iterate) run as a nested walk. A polling core visits every
// unstopped queue each round and sleeps PollGap after a round that found
// no work, so an idle iteration is two events: its poll issues, then
// completes. An event-driven core blocks until a host descriptor write
// signals one of its queues (UPI.notify), then serves exactly that queue
// until an iteration finds nothing: no scan, so discovery cost does not
// grow with the queue count (§3.2). A core ends once every queue of its
// group is stopped. It reads a queue's stop flag only when it picks the
// queue (an event-driven core serves a busy queue on without reading it),
// never inside an iteration, so work an iteration found is still served.
type nicCore struct {
	d     *UPI
	p     *sim.Proc
	group []*upiQueue
	// q is the queue whose iteration is in flight, or that just ended;
	// next is a polling round's next queue, busy and live whether the
	// round found work and visited an unstopped queue.
	q          *upiQueue
	next       int
	busy, live bool
}

// step is the core's spin step: it completes the charge of the iteration
// in flight and runs the core on to its next charge or wait.
//
//ccnic:noalloc
func (c *nicCore) step() (sim.Time, bool) {
	if q := c.q; q != nil {
		if d, more := q.walk.Advance(); more {
			return d, true
		}
	}
	for {
		q, d, ok := c.pick()
		if q == nil {
			return d, ok
		}
		c.q = q
		c.d.nicSteps++
		if d, ok := q.walk.iterate(); ok {
			return d, true
		}
	}
}

// pick returns the queue the core iterates next, once the iteration of c.q
// (if any) has ended; with none, it returns the core's wait, or false to
// end the core.
//
//ccnic:noalloc
func (c *nicCore) pick() (*upiQueue, sim.Time, bool) {
	d, last := c.d, c.q
	c.q = nil
	if d.cfg.EventDriven {
		if last != nil && last.walk.busy {
			return last, 0, false
		}
		live := false
		for _, q := range c.group {
			live = live || !q.stopped
		}
		if !live {
			return nil, 0, false
		}
		for i := 0; i < len(d.pending); i++ {
			q := d.qs[d.pending[i]]
			if q.core != c {
				continue
			}
			copy(d.pending[i:], d.pending[i+1:])
			d.pending = d.pending[:len(d.pending)-1]
			i--
			if !q.stopped {
				return q, 0, false
			}
		}
		wait, ok := c.p.Await(d.wake)
		return nil, wait, ok
	}
	if last != nil {
		c.busy = c.busy || last.walk.busy
	}
	for {
		for c.next < len(c.group) {
			q := c.group[c.next]
			c.next++
			if !q.stopped {
				c.live = true
				return q, 0, false
			}
		}
		live, busy := c.live, c.busy
		c.next, c.live, c.busy = 0, false, false
		switch {
		case !live:
			return nil, 0, false
		case !busy:
			return nil, d.sys.Platform().PollGap, true
		}
	}
}

// iterate starts a service iteration and runs it to its first charge.
//
//ccnic:noalloc
func (w *nicWalk) iterate() (sim.Time, bool) {
	w.busy, w.stage = false, nicStart
	return w.run()
}

// emit enters rxEmit for pkts, to return to ret.
//
//ccnic:noalloc
func (w *nicWalk) emit(pkts []rxMeta, ret nicStage) {
	w.pkts, w.emitRet, w.stage = pkts, ret, emitStart
}

// Advance completes the charge in flight and runs the walk on to its next
// charge, returning its cost, or to its end.
//
//ccnic:noalloc
func (w *nicWalk) Advance() (sim.Time, bool) {
	if d, more := w.c.advance(); more {
		return d, true
	}
	return w.run()
}

// run runs the walk on from w.stage, once the charge before it has
// completed, up to its next charge or its end.
//
//ccnic:noalloc
func (w *nicWalk) run() (sim.Time, bool) {
	q := w.q
	cfg := &q.dev.cfg
	for {
		var d sim.Time
		var ok bool
		now := q.dev.sys.Kernel().Now()
		switch w.stage {
		case nicDone:
			return 0, false

		case nicStart:
			// Transient pipeline stall (armed fault plans only): the NIC
			// engine pauses before serving the rings. Coherent-interface
			// queues have no doorbells to lose; link and cache faults
			// arrive via the coherence layer underneath.
			w.stage = nicConsume
			if stall := q.dev.sys.Faults().PipelineStall(); stall > 0 {
				d, ok = stall, true
			}
		case nicConsume:
			if !cfg.InlineSignal {
				w.consRet, w.stage = nicPayload, txPoll
				continue
			}
			w.stage = nicConsumed
			d, ok = w.c.ring.Consume(q.txI, q.nic, q.txBufs)
		case nicConsumed:
			q.txMetas = snapshot(q.txMetas[:0], q.txBufs[:w.c.ring.N()], cfg.NICBufMgmt)
			w.metas, w.stage = q.txMetas, nicPayload
		case nicPayload:
			q.txLines = payloadLines(q.txLines[:0], w.metas)
			w.stage = nicPayloadRead
			d, ok = w.c.acc.Gather(q.nic, q.txLines, false)
		case nicPayloadRead:
			w.stage = nicTxDone
			if !cfg.InlineSignal && !cfg.NICBufMgmt {
				w.doneN, w.doneRet, w.stage = len(w.metas), nicTxDone, txComplete
			}
		case nicTxDone:
			w.arrived, w.stage = 0, nicOffer
			if len(w.metas) == 0 {
				continue
			}
			w.busy = true
			q.in.tx += int64(len(w.metas))
			switch {
			case q.in.gen == nil:
				// Loopback: retransmit the consumed packets into the RX
				// path.
				pkts := q.rxMetas[:0]
				for _, m := range w.metas {
					pkts = append(pkts, rxMeta{size: m.len + m.extLen, seq: m.seq, born: m.born})
				}
				q.rxMetas = pkts
				if !cfg.NICBufMgmt {
					w.emit(pkts, nicOffer)
					continue
				}
				// CC-NIC §3.4: the NIC frees the TX buffers itself; the
				// RX allocations recycle the same bytes, still resident
				// in the NIC cache.
				w.stage = nicLoopFreed
				d, ok = w.freeTx()
			case cfg.NICBufMgmt:
				// Ingress mode: TX packets leave on the wire.
				// Host-managed modes reclaim via completion flags.
				w.stage = nicTxFreed
				d, ok = w.freeTx()
			}
		case nicLoopFreed:
			w.c.burstEnd()
			w.emit(q.rxMetas, nicOffer)
		case nicTxFreed:
			w.c.burstEnd()
			w.stage = nicOffer
		case nicOffer:
			// Synthetic ingress, if configured; out of buffers, the same
			// packet is retried later.
			w.stage = nicEnd
			if w.arrived < cfg.NICBurst {
				if size, due := q.in.offer(now); due {
					w.one[0] = rxMeta{size: size, born: now}
					w.emit(w.one[:], nicInjected)
				}
			}
		case nicInjected:
			w.stage = nicEnd
			if w.posted == 1 {
				q.in.took()
				w.arrived++
				w.stage = nicOffer
			}
		case nicEnd:
			w.busy = w.arrived > 0 || w.busy
			w.stage = nicDone

		case txPoll:
			w.stage = txPolled
			d, ok = w.c.acc.Poll(q.nic, q.txR.TailReg(), 8)
		case txPolled:
			w.metas, w.stage = nil, w.consRet
			avail := min(q.txTailAvail(now), cfg.NICBurst)
			if avail == 0 {
				continue
			}
			w.avail, w.stage = avail, txRead
			q.txLines = q.txR.LinesFor(q.txLines[:0], q.txSeen, avail)
			d, ok = w.c.acc.Gather(q.nic, q.txLines, false)
		case txRead:
			r, avail := q.txR, w.avail
			metas := q.txMetas[:0]
			for i := 0; i < avail; i++ {
				metas = append(metas, metaOf(r.Get(q.txSeen+i), cfg.NICBufMgmt))
			}
			q.txMetas, w.metas, w.stage = metas, metas, w.consRet
			if !cfg.NICBufMgmt {
				q.txSeen += avail
				continue
			}
			// Symmetric reg mode: the NIC owns the buffers now; slots
			// free immediately and consumption is signaled via the head
			// register.
			for i := 0; i < avail; i++ {
				r.Take(q.txSeen + i) //ccnic:own-ok slot clear only: the buffer was captured via Get into metas above
				r.HeadIdx++
			}
			q.txSeen += avail
			d, ok = w.c.acc.WriteAsync(q.nic, r.HeadReg(), 8)

		case txComplete:
			w.stage = w.doneRet
			if w.doneN == 0 {
				continue
			}
			r := q.txR
			start := q.txSeen - w.doneN
			for i := 0; i < w.doneN; i++ {
				r.SetDone(start + i)
			}
			q.txLines = r.LinesFor(q.txLines[:0], start, w.doneN)
			w.j, w.stage = 0, txCompleteLine
		case txCompleteLine:
			if w.j == len(q.txLines) {
				w.stage = w.doneRet
				continue
			}
			w.stage = txCompleteWrote
			d, ok = w.c.acc.WriteAsync(q.nic, q.txLines[w.j], 8)
		case txCompleteWrote:
			if vis := w.c.acc.Visible(); vis > q.txDoneVis {
				q.txDoneVis = vis
			}
			w.j++
			w.stage = txCompleteLine

		case emitStart:
			w.posted, w.i = 0, 0
			q.rxBufs = q.rxBufs[:0]
			switch {
			case cfg.NICBufMgmt:
				q.rxBufs = slices.Grow(q.rxBufs, len(w.pkts))[:len(w.pkts)] //ccnic:alloc-ok grows to the largest delivery once
				q.rxSized.pkts = w.pkts
				w.stage = emitAllocated
				d, ok = w.c.startBurst(q.nicPort.StartAllocFed(q.rxBufs, &q.rxSized))
			case cfg.InlineSignal:
				// Host-managed buffers: copy into host-supplied blanks.
				w.stage = emitBlank
			default:
				// E810 RX semantics: write packets into the blanks' own
				// descriptor slots and flag completion (DD).
				w.doneFrom, w.doneCount, w.stage = -1, 0, emitRegBlank
			}
		case emitAllocated:
			q.rxBufs = q.rxBufs[:w.c.burstEnd()]
			q.rxSized.pkts = nil
			w.stage = emitWrite
		case emitBlank:
			if w.i == len(w.pkts) {
				w.stage = emitWrite
				continue
			}
			if n := len(q.spareBlanks); n > 0 {
				b := q.spareBlanks[n-1]
				q.spareBlanks = q.spareBlanks[:n-1]
				w.place(b)
				continue
			}
			w.stage = emitFilled
			d, ok = w.c.ring.Consume(q.fillI, q.nic, w.got[:])
		case emitFilled:
			b := w.got[0]
			w.got[0] = nil
			w.stage = emitWrite
			if w.c.ring.N() > 0 && b != nil {
				w.place(b)
				w.stage = emitBlank
			}
		case emitWrite:
			q.rxLines = bufpool.Lines(q.rxLines[:0], q.rxBufs)
			w.stage = emitWritten
			d, ok = w.c.acc.Gather(q.nic, q.rxLines, true)
		case emitWritten:
			w.stage = emitPosted
			if cfg.InlineSignal {
				d, ok = w.c.ring.Post(q.rxI, q.nic, q.rxBufs)
			} else {
				d, ok = w.c.ring.RegPost(q.rxR, q.nic, q.rxBufs, &q.rxTailVis)
			}
		case emitPosted:
			w.posted = w.c.ring.N()
			if cfg.InlineSignal {
				q.rxI.TakeReclaimed()
			}
			if cfg.NICBufMgmt {
				w.stage = emitFreed
				d, ok = w.c.startBurst(q.nicPort.StartFree(q.rxBufs[w.posted:]))
				break
			}
			// Blanks that did not fit stay with the NIC for the next
			// delivery; in practice the ring has space because blanks
			// were sized to it. Drop any excess packets silently.
			for _, b := range q.rxBufs[w.posted:] {
				b.ResetMeta()
				q.spareBlanks = append(q.spareBlanks, b)
			}
			w.stage = w.emitRet
		case emitFreed:
			w.c.burstEnd()
			w.stage = w.emitRet
		case emitRegBlank:
			r := q.rxR
			switch {
			case w.i == len(w.pkts):
				w.stage = emitRegDone
			case q.rxSeenNIC >= r.TailIdx || now < q.rxTailVis:
				w.stage = emitRegPolled
				d, ok = w.c.acc.Poll(q.nic, r.TailReg(), 8)
			default:
				w.stage = emitRegRead
			}
		case emitRegPolled:
			w.stage = emitRegRead
			if q.rxSeenNIC >= q.rxR.TailIdx || now < q.rxTailVis {
				w.stage = emitRegDone
			}
		case emitRegRead:
			q.rxLines = q.rxR.LinesFor(q.rxLines[:0], q.rxSeenNIC, 1)
			w.stage = emitRegGot
			d, ok = w.c.acc.Gather(q.nic, q.rxLines, false)
		case emitRegGot:
			idx := q.rxSeenNIC
			q.rxSeenNIC++
			w.stage = emitRegDone
			if b := q.rxR.Get(idx); b != nil {
				w.place(b)
				q.rxR.SetDone(idx)
				if w.doneFrom < 0 {
					w.doneFrom = idx
				}
				w.doneCount++
				w.stage = emitRegBlank
			}
		case emitRegDone:
			w.stage = w.emitRet
			if w.doneCount == 0 {
				continue
			}
			q.rxLines = bufpool.Lines(q.rxLines[:0], q.rxBufs)
			w.stage = emitRegWritten
			d, ok = w.c.acc.Gather(q.nic, q.rxLines, true)
		case emitRegWritten:
			q.rxLines = q.rxR.LinesFor(q.rxLines[:0], w.doneFrom, w.doneCount)
			w.j, w.stage = 0, emitRegDoneLine
		case emitRegDoneLine:
			if w.j < len(q.rxLines) {
				w.j++
				d, ok = w.c.acc.WriteAsync(q.nic, q.rxLines[w.j-1], 8)
				break
			}
			// Register-based signaling: completions are announced through
			// the RX tail register, costing the host an extra register
			// transfer per burst (the E810 layout the paper's unoptimized
			// baseline keeps).
			q.rxCompIdx += w.doneCount
			w.stage = emitRegHead
			d, ok = w.c.acc.WriteAsync(q.nic, q.rxR.HeadReg(), 8)
		case emitRegHead:
			if vis := w.c.acc.Visible(); vis > q.rxDoneVis {
				q.rxDoneVis = vis
			}
			w.posted, w.stage = w.doneCount, w.emitRet
		}
		if ok {
			return d, true
		}
	}
}

// place stamps blank with the next packet's metadata and adds it to the
// delivery.
//
//ccnic:noalloc
func (w *nicWalk) place(b *bufpool.Buf) {
	m := &w.pkts[w.i]
	b.Len, b.Seq, b.Born = m.size, m.seq, m.born
	w.q.rxBufs = append(w.q.rxBufs, b)
	w.i++
}

// freeTx starts freeing the buffers of the iteration's consumed TX packets
// to the NIC's port, as one burst.
//
//ccnic:noalloc
func (w *nicWalk) freeTx() (sim.Time, bool) {
	q := w.q
	bufs := q.txFree[:0]
	for _, m := range w.metas {
		bufs = append(bufs, m.buf)
	}
	q.txFree = bufs
	return w.c.startBurst(q.nicPort.StartFree(bufs))
}

// txTailAvail is the TX descriptor count the NIC sees posted after polling
// the tail register: none until the tail bump has propagated.
//
//ccnic:noalloc
func (q *upiQueue) txTailAvail(now sim.Time) int {
	if now < q.txTailVis {
		return 0
	}
	return q.txR.TailIdx - q.txSeen
}

// rxMeta describes one packet arriving on the RX path.
type rxMeta struct {
	size int
	seq  uint64
	born sim.Time
}

// rxSized sizes a delivery's NIC-managed RX buffers by their packets
// (bufpool.AllocFeed) and stamps each with its packet's metadata.
type rxSized struct{ pkts []rxMeta }

// Size returns packet i's size.
func (f *rxSized) Size(i int) (int, bool) { return f.pkts[i].size, true }

// Took stamps buffer i with packet i's metadata.
func (f *rxSized) Took(i int, b *bufpool.Buf) {
	m := &f.pkts[i]
	b.Len, b.Seq, b.Born = m.size, m.seq, m.born
}
