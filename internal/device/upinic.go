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

// nicStep performs one service iteration for the queue: consume submitted
// TX packets, loop them back or exchange them with the synthetic wire.
// It reports whether any work was found. polled continues a register-ring
// iteration whose tail poll an idlePoll step has already made and found
// work behind.
func (q *upiQueue) nicStep(p *sim.Proc, polled bool) bool {
	cfg := &q.dev.cfg
	busy := false

	// Transient pipeline stall (armed fault plans only): the NIC engine
	// pauses before serving the rings. Coherent-interface queues have no
	// doorbells to lose; link and cache faults arrive via the coherence
	// layer underneath.
	if !polled {
		if stall := q.dev.sys.Faults().PipelineStall(); stall > 0 {
			p.Sleep(stall)
		}
	}

	// --- TX ring: consume submitted packets. ---
	var metas []pktMeta
	if cfg.InlineSignal {
		n := q.txI.Consume(p, q.nic, q.txBufs)
		q.txMetas = snapshot(q.txMetas[:0], q.txBufs[:n], cfg.NICBufMgmt)
		metas = q.txMetas
	} else {
		metas = q.regConsumeTx(p, polled)
	}
	q.txLines = payloadLines(q.txLines[:0], metas)
	q.nic.GatherRead(p, q.txLines)
	if !cfg.InlineSignal && !cfg.NICBufMgmt {
		q.completeTx(p, len(metas))
	}
	if len(metas) > 0 {
		busy = true
		q.in.tx += int64(len(metas))
		if q.in.gen == nil {
			q.loopback(p, metas)
		} else {
			q.consumeTx(p, metas)
		}
	}

	// --- Synthetic ingress, if configured; out of buffers, the same
	// packet is retried later. ---
	busy = q.in.arrive(p, cfg.NICBurst, func(size int) bool { return q.inject(p, size) }) > 0 || busy
	return busy
}

// regConsumeTx is the register-signaled NIC TX path: poll the tail register
// and read new descriptors. Completion signaling happens after the payload
// has been read (completeTx), never before — otherwise the host could
// recycle a buffer the device is still reading. polled skips the poll, made
// by an idlePoll step.
func (q *upiQueue) regConsumeTx(p *sim.Proc, polled bool) []pktMeta {
	r := q.txR
	if !polled {
		q.nic.Poll(p, r.TailReg(), 8)
	}
	avail := q.txTailAvail(p.Now())
	if avail == 0 {
		return nil
	}
	if avail > q.dev.cfg.NICBurst {
		avail = q.dev.cfg.NICBurst
	}
	q.txLines = r.LinesFor(q.txLines[:0], q.txSeen, avail)
	q.nic.GatherRead(p, q.txLines)
	metas := q.txMetas[:0]
	for i := 0; i < avail; i++ {
		metas = append(metas, metaOf(r.Get(q.txSeen+i), q.dev.cfg.NICBufMgmt))
	}
	q.txMetas = metas
	if q.dev.cfg.NICBufMgmt {
		// Symmetric reg mode: the NIC owns the buffers now; slots
		// free immediately and consumption is signaled via the head
		// register.
		for i := 0; i < avail; i++ {
			r.Take(q.txSeen + i) //ccnic:own-ok slot clear only: the buffer was captured via Get into metas above
			r.HeadIdx++
		}
		q.txSeen += avail
		q.nic.WriteAsync(p, r.HeadReg(), 8)
	} else {
		q.txSeen += avail
	}
	return metas
}

// txTailAvail is the TX descriptor count the NIC sees posted after polling
// the tail register: none until the tail bump has propagated.
func (q *upiQueue) txTailAvail(now sim.Time) int {
	if now < q.txTailVis {
		return 0
	}
	return q.txR.TailIdx - q.txSeen
}

// idlePoll runs a single-queue NIC core's idle service iterations as a spin
// step (sim.Proc.Spin), so a core polling an empty TX ring costs no
// coroutine switch. An idle iteration is two events: at the first the poll
// of the TX ring issues, an L2 hit; at the second, that hit's latency
// later, the poll completes and the core sleeps PollGap. The step runs
// both halves of that poll (coherence.Agent.SpinPoll, PollCommit) and
// nothing else, so each iteration it absorbs is exactly the iteration the
// core would have run. An overlay TX thread that alone serves the queue
// polls its front ring the same way (pollLoop), and its idle iteration is
// the same poll.
//
// At the first event the step declines, and the core runs the iteration
// itself, whenever that iteration could do anything else: the queue is
// stopped, a fault plan is armed (the iteration would draw from its RNG),
// synthetic ingress is set, the poll would miss or train the prefetcher
// (an inline ring's line already ready). At the second it declines when
// the completed poll of a register ring's tail found work, and the core
// resumes right after the poll (regConsumeTx's polled continuation) to
// finish the iteration. An inline ring's poll never finds work (Inline.FinishPoll).
//
// Once a poll has completed empty, the core dozes (sim.Doze): every later
// iteration would repeat it on the same state, so the kernel runs them as
// arithmetic, each still two events, until that state changes (see
// dozeOff).
type idlePoll struct {
	q      *upiQueue
	p      *sim.Proc // the polling process
	addr   mem.Addr  // address of the poll in flight
	polled bool      // the core resumed right after a poll that found work
	found  int64     // polls that found work in flight (for tests)
	// doze is the idle cycle: an L2 hit, then PollGap. Issued is set while
	// a poll is in flight (the next wake completes it); Count is the NIC
	// step count an issued poll adds to, nil for none.
	doze sim.Doze
}

// step is the sim.Proc.Spin step; bind it once per core.
func (s *idlePoll) step() (sim.Time, bool) {
	q := s.q
	d := q.dev
	now := d.sys.Kernel().Now()
	if s.doze.Issued {
		s.doze.Issued = false
		q.nic.PollCommit(s.addr)
		if q.txI != nil {
			q.txI.FinishPoll(now)
		} else if q.txTailAvail(now) > 0 {
			s.polled = true
			s.found++
			return 0, false
		}
		s.dozeOff(now)
		return s.doze.Gap, true
	}
	if q.stopped || d.sys.Faults() != nil || q.in.gen != nil {
		return 0, false
	}
	addr, ok := mem.Addr(0), true
	if q.txI != nil {
		addr, _, ok = q.txI.IdlePoll(now)
	} else {
		addr = q.txR.TailReg()
	}
	if !ok {
		return 0, false
	}
	lat, ok := q.nic.SpinPoll(addr)
	if !ok {
		return 0, false
	}
	if s.doze.Count != nil {
		*s.doze.Count++
	}
	s.addr, s.doze.Issued = addr, true
	return lat, true
}

// dozeOff hands the idle cycle to the kernel after a poll of addr has
// completed empty at now, when every later iteration would repeat it: the
// same checks pass, SpinPoll hits the L2's most recent line (the doze's
// Issue), PollCommit returns early, and the ring shows no work. That holds
// until
//
//   - the NIC agent's L2 recency list changes (Agent.WatchPoll);
//   - the producer publishes on the TX ring (the ring's Watch: each inline
//     line or Packed slot, each tail advance and tail-register gate);
//   - the queue stops (Stop wakes the doze);
//   - the clock reaches a publish already made but not yet visible: a
//     Packed slot's visibility, or the tail register's gate.
//
// The core does not doze under a fault plan, synthetic ingress (set
// before Start) or a validation probe, once stopped, or while another
// process's doze holds the agent's L2 watch.
func (s *idlePoll) dozeOff(now sim.Time) {
	q := s.q
	if q.stopped || q.in.gen != nil {
		return
	}
	var until sim.Time
	var w *sim.Watch
	if q.txI != nil {
		var ok bool
		if _, until, ok = q.txI.IdlePoll(now); !ok {
			return
		}
		w = q.txI.Watch()
	} else {
		until = sim.Never
		if q.txR.TailIdx != q.txSeen {
			until = q.txTailVis
		}
		w = q.txR.Watch()
	}
	if q.nic.WatchPoll(s.addr, &s.doze) && w.Arm(&s.doze) {
		s.p.Doze(&s.doze, until)
	}
}

// completeTx writes TX completion (DD) flags for the oldest n consumed
// descriptors after their payloads have been read (E810 semantics).
func (q *upiQueue) completeTx(p *sim.Proc, n int) {
	if n == 0 {
		return
	}
	r := q.txR
	start := q.txSeen - n
	for i := 0; i < n; i++ {
		r.SetDone(start + i)
	}
	q.txLines = r.LinesFor(q.txLines[:0], start, n)
	for _, l := range q.txLines {
		if vis := q.nic.WriteAsync(p, l, 8); vis > q.txDoneVis {
			q.txDoneVis = vis
		}
	}
}

// rxMeta describes one packet arriving on the RX path.
type rxMeta struct {
	size int
	seq  uint64
	born sim.Time
}

// loopback retransmits consumed TX packets into the RX path.
func (q *upiQueue) loopback(p *sim.Proc, metas []pktMeta) {
	pkts := q.rxMetas[:0]
	for _, m := range metas {
		pkts = append(pkts, rxMeta{size: m.len + m.extLen, seq: m.seq, born: m.born})
	}
	q.rxMetas = pkts
	if q.dev.cfg.NICBufMgmt {
		// CC-NIC §3.4: the NIC frees the TX buffers itself; the RX
		// allocations below recycle the same bytes, still resident in
		// the NIC cache.
		q.freeTx(p, metas)
	}
	q.rxEmit(p, pkts)
}

// freeTx frees the buffers of consumed TX packets to the NIC's port, as one
// burst.
func (q *upiQueue) freeTx(p *sim.Proc, metas []pktMeta) {
	bufs := q.txFree[:0]
	for _, m := range metas {
		bufs = append(bufs, m.buf)
	}
	q.txFree = bufs
	q.nicPort.FreeBurst(p, bufs)
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

// rxEmit delivers received packets to the host: it allocates RX buffers per
// the configured management mode, writes payloads, and publishes RX
// descriptors. Packets that find no buffer or ring space are dropped (the
// host will catch up), and the count delivered is returned.
func (q *upiQueue) rxEmit(p *sim.Proc, pkts []rxMeta) int {
	cfg := &q.dev.cfg
	if cfg.NICBufMgmt {
		rx := slices.Grow(q.rxBufs[:0], len(pkts))[:len(pkts)]
		q.rxSized.pkts = pkts
		rx = rx[:q.nicPort.AllocFed(p, rx, &q.rxSized)]
		q.rxSized.pkts = nil
		q.rxBufs = rx
		q.rxLines = bufpool.Lines(q.rxLines[:0], rx)
		q.nic.ScatterWrite(p, q.rxLines)
		var posted int
		if cfg.InlineSignal {
			posted = q.rxI.Post(p, q.nic, rx)
			q.rxI.TakeReclaimed()
		} else {
			posted = regPost(p, q.nic, q.rxR, &q.rxTailVis, rx)
		}
		q.nicPort.FreeBurst(p, rx[posted:])
		return posted
	}
	// Host-managed buffers: copy into host-supplied blanks.
	if cfg.InlineSignal {
		blanks := q.rxBufs[:0]
		for _, m := range pkts {
			blank, _ := q.takeBlank(p)
			if blank == nil {
				break
			}
			blank.Len, blank.Seq, blank.Born = m.size, m.seq, m.born
			blanks = append(blanks, blank)
		}
		q.rxBufs = blanks
		q.rxLines = bufpool.Lines(q.rxLines[:0], blanks)
		q.nic.ScatterWrite(p, q.rxLines)
		posted := q.rxI.Post(p, q.nic, blanks)
		q.rxI.TakeReclaimed()
		// Blanks that did not fit stay with the NIC for the next
		// delivery; in practice the ring has space because blanks
		// were sized to it. Drop any excess packets silently.
		for _, b := range blanks[posted:] {
			b.ResetMeta()
			q.spareBlanks = append(q.spareBlanks, b)
		}
		return posted
	}
	// E810 RX semantics: write packets into the blanks' own descriptor
	// slots and flag completion (DD).
	doneFrom, doneCount := -1, 0
	written := q.rxBufs[:0]
	for _, m := range pkts {
		blank, idx := q.takeBlank(p)
		if blank == nil {
			break
		}
		blank.Len, blank.Seq, blank.Born = m.size, m.seq, m.born
		written = append(written, blank)
		q.rxR.SetDone(idx)
		if doneFrom < 0 {
			doneFrom = idx
		}
		doneCount++
	}
	q.rxBufs = written
	if doneCount > 0 {
		q.rxLines = bufpool.Lines(q.rxLines[:0], written)
		q.nic.ScatterWrite(p, q.rxLines)
		q.rxLines = q.rxR.LinesFor(q.rxLines[:0], doneFrom, doneCount)
		for _, l := range q.rxLines {
			q.nic.WriteAsync(p, l, 8)
		}
		// Register-based signaling: completions are announced through
		// the RX tail register, costing the host an extra register
		// transfer per burst (the E810 layout the paper's unoptimized
		// baseline keeps).
		q.rxCompIdx += doneCount
		if vis := q.nic.WriteAsync(p, q.rxR.HeadReg(), 8); vis > q.rxDoneVis {
			q.rxDoneVis = vis
		}
	}
	return doneCount
}

// consumeTx handles TX packets in ingress mode: they leave on the wire.
func (q *upiQueue) consumeTx(p *sim.Proc, metas []pktMeta) {
	if q.dev.cfg.NICBufMgmt {
		q.freeTx(p, metas)
	}
	// Host-managed modes reclaim via completion flags; nothing here.
}

// inject delivers one synthetic ingress packet of the given size.
func (q *upiQueue) inject(p *sim.Proc, size int) bool {
	return q.rxEmit(p, []rxMeta{{size: size, born: p.Now()}}) == 1
}

// takeBlank obtains a host-posted blank RX buffer (host-managed modes),
// returning the buffer and, in register mode, its ring slot.
func (q *upiQueue) takeBlank(p *sim.Proc) (*bufpool.Buf, int) {
	if q.dev.cfg.InlineSignal {
		if n := len(q.spareBlanks); n > 0 {
			b := q.spareBlanks[n-1]
			q.spareBlanks = q.spareBlanks[:n-1]
			return b, -1
		}
		var got [1]*bufpool.Buf
		if q.fillI.Consume(p, q.nic, got[:]) == 0 {
			return nil, -1
		}
		return got[0], -1
	}
	r := q.rxR
	if q.rxSeenNIC >= r.TailIdx || p.Now() < q.rxTailVis {
		q.nic.Poll(p, r.TailReg(), 8)
		if q.rxSeenNIC >= r.TailIdx || p.Now() < q.rxTailVis {
			return nil, -1
		}
	}
	q.rxLines = r.LinesFor(q.rxLines[:0], q.rxSeenNIC, 1)
	q.nic.GatherRead(p, q.rxLines)
	idx := q.rxSeenNIC
	q.rxSeenNIC++
	return r.Get(idx), idx
}
