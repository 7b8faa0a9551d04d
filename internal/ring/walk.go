package ring

import (
	"fmt"

	"ccnic/internal/bufpool"
	"ccnic/internal/coherence"
	"ccnic/internal/mem"
	"ccnic/internal/sim"
)

// Walk is one ring operation in step form, for a spin step that runs it,
// as a device walk does (see coherence.Access): an Inline ring's Consume
// or Post, or a Reg ring's Post (RegPost), Consume (RegConsume) or
// Reclaim. A start method runs the operation from the current instant up
// to its first charge and returns that charge's cost; at each later wake,
// Advance completes the charge in flight and runs the operation on to its
// next, in that same event. Either reports false once the operation has
// ended, in that event, and N then returns its count. Every charge is a
// coherent access (coherence.Access) or, for Reclaim, the free burst
// (bufpool.Burst), each drawing its cache pressure first, so the clock,
// the event count, the probe and the run-queue order see exactly what a
// process sleeping each returned cost as one event would have made them
// see. A caller's Walk runs one operation at a time.
//
// Advance runs outside every process, so nothing it calls may block: the
// ring's mutations, the step-form accesses and bursts only compute and
// record.
type Walk struct {
	stage walkStage
	in    *Inline
	rg    *Reg
	a     *coherence.Agent

	// bufs is Consume's out, or the buffers Post publishes; n counts the
	// descriptors taken or posted so far.
	bufs []*bufpool.Buf
	n    int

	// at and slot are the line and Packed slot the charge in flight
	// stores to, captured when it issues; took records that the Packed
	// consumer took a slot of the current line.
	at, slot int
	took     bool

	// A Reg operation's descriptor lines, borrowed from side until its
	// access ends; an Inline Post's replenish scan, from the ring's.
	lines []mem.Addr
	side  *sim.Scratch[mem.Addr]
	// tail is the gate a Reg Post publishes its tail register into, nil
	// for none; port takes a Reclaim's buffers.
	tail *sim.Time
	port *bufpool.Port

	acc   coherence.Access
	burst bufpool.Burst
}

// walkStage is where a Walk resumes.
type walkStage uint8

const (
	walkEnded walkStage = iota

	consTop         // Inline Consume: take the consumer's line
	consSlot        // Packed: poll the next ready slot
	consSlotPolled  // Packed: take the polled slot and clear it
	consSlotCleared // Packed: the slot's clear has issued
	consSlotsEnd    // Packed: leave the line, or end with an empty poll
	consLineRead    // Grouped, Padded: the line's read has completed
	consLineCleared // Grouped, Padded: the line's clear has issued
	consDone        // report the Consume to the probe

	postReplenish   // Inline Post: scan for cleared lines when credits run low
	postReplenished // the scan's gather has completed
	postLine        // store the next line (Packed: slot)
	postStored      // the store has issued: publish
	postDone        // report the Post to the probe

	regPosted    // Reg Post: the descriptor scatter has completed
	regTail      // Reg Post: the tail register's write has issued
	regConsumed  // Reg Consume: the descriptor gather has completed
	regReclaimed // Reg Reclaim: the descriptor gather has completed
	regFreed     // Reg Reclaim: the free burst is in flight, or has ended
)

// Live reports whether an operation is in flight: started, and not yet
// ended.
//
//ccnic:noalloc
func (w *Walk) Live() bool { return w.stage != walkEnded }

// N returns how many descriptors the ended operation took or posted.
//
//ccnic:noalloc
func (w *Walk) N() int { return w.n }

// begin readies w for an operation and runs it to its first charge.
//
//ccnic:noalloc
func (w *Walk) begin(in *Inline, rg *Reg, a *coherence.Agent, bufs []*bufpool.Buf, stage walkStage) (sim.Time, bool) {
	w.in, w.rg, w.a, w.bufs, w.n, w.stage = in, rg, a, bufs, 0, stage
	return w.run()
}

// Consume starts polling the consumer's current position of r and taking
// up to len(out) descriptors into out, clearing consumed state (the
// completion/credit signal). N is how many it took; zero means nothing was
// ready.
//
//ccnic:noalloc
func (w *Walk) Consume(r *Inline, a *coherence.Agent, out []*bufpool.Buf) (sim.Time, bool) {
	return w.begin(r, nil, a, out, consTop)
}

// Post starts publishing up to len(bufs) descriptors to r from the
// producer agent a; N is how many it accepted (limited by ring space).
// Each burst is packed into whole lines; a line is finalized when
// published, so the consumer's skip-to-next-line rule (§3.2) is implicit.
// When credits run low, Post first replenishes them: it scans forward from
// the reclaim pointer for consumer-cleared lines with one overlapped read
// (a burst reclaim pass).
//
//ccnic:noalloc
func (w *Walk) Post(r *Inline, a *coherence.Agent, bufs []*bufpool.Buf) (sim.Time, bool) {
	if len(bufs) == 0 {
		w.n, w.stage = 0, walkEnded
		return 0, false
	}
	return w.begin(r, nil, a, bufs, postReplenish)
}

// RegPost starts writing up to len(bufs) descriptors at r's tail from the
// producer agent a and advancing TailIdx; N is how many fit (limited by
// Space). Publishing the new tail is the caller's, unless tail is set: a
// Post that published descriptors then writes the tail register (a
// store-buffered write) and sets *tail to when it becomes visible, the
// register-signaled producer's publish.
//
//ccnic:noalloc
func (w *Walk) RegPost(r *Reg, a *coherence.Agent, bufs []*bufpool.Buf, tail *sim.Time) (sim.Time, bool) {
	w.rg, w.n, w.tail = r, 0, tail
	n := min(len(bufs), r.Space())
	if n <= 0 {
		w.stage = walkEnded
		return 0, false // no empty ScatterWrite: it still draws a cache-pressure fault
	}
	for i, b := range bufs[:n] {
		r.Put(r.TailIdx+i, b)
	}
	w.n = n
	return w.regAccess(r, a, &r.postLines, r.TailIdx, n, true, regPosted)
}

// RegConsume starts reading the len(out) descriptors at r's head from the
// consumer agent a and taking their buffers into out, advancing HeadIdx.
// The caller has established that they are ready.
//
//ccnic:noalloc
func (w *Walk) RegConsume(r *Reg, a *coherence.Agent, out []*bufpool.Buf) (sim.Time, bool) {
	w.bufs, w.n = out, 0
	return w.regAccess(r, a, &r.consLines, r.HeadIdx, len(out), false, regConsumed)
}

// Reclaim is RegConsume for n completed descriptors whose buffers go
// straight back to port (TX completion reclaim), freed as one burst.
//
//ccnic:noalloc
func (w *Walk) Reclaim(r *Reg, a *coherence.Agent, n int, port *bufpool.Port) (sim.Time, bool) {
	w.port, w.n = port, n
	return w.regAccess(r, a, &r.consLines, r.HeadIdx, n, false, regReclaimed)
}

// regAccess starts agent a's gather read (or, with write, scatter write)
// of the descriptor lines covering [from, from+count), building the list
// in the given side's scratch, to resume at then once it completes.
//
//ccnic:noalloc
func (w *Walk) regAccess(r *Reg, a *coherence.Agent, side *sim.Scratch[mem.Addr], from, count int, write bool, then walkStage) (sim.Time, bool) {
	w.rg, w.a, w.side, w.stage = r, a, side, then
	w.lines = r.LinesFor(side.Take(), from, count)
	if d, ok := w.acc.Gather(a, w.lines, write); ok {
		return d, true
	}
	return w.run()
}

// Advance completes the charge in flight and runs the operation on to its
// next charge, returning its cost, or to its end.
//
//ccnic:noalloc
func (w *Walk) Advance() (sim.Time, bool) {
	if w.acc.Live() {
		if d, more := w.acc.Advance(); more {
			return d, true
		}
	} else if w.stage == regFreed {
		if d, more := w.burst.Advance(); more {
			return d, true
		}
	}
	return w.run()
}

// run runs the operation on from w.stage, once the charge before it has
// completed, up to its next charge or its end.
//
//ccnic:noalloc
func (w *Walk) run() (sim.Time, bool) {
	for {
		switch w.stage {
		case consTop, consSlot, consSlotPolled, consSlotCleared, consSlotsEnd,
			consLineRead, consLineCleared, consDone:
			if d, ok, more := w.consume(); more {
				return d, ok
			}
		case postReplenish, postReplenished, postLine, postStored, postDone:
			if d, ok, more := w.post(); more {
				return d, ok
			}
		case regPosted:
			r := w.rg
			w.endAccess()
			r.TailIdx += w.n
			if w.tail == nil {
				w.stage = walkEnded
				continue
			}
			w.stage = regTail
			if d, ok := w.acc.WriteAsync(w.a, r.TailReg(), 8); ok {
				return d, true
			}
		case regTail:
			*w.tail = w.acc.Visible()
			w.stage = walkEnded
		case regConsumed:
			r := w.rg
			w.endAccess()
			for i := range w.bufs {
				w.bufs[i] = r.Take(r.HeadIdx)
				r.ClearDone(r.HeadIdx)
				r.HeadIdx++
			}
			w.n = len(w.bufs)
			w.stage = walkEnded
		case regReclaimed:
			r := w.rg
			w.endAccess()
			r.reclaim = reclaimFeed{r: r, left: w.n}
			w.stage = regFreed
			var d sim.Time
			var ok bool
			if w.burst, d, ok = w.port.StartFreeFed(&r.reclaim); ok {
				return d, true
			}
		case regFreed:
			w.burst.End()
			w.burst = bufpool.Burst{}
			w.stage = walkEnded
		case walkEnded:
			return 0, false
		}
	}
}

// endAccess returns a Reg operation's descriptor lines to their scratch.
//
//ccnic:noalloc
func (w *Walk) endAccess() {
	w.side.Put(w.lines)
	w.lines, w.side = nil, nil
}

// consume runs an Inline Consume on from w.stage: it returns the next
// charge with more set, or reports !more to move on to w.stage.
//
//ccnic:noalloc
func (w *Walk) consume() (d sim.Time, ok, more bool) {
	r, a := w.in, w.a
	now := r.sys.Kernel().Now()
	switch w.stage {
	case consTop:
		if w.n == len(w.bufs) {
			w.stage = consDone
			return 0, false, false
		}
		w.at = r.cons
		if r.layout == Packed {
			w.took, w.stage = false, consSlot
			return 0, false, false
		}
		// A successful consume streams sequentially through ring lines,
		// so it trains the hardware prefetcher (Read); an empty poll
		// re-checks the same line and does not (Poll).
		w.stage = consLineRead
		if r.lineAt(w.at).ready {
			d, ok = w.acc.Read(a, r.lineAddr(w.at), DescSize)
		} else {
			d, ok = w.acc.Poll(a, r.lineAddr(w.at), DescSize)
		}
		return d, ok, ok
	case consSlot:
		ln := r.lineAt(w.at)
		w.stage = consSlotsEnd
		if ln.taken < SlotsPerLine && w.n < len(w.bufs) && ln.slotReadyAt(ln.taken, now) {
			// Poll+take+clear one descriptor slot.
			w.slot, w.stage = ln.taken, consSlotPolled
			d, ok = w.acc.Poll(a, r.lineAddr(w.at)+mem.Addr(w.slot*DescSize), DescSize)
			return d, ok, ok
		}
	case consSlotPolled:
		ln, i := r.lineAt(w.at), w.slot
		// Online descriptor-group safety assertion: the poll yielded, so
		// re-check that the slot still carries a set, visible ready flag
		// before taking it.
		if pr := r.sys.Probe(); pr != nil && (!ln.slotReady[i] || now < ln.slotVisible[i]) {
			pr.Fail(fmt.Errorf("%s: consuming slot %d of line %d with a clear or not-yet-visible ready flag", r.CheckDesc(), i, w.at)) //ccnic:alloc-ok validation runs only: the failure report
		}
		w.bufs[w.n] = ln.bufs[i]
		w.n++
		w.stage = consSlotCleared
		d, ok = w.acc.WriteAsync(a, r.lineAddr(w.at)+mem.Addr(i*DescSize), DescSize)
		return d, ok, ok
	case consSlotCleared:
		ln, i := r.lineAt(w.at), w.slot
		ln.clearVisibleAt = w.acc.Visible()
		ln.bufs[i] = nil
		ln.slotReady[i] = false
		ln.taken++
		w.took, w.stage = true, consSlot
	case consSlotsEnd:
		ln := r.lineAt(w.at)
		if ln.taken == SlotsPerLine {
			ln.count, ln.taken = 0, 0
			r.cons++
			w.stage = consTop
			return 0, false, false
		}
		w.stage = consDone
		if !w.took { // empty poll
			d, ok = w.acc.Poll(a, r.lineAddr(w.at)+mem.Addr(ln.taken*DescSize), DescSize)
			return d, ok, ok
		}
	case consLineRead:
		ln := r.lineAt(w.at)
		w.stage = consDone
		if !ln.readyAt(now) {
			return 0, false, false
		}
		for ln.taken < ln.count && w.n < len(w.bufs) {
			w.bufs[w.n] = ln.bufs[ln.taken]
			w.n++
			ln.bufs[ln.taken] = nil
			ln.taken++
		}
		if ln.taken < ln.count {
			return 0, false, false // caller's batch filled mid-line
		}
		// Clearing the line is one coalesced store (the consumer already
		// owns it after the poll). Charge it before exposing the cleared
		// state.
		w.stage = consLineCleared
		d, ok = w.acc.WriteAsync(a, r.lineAddr(w.at), mem.LineSize)
		return d, ok, ok
	case consLineCleared:
		ln := r.lineAt(w.at)
		ln.clearVisibleAt = w.acc.Visible()
		ln.count, ln.taken = 0, 0
		ln.ready = false
		r.cons++
		// Driver-style software prefetch of the next ring line
		// (rte_prefetch0): under backlog the following group's fetch
		// overlaps with processing this one.
		a.SoftPrefetch(r.lineAddr(r.cons))
		w.stage = consTop
	case consDone:
		r.notify()
		w.stage = walkEnded
	//ccnic:default-ok run sends only Consume's stages here
	default:
	}
	return 0, false, false
}

// post runs an Inline Post on from w.stage, as consume runs a Consume.
//
//ccnic:noalloc
func (w *Walk) post() (d sim.Time, ok, more bool) {
	r, a := w.in, w.a
	switch w.stage {
	case postReplenish:
		// Replenish: when credits run low, scan forward from the reclaim
		// pointer for consumer-cleared lines, converting them into
		// producer credits. The scan overlaps its reads (a gather),
		// modeling a burst reclaim pass.
		w.stage = postLine
		per := r.layout.DescsPerLine()
		need := (len(w.bufs) + per - 1) / per
		if r.credits >= need && r.credits >= r.nLines/4 {
			return 0, false, false
		}
		scan := r.scan.Take()
		limit := r.cons // cannot reclaim past the consumer
		now := r.sys.Kernel().Now()
		for r.reclaim < limit && len(scan) < r.nLines {
			ln := r.lineAt(r.reclaim)
			if !r.cleared(ln) || now < ln.clearVisibleAt {
				break
			}
			scan = append(scan, r.lineAddr(r.reclaim))
			r.reclaim++
			r.credits++
		}
		if len(scan) == 0 {
			r.scan.Put(scan)
			return 0, false, false
		}
		w.lines, w.stage = scan, postReplenished
		d, ok = w.acc.Gather(a, scan, false)
		return d, ok, ok
	case postReplenished:
		r.reclaimedSinceTake += len(w.lines)
		r.notify()
		r.scan.Put(w.lines)
		w.lines, w.stage = nil, postLine
	case postLine:
		w.stage = postDone
		if r.layout == Packed {
			// Packed: successive posts keep filling the current line, one
			// store per descriptor+signal. The store coalesces in the
			// producer's cache unless the consumer steals the line between
			// stores — the thrashing the paper measures.
			if w.n == len(w.bufs) {
				return 0, false, false
			}
			if r.prodSlot == 0 {
				if r.credits == 0 {
					return 0, false, false
				}
				r.credits--
			}
			// Charge the store first: its sleep can yield to the
			// consumer, which must not observe the flag with a stale
			// visibility gate.
			w.at, w.slot, w.stage = r.prod, r.prodSlot, postStored
			d, ok = w.acc.WriteAsync(a, r.lineAddr(w.at)+mem.Addr(w.slot*DescSize), DescSize)
			return d, ok, ok
		}
		if w.n == len(w.bufs) || r.credits <= 0 {
			return 0, false, false
		}
		// Charge the store first (see Packed): the consumer must never
		// observe ready with a stale visibility gate.
		w.at, w.stage = r.prod, postStored
		d, ok = w.acc.WriteAsync(a, r.lineAddr(w.at), mem.LineSize)
		return d, ok, ok
	case postStored:
		ln, vis := r.lineAt(w.at), w.acc.Visible()
		w.stage = postLine
		if r.layout == Packed {
			i := w.slot
			ln.bufs[i] = w.bufs[w.n]
			ln.count = i + 1
			ln.slotVisible[i] = vis
			ln.slotReady[i] = true
			w.n++
			r.prodSlot++
			if r.prodSlot == SlotsPerLine {
				r.prodSlot = 0
				r.prod++
			}
			return 0, false, false
		}
		n := min(len(w.bufs)-w.n, r.layout.DescsPerLine())
		for i := 0; i < n; i++ {
			ln.bufs[i] = w.bufs[w.n+i]
		}
		ln.count = n
		ln.visibleAt = vis
		ln.ready = true
		r.prod++
		r.credits--
		w.n += n
	case postDone:
		r.notify()
		w.stage = walkEnded
	//ccnic:default-ok run sends only Post's stages here
	default:
	}
	return 0, false, false
}
