// Package ring implements the descriptor ring layouts studied by the paper:
//
//   - Inline rings carry the ready signal inside the descriptor line
//     (CC-NIC §3.2), in three layouts: Grouped (4x16B descriptors sharing
//     one per-line signal — the optimized design), Packed (4x16B with a
//     signal per descriptor — thrashes under contention), and Padded (one
//     descriptor per line — latency-optimal but space-wasteful).
//
//   - Reg rings are the conventional E810-style layout: tightly packed 16B
//     descriptors with external head/tail registers and completion (DD)
//     writebacks. The ring owns the host driver (Post, Consume, Reclaim)
//     shared by the PCIe NICs and the unoptimized-UPI baseline; device
//     models charge their own side, since PCIe NICs reach the ring through
//     DMA rather than loads and stores.
//
// Descriptor content is carried out-of-band in Go objects; the simulated
// memory is used only for timing and coherence state.
package ring

import (
	"fmt"

	"ccnic/internal/bufpool"
	"ccnic/internal/coherence"
	"ccnic/internal/mem"
	"ccnic/internal/sim"
)

// DescSize is the packed descriptor size (the paper's typical 16B).
const DescSize = 16

// SlotsPerLine is how many packed descriptors fit a cache line.
const SlotsPerLine = mem.LineSize / DescSize

// Layout selects the inline-signal descriptor arrangement (Fig 14b).
type Layout int

// Inline ring layouts.
const (
	// Grouped is CC-NIC's optimized layout: up to 4 descriptors per
	// line, unused slots zeroed, one signal per line.
	Grouped Layout = iota
	// Packed places 4 descriptors per line each with its own inline
	// signal; producer and consumer contend within a line.
	Packed
	// Padded places one descriptor (and signal) per cache line.
	Padded
)

func (l Layout) String() string {
	switch l {
	case Grouped:
		return "grouped"
	case Packed:
		return "packed"
	case Padded:
		return "padded"
	}
	return "unknown"
}

// DescsPerLine returns how many descriptors the layout places per line.
func (l Layout) DescsPerLine() int {
	if l == Padded {
		return 1
	}
	return SlotsPerLine
}

// line is the simulation-side state of one descriptor cache line.
type line struct {
	bufs  [SlotsPerLine]*bufpool.Buf
	count int  // valid descriptors in the line
	taken int  // descriptors already consumed from the line
	ready bool // line-level signal (Grouped/Padded)
	// visibleAt gates readiness: the producer's store-buffered write
	// becomes observable to the consumer only after the RFO completes.
	visibleAt sim.Time
	// clearVisibleAt gates the producer's reclaim of a consumer-cleared
	// line, symmetrically.
	clearVisibleAt sim.Time
	// Packed layout: per-slot ready flags and visibility.
	slotReady   [SlotsPerLine]bool
	slotVisible [SlotsPerLine]sim.Time
}

// Inline is an inline-signaled descriptor ring. The producer publishes
// descriptor groups and the consumer polls the next line directly — no
// head/tail registers exist. The consumer clears each line after use; the
// cleared state is both the flow-control credit and the completion signal
// (the paper's two-way single-line communication).
type Inline struct {
	sys    *coherence.System
	layout Layout
	nLines int
	base   mem.Addr
	lines  []line

	prod     int // next line to publish (absolute, monotone)
	prodSlot int // packed layout: next slot within the current line
	cons     int // next line to consume
	credits  int // lines known clear ahead of prod
	reclaim  int // next line to scan for cleared state

	reclaimedSinceTake int

	scan sim.Scratch[mem.Addr] // the producer's replenish scan

	// watch is fired by every publish: each line, and each Packed slot.
	watch sim.Watch
}

// NewInline allocates an inline ring of nLines cache lines, homed on the
// producer's socket (writer-homing, per §3.2).
func NewInline(sys *coherence.System, layout Layout, nLines, producerSocket int) *Inline {
	if nLines < 4 {
		panic("ring: inline ring needs at least 4 lines")
	}
	return &Inline{
		sys:     sys,
		layout:  layout,
		nLines:  nLines,
		base:    sys.Space().AllocLines(producerSocket, nLines),
		lines:   make([]line, nLines),
		credits: nLines - 1, // one line gap keeps prod from lapping cons
	}
}

// Layout returns the ring's descriptor layout.
func (r *Inline) Layout() Layout { return r.layout }

// notify reports a completed ring mutation to the system's validation probe.
func (r *Inline) notify() {
	if pr := r.sys.Probe(); pr != nil {
		pr.ObjectEvent(r)
	}
}

// CheckDesc implements coherence.Checkable.
func (r *Inline) CheckDesc() string {
	return fmt.Sprintf("inline ring %s/%d @%#x", r.layout, r.nLines, r.base)
}

// Cursors returns the ring's monotone cursors — effective producer position
// (counting a partially-filled packed line), consumer position, reclaim
// position — plus the current credit count, for the invariant engine and
// tests.
func (r *Inline) Cursors() (prod, cons, reclaim, credits int) {
	prod = r.prod
	if r.layout == Packed && r.prodSlot > 0 {
		prod++
	}
	return prod, r.cons, r.reclaim, r.credits
}

// CheckInvariants implements coherence.Checkable: cursor ordering, credit
// accounting, every line the consumer has passed fully cleared (the
// skip-to-next-group rule never skips a ready descriptor), and every
// published line carrying ready descriptors. O(nLines) worst case, O(live
// window) in practice.
func (r *Inline) CheckInvariants() error {
	prod, cons, reclaim, credits := r.Cursors()
	if credits < 0 || credits > r.nLines-1 {
		return fmt.Errorf("credits %d outside [0,%d]", credits, r.nLines-1)
	}
	if reclaim > cons {
		return fmt.Errorf("reclaim cursor %d ahead of consumer %d", reclaim, cons)
	}
	if cons > prod {
		return fmt.Errorf("consumer %d ahead of producer %d", cons, prod)
	}
	// A mid-burst packed post holds a credit for the line it is filling
	// before the producer cursor reflects it, so allow a deficit of one.
	want := r.nLines - 1 - (prod - reclaim)
	if credits > want || credits < want-1 {
		return fmt.Errorf("credits %d inconsistent with cursors (prod %d reclaim %d, want %d)",
			credits, prod, reclaim, want)
	}
	for i := reclaim; i < cons; i++ {
		if !r.cleared(r.lineAt(i)) {
			return fmt.Errorf("line %d passed by consumer (cons %d) but not cleared", i, cons)
		}
	}
	for i := cons; i < prod; i++ {
		ln := r.lineAt(i)
		if r.layout == Packed {
			for j := ln.taken; j < ln.count; j++ {
				if ln.bufs[j] != nil && !ln.slotReady[j] {
					return fmt.Errorf("packed line %d slot %d holds a buffer with a clear ready flag", i, j)
				}
			}
			continue
		}
		if !ln.ready {
			return fmt.Errorf("published line %d (cons %d prod %d) not ready", i, cons, prod)
		}
		if ln.count == 0 || ln.count > r.layout.DescsPerLine() {
			return fmt.Errorf("published line %d has descriptor count %d", i, ln.count)
		}
		if ln.taken > ln.count {
			return fmt.Errorf("line %d has %d taken of %d descriptors", i, ln.taken, ln.count)
		}
		if i > cons && ln.taken != 0 {
			return fmt.Errorf("line %d beyond the consumer already partially taken (%d)", i, ln.taken)
		}
		for j := ln.taken; j < ln.count; j++ {
			if ln.bufs[j] == nil {
				return fmt.Errorf("line %d slot %d ready but carries no buffer", i, j)
			}
		}
	}
	return nil
}

// Cap returns the ring capacity in descriptors.
func (r *Inline) Cap() int { return r.nLines * r.layout.DescsPerLine() }

// lineAddr returns the address of ring line i (absolute index).
func (r *Inline) lineAddr(i int) mem.Addr {
	return r.base + mem.Addr((i%r.nLines)*mem.LineSize)
}

func (r *Inline) lineAt(i int) *line { return &r.lines[i%r.nLines] }

// Post publishes up to len(bufs) descriptors from the producer agent,
// returning how many were accepted (limited by ring space). Each burst is
// packed into whole lines; a line is finalized when published, so the
// consumer's skip-to-next-line rule (§3.2) is implicit.
func (r *Inline) Post(p *sim.Proc, a *coherence.Agent, bufs []*bufpool.Buf) int {
	if len(bufs) == 0 {
		return 0
	}
	r.replenish(p, a, len(bufs))
	posted := 0
	if r.layout == Packed {
		// Packed: successive posts keep filling the current line, one
		// store per descriptor+signal. The store coalesces in the
		// producer's cache unless the consumer steals the line between
		// stores — the thrashing the paper measures.
		for posted < len(bufs) {
			ln := r.lineAt(r.prod)
			if r.prodSlot == 0 {
				if r.credits == 0 {
					break
				}
				r.credits--
			}
			i := r.prodSlot
			// Charge the store first: its sleep can yield to the
			// consumer, which must not observe the flag with a stale
			// visibility gate.
			vis := a.WriteAsync(p, r.lineAddr(r.prod)+mem.Addr(i*DescSize), DescSize)
			ln.bufs[i] = bufs[posted]
			ln.count = i + 1
			ln.slotVisible[i] = vis
			ln.slotReady[i] = true
			r.watch.Fire()
			posted++
			r.prodSlot++
			if r.prodSlot == SlotsPerLine {
				r.prodSlot = 0
				r.prod++
			}
		}
		r.notify()
		return posted
	}
	per := r.layout.DescsPerLine()
	for posted < len(bufs) && r.credits > 0 {
		ln := r.lineAt(r.prod)
		n := len(bufs) - posted
		if n > per {
			n = per
		}
		// Charge the store first (see the packed path): the consumer
		// must never observe ready with a stale visibility gate.
		vis := a.WriteAsync(p, r.lineAddr(r.prod), mem.LineSize)
		for i := 0; i < n; i++ {
			ln.bufs[i] = bufs[posted+i]
		}
		ln.count = n
		ln.visibleAt = vis
		ln.ready = true
		r.watch.Fire()
		r.prod++
		r.credits--
		posted += n
	}
	r.notify()
	return posted
}

// replenish scans forward from the reclaim pointer for consumer-cleared
// lines when credits run low, converting them into producer credits. The
// scan overlaps its reads (GatherRead), modeling a burst reclaim pass.
func (r *Inline) replenish(p *sim.Proc, a *coherence.Agent, want int) {
	needLines := (want + r.layout.DescsPerLine() - 1) / r.layout.DescsPerLine()
	if r.credits >= needLines && r.credits >= r.nLines/4 {
		return
	}
	scan := r.scan.Take()
	limit := r.cons // cannot reclaim past the consumer
	now := p.Now()
	for r.reclaim < limit && len(scan) < r.nLines {
		ln := r.lineAt(r.reclaim)
		if !r.cleared(ln) || now < ln.clearVisibleAt {
			break
		}
		scan = append(scan, r.lineAddr(r.reclaim))
		r.reclaim++
		r.credits++
	}
	if len(scan) > 0 {
		a.GatherRead(p, scan)
		r.reclaimedSinceTake += len(scan)
		r.notify()
	}
	r.scan.Put(scan)
}

// TakeReclaimed returns the number of ring lines reclaimed (observed cleared
// by the consumer) since the last call. Producers that manage buffers
// host-side use this to free the corresponding in-flight TX buffers.
func (r *Inline) TakeReclaimed() int {
	n := r.reclaimedSinceTake
	r.reclaimedSinceTake = 0
	return n
}

// readyAt reports whether a Grouped or Padded line's descriptors are ready
// and observable by the consumer at now.
func (ln *line) readyAt(now sim.Time) bool { return ln.ready && now >= ln.visibleAt }

// slotReadyAt reports whether Packed slot i holds a ready descriptor
// observable by the consumer at now.
func (ln *line) slotReadyAt(i int, now sim.Time) bool {
	return ln.bufs[i] != nil && ln.slotReady[i] && now >= ln.slotVisible[i]
}

func (r *Inline) cleared(ln *line) bool {
	if ln.ready || ln.count != 0 {
		return false
	}
	for _, s := range ln.slotReady {
		if s {
			return false
		}
	}
	return true
}

// Consume polls the consumer's current position and takes up to len(out)
// descriptors into out, clearing consumed state (the completion/credit
// signal). It returns how many it took; zero means nothing was ready.
func (r *Inline) Consume(p *sim.Proc, a *coherence.Agent, out []*bufpool.Buf) int {
	n := r.consume(p, a, out)
	r.notify()
	return n
}

// IdlePoll reports whether the next Consume would begin with an empty poll
// — a load that does not train the prefetcher, of the consumer's line
// (Grouped, Padded) or slot (Packed), with nothing ready there — and
// returns that poll's address. A spin step issues the poll itself
// (coherence.Agent.SpinPoll) and, once it completes, ends the Consume with
// FinishPoll. IdlePoll is false when the consumer's line is already ready:
// that Consume reads it, training the prefetcher.
//
// until is the instant the answer changes by itself, with no further
// publish: a Packed slot posted but not yet visible turns ready at its
// visibility; otherwise sim.Never. Every publish fires the ring's Watch.
func (r *Inline) IdlePoll(now sim.Time) (addr mem.Addr, until sim.Time, ok bool) {
	ln := r.lineAt(r.cons)
	addr = r.lineAddr(r.cons)
	if r.layout == Packed {
		i := ln.taken
		if ln.slotReadyAt(i, now) {
			return 0, 0, false
		}
		until = sim.Never
		if ln.bufs[i] != nil && ln.slotReady[i] {
			until = ln.slotVisible[i]
		}
		return addr + mem.Addr(i*DescSize), until, true
	}
	return addr, sim.Never, !ln.ready
}

// Watch returns the ring's publish watch, for the consumer's doze.
func (r *Inline) Watch() *sim.Watch { return &r.watch }

// FinishPoll ends a Consume whose empty poll (IdlePoll) has just completed,
// reported to the probe as Consume reports an empty one. That poll cannot
// have found work: a line turns ready only when the producer's RFO
// completes, and that RFO must first invalidate the consumer's resident
// copy, so it cannot complete inside the consumer's L2-hit poll.
func (r *Inline) FinishPoll(now sim.Time) {
	if r.layout != Packed && r.lineAt(r.cons).readyAt(now) {
		panic(fmt.Sprintf("%s: line %d became ready inside an L2-hit poll, which the producer's RFO must invalidate first", r.CheckDesc(), r.cons))
	}
	r.notify()
}

// consume takes up to len(out) descriptors into out.
func (r *Inline) consume(p *sim.Proc, a *coherence.Agent, out []*bufpool.Buf) int {
	n := 0
	for n < len(out) {
		ln := r.lineAt(r.cons)
		addr := r.lineAddr(r.cons)
		switch r.layout {
		case Packed:
			took := false
			for ln.taken < SlotsPerLine && n < len(out) {
				i := ln.taken
				if !ln.slotReadyAt(i, p.Now()) {
					break
				}
				// Poll+take+clear one descriptor slot.
				a.Poll(p, addr+mem.Addr(i*DescSize), DescSize)
				// Online descriptor-group safety assertion: the poll
				// yielded, so re-check that the slot still carries a
				// set, visible ready flag before taking it.
				if pr := r.sys.Probe(); pr != nil && (!ln.slotReady[i] || p.Now() < ln.slotVisible[i]) {
					pr.Fail(fmt.Errorf("%s: consuming slot %d of line %d with a clear or not-yet-visible ready flag", r.CheckDesc(), i, r.cons))
				}
				out[n] = ln.bufs[i]
				n++
				vis := a.WriteAsync(p, addr+mem.Addr(i*DescSize), DescSize)
				ln.clearVisibleAt = vis
				ln.bufs[i] = nil
				ln.slotReady[i] = false
				ln.taken++
				took = true
			}
			if ln.taken == SlotsPerLine {
				ln.count, ln.taken = 0, 0
				r.cons++
				continue
			}
			if !took {
				a.Poll(p, addr+mem.Addr(ln.taken*DescSize), DescSize) // empty poll
				return n
			}
			return n
		//ccnic:default-ok Grouped and Padded share the line-granularity path; only Packed differs
		default:
			// A successful consume streams sequentially through ring
			// lines, so it trains the hardware prefetcher (Read); an
			// empty poll re-checks the same line and does not (Poll).
			if ln.ready {
				a.Read(p, addr, DescSize)
			} else {
				a.Poll(p, addr, DescSize)
			}
			if !ln.readyAt(p.Now()) {
				return n
			}
			for ln.taken < ln.count && n < len(out) {
				out[n] = ln.bufs[ln.taken]
				n++
				ln.bufs[ln.taken] = nil
				ln.taken++
			}
			if ln.taken < ln.count {
				return n // caller's batch filled mid-line
			}
			// Clearing the line is one coalesced store (the
			// consumer already owns it after the poll). Charge it
			// before exposing the cleared state.
			vis := a.WriteAsync(p, addr, mem.LineSize)
			ln.clearVisibleAt = vis
			ln.count, ln.taken = 0, 0
			ln.ready = false
			r.cons++
			// Driver-style software prefetch of the next ring line
			// (rte_prefetch0): under backlog the following group's
			// fetch overlaps with processing this one.
			a.SoftPrefetch(r.lineAddr(r.cons))
		}
	}
	return n
}

// Pending returns the number of published-but-unconsumed descriptors (for
// tests and flow control).
func (r *Inline) Pending() int {
	n := 0
	end := r.prod
	if r.layout == Packed && r.prodSlot > 0 {
		end++
	}
	for i := r.cons; i < end; i++ {
		ln := r.lineAt(i)
		if r.layout == Packed {
			for j := ln.taken; j < ln.count; j++ {
				if ln.bufs[j] != nil && ln.slotReady[j] {
					n++
				}
			}
		} else if ln.ready {
			n += ln.count - ln.taken
		}
	}
	return n
}

// SpaceLines returns the producer's current credit in lines.
func (r *Inline) SpaceLines() int { return r.credits }

// DebugString summarizes the ring's cursors and consumer-line state, for
// diagnostics and tests.
func (r *Inline) DebugString() string {
	ln := r.lineAt(r.cons)
	return fmt.Sprintf("prod %d cons %d credits %d reclaim %d | cons line: ready %v count %d taken %d visibleAt %v clearVis %v",
		r.prod, r.cons, r.credits, r.reclaim, ln.ready, ln.count, ln.taken, ln.visibleAt, ln.clearVisibleAt)
}
