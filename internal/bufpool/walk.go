package bufpool

import (
	"ccnic/internal/coherence"
	"ccnic/internal/mem"
	"ccnic/internal/sim"
)

// burstWalk is one burst of pool operations in flight: the allocations of
// an AllocBurst, AllocFed or Alloc, or the frees of a FreeBurst, FreeFed or
// Free. Each operation mutates the pool in the event it starts and is then
// charged, one event per charge:
//
//   - a recycling-stack pop or push costs stackOpCost;
//   - a central-pool operation (a refill pop, a steal, a non-recycling
//     free, a spill) writes its shard's lock line, then gathers or
//     scatters the shard's entry lines, each access after its
//     cache-pressure draw, exactly as Agent.Write and GatherRead or
//     ScatterWrite charge them, line by line (coherence.Access).
//
// run starts operation 0 on the issuing process and sleeps its first
// charge; every later charge elapses as a sim.Proc.Spin step, advance,
// which completes the charge and runs the burst on to its next charge in
// that same event: the rest of the operation (a free's spill check and
// probe notification, an allocation's hand-off to out and its feed), then
// the next operation's mutation. The clock, the event count, the probe and
// the run-queue order therefore see exactly what a Sleep per charge would
// have made them see, and the process resumes once per burst.
//
// advance runs outside every process, so nothing it calls may block: the
// pool's mutations, the step-form accesses and the feeds only compute and
// record.
type burstWalk struct {
	pt   *Port
	free bool

	// An allocation burst fills out, sizing every buffer by size, or by
	// afeed when set.
	out   []*Buf
	size  int
	afeed AllocFeed
	// A free burst releases bufs in order, or what ffeed hands out when
	// set.
	bufs  []*Buf
	ffeed FreeFeed
	// one is the out or bufs of a burst of one (Alloc, Free).
	one [1]*Buf

	i    int       // the operation in flight
	b    *Buf      // the buffer it allocates
	fl   *freeList // the free list it works on
	then opStage   // what it does once its charges complete

	// The central-pool charge in flight: the lock line and entries of
	// shard o, count entries from depth, scattered when write is set. A
	// steal's gather takes its depth from the victim's list, stolen, once
	// the lock-line write completes, as steal read it.
	charge       chargeStage
	o            *Port
	depth, count int
	write        bool
	stolen       *freeList
	acc          coherence.Access
	lines        []mem.Addr // the entry lines, borrowed from pt.lines

	// step is advance, bound once when the walker is made: a method value
	// made per burst would allocate.
	step func() (sim.Time, bool)
	next *burstWalk // the port's free list
}

// opStage is what an operation does once its charges complete.
type opStage uint8

const (
	opStart  opStage = iota // start the next operation
	opTook                  // hand the allocated buffer over
	opStolen                // pop the refill a steal brought in
	opPushed                // spill a recycling stack past its depth
	opFreed                 // notify the probe of a completed free
)

// chargeStage is the charge in flight.
type chargeStage uint8

const (
	chargeNone    chargeStage = iota
	chargeStack               // a recycling-stack pop or push
	chargeLock                // the lock-line write, its cache pressure first
	chargeEntries             // the entry gather or scatter, its cache pressure first
)

// walker takes a walker off the port's free list. A port may serve two
// processes, each with a burst in flight.
//
//ccnic:noalloc
func (pt *Port) walker() *burstWalk {
	w := pt.walks
	if w == nil {
		w = &burstWalk{pt: pt} //ccnic:alloc-ok free-list warm-up: one walker per concurrent burst
		w.step = w.advance     //ccnic:alloc-ok bound once, when the walker is made
	} else {
		pt.walks = w.next
	}
	return w
}

// run performs the burst on p and returns it ended. Operation 0 starts on
// p; when it charges anything, p spins the charge and the steps run the
// rest of the burst.
//
//ccnic:noalloc
func (w *burstWalk) run(p *sim.Proc) Burst {
	if d, ok := w.proceed(); ok {
		p.Spin(d, w.step)
	}
	return Burst{w}
}

// Burst is a buffer-pool burst in step form, for a spin step that starts
// one on a process it does not run on, as a ring or device walk does (see
// coherence.Access): a StartAlloc, StartAllocFed, StartFree or StartFreeFed
// runs operation 0 from the current instant up to its first charge and
// returns that charge's cost; at each later wake, Advance completes the
// charge in flight and runs the burst on to its next. Either reports false
// once the burst has ended, in that event; End then returns how many
// operations completed and gives the walker back. The clock, the event
// count, the probe and the run-queue order see exactly what the
// process-side burst would have made them see, provided the caller sleeps
// each returned cost as one event.
type Burst struct{ w *burstWalk }

// StartAlloc starts AllocBurst(size, out) in step form.
//
//ccnic:noalloc
func (pt *Port) StartAlloc(size int, out []*Buf) (Burst, sim.Time, bool) {
	return pt.allocs(size, out, nil).start()
}

// StartAllocFed starts AllocFed(out, feed) in step form.
//
//ccnic:noalloc
func (pt *Port) StartAllocFed(out []*Buf, feed AllocFeed) (Burst, sim.Time, bool) {
	return pt.allocs(0, out, feed).start()
}

// StartFree starts FreeBurst(bufs) in step form.
//
//ccnic:noalloc
func (pt *Port) StartFree(bufs []*Buf) (Burst, sim.Time, bool) {
	return pt.frees(bufs, nil).start()
}

// StartFreeFed starts FreeFed(feed) in step form.
//
//ccnic:noalloc
func (pt *Port) StartFreeFed(feed FreeFeed) (Burst, sim.Time, bool) {
	return pt.frees(nil, feed).start()
}

// start runs the burst up to its first charge.
//
//ccnic:noalloc
func (w *burstWalk) start() (Burst, sim.Time, bool) {
	d, ok := w.proceed()
	return Burst{w}, d, ok
}

// Advance completes the charge in flight and runs the burst on to its next
// charge, returning its cost, or to its end.
//
//ccnic:noalloc
func (b Burst) Advance() (sim.Time, bool) { return b.w.advance() }

// End returns how many operations the ended burst completed and returns
// its walker to the port's free list: the Burst is spent.
//
//ccnic:noalloc
func (b Burst) End() int {
	n := b.w.i
	b.w.put()
	return n
}

// allocs takes a walker for an allocation burst into out, sized by size or
// by feed when set.
//
//ccnic:noalloc
func (pt *Port) allocs(size int, out []*Buf, feed AllocFeed) *burstWalk {
	w := pt.walker()
	w.size, w.out, w.afeed = size, out, feed
	return w
}

// frees takes a walker for a free burst of bufs, or of what feed hands out
// when set.
//
//ccnic:noalloc
func (pt *Port) frees(bufs []*Buf, feed FreeFeed) *burstWalk {
	w := pt.walker()
	w.free, w.bufs, w.ffeed = true, bufs, feed
	return w
}

// put clears the walker and returns it to the port's free list.
//
//ccnic:noalloc
func (w *burstWalk) put() {
	pt, step := w.pt, w.step
	*w = burstWalk{pt: pt, step: step, next: pt.walks}
	pt.walks = w
}

// advance is the burst's spin step: it completes the charge in flight and
// runs the burst on to its next charge, returning its cost, or to its end.
//
//ccnic:noalloc
func (w *burstWalk) advance() (sim.Time, bool) {
	if d, ok := w.continueCharge(); ok {
		return d, true
	}
	return w.proceed()
}

// proceed runs the operation in flight on from the end of its charges, then
// the operations after it, up to the next charge, whose cost it returns,
// or to the burst's end.
//
//ccnic:noalloc
func (w *burstWalk) proceed() (sim.Time, bool) {
	switch w.then {
	case opTook:
		b := w.b
		w.b = nil
		w.out[w.i] = b
		if w.afeed != nil {
			w.afeed.Took(w.i, b)
		}
		w.i++
	case opStolen:
		return w.popCentral()
	case opPushed:
		if len(w.fl.recycle) > w.pt.pool.cfg.RecycleDepth {
			depth, n := w.pt.spill(w.fl)
			w.then = opFreed
			return w.central(w.pt, depth, n, true)
		}
		w.pt.pool.notify()
		w.i++
	case opFreed:
		w.pt.pool.notify()
		w.i++
	case opStart:
	}
	if w.free {
		return w.startFree()
	}
	return w.startAlloc()
}

// startAlloc starts allocation i: a recycling-stack pop, or a pop from the
// port's shard, which a dry shard first refills from the seed, by carving
// small buffers from its own big ones, or by stealing from the richest
// other shard.
//
//ccnic:noalloc
func (w *burstWalk) startAlloc() (sim.Time, bool) {
	if w.i == len(w.out) {
		return 0, false
	}
	size := w.size
	if w.afeed != nil {
		var ok bool
		if size, ok = w.afeed.Size(w.i); !ok {
			return 0, false
		}
	}
	pt := w.pt
	pl := pt.pool
	c := classOf(pl.cfg.SmallBufs && size <= SmallSize)
	w.fl = &pt.lists[c]
	if pl.cfg.Recycle && len(w.fl.recycle) > 0 {
		w.b = pl.popRecycle(w.fl)
		w.then, w.charge = opTook, chargeStack
		return stackOpCost, true // L1-resident stack pop
	}
	if len(w.fl.shard) == 0 {
		if len(pt.lists[classBig].shard) == 0 && len(pl.seed) > 0 {
			pt.claimSeed()
		}
		if c == classSmall {
			pt.carveSmall()
		}
	}
	if len(w.fl.shard) == 0 {
		if victim, n := pt.steal(c); victim != nil {
			w.then, w.stolen = opStolen, &victim.lists[c]
			return w.central(victim, 0, n, false)
		}
	}
	return w.popCentral()
}

// popCentral pops allocation i's buffer, with a refill batch when
// recycling, from the port's shard and issues the pop's charges. A shard
// still empty ends the burst: even a successful steal can leave it empty,
// since its charges let another port steal from this one meanwhile.
//
//ccnic:noalloc
func (w *burstWalk) popCentral() (sim.Time, bool) {
	if len(w.fl.shard) == 0 {
		return 0, false
	}
	n := len(w.fl.shard)
	w.b = w.pt.pool.popShard(w.fl)
	w.then = opTook
	return w.central(w.pt, len(w.fl.shard), n-len(w.fl.shard), false)
}

// startFree starts free i: a recycling-stack push, or a push onto the
// port's shard.
//
//ccnic:noalloc
func (w *burstWalk) startFree() (sim.Time, bool) {
	var b *Buf
	if w.ffeed != nil {
		if b = w.ffeed.Next(w.i); b == nil {
			return 0, false
		}
	} else {
		if w.i == len(w.bufs) {
			return 0, false
		}
		b = w.bufs[w.i]
	}
	fl, depth := w.pt.push(b)
	w.fl = fl
	if w.pt.pool.cfg.Recycle {
		w.then, w.charge = opPushed, chargeStack
		return stackOpCost, true // L1-resident stack push
	}
	w.then = opFreed
	return w.central(w.pt, depth, 1, true)
}

// central issues a central-pool operation's charges on shard o: its
// lock-line write, then the access to count entries from depth.
//
//ccnic:noalloc
func (w *burstWalk) central(o *Port, depth, count int, write bool) (sim.Time, bool) {
	w.o, w.depth, w.count, w.write = o, depth, count, write
	w.charge = chargeLock
	if d, ok := w.acc.Write(w.pt.agent, o.lockLine, 8); ok {
		return d, true
	}
	return w.entries()
}

// continueCharge completes the charge in flight, or its line in flight, and
// issues what follows within the operation's charges, returning its cost;
// it reports false once the operation has no charge left.
//
//ccnic:noalloc
func (w *burstWalk) continueCharge() (sim.Time, bool) {
	switch w.charge {
	case chargeLock, chargeEntries:
		if d, more := w.acc.Advance(); more {
			return d, true
		}
		if w.charge == chargeEntries {
			return w.endEntries()
		}
		return w.entries()
	case chargeNone, chargeStack:
	}
	w.charge = chargeNone
	return 0, false
}

// entries lists the entry lines in the event the lock-line write
// completes, before the entry access's cache-pressure draw and whatever
// other processes do while it elapses, then starts the access.
//
//ccnic:noalloc
func (w *burstWalk) entries() (sim.Time, bool) {
	depth := w.depth
	if w.stolen != nil {
		depth = len(w.stolen.shard)
	}
	w.lines = w.o.entryLines(w.pt.lines.Take(), depth, w.count)
	w.charge = chargeEntries
	if d, ok := w.acc.Gather(w.pt.agent, w.lines, w.write); ok {
		return d, true
	}
	return w.endEntries()
}

// endEntries ends the entry access, the operation's last charge.
//
//ccnic:noalloc
func (w *burstWalk) endEntries() (sim.Time, bool) {
	w.pt.lines.Put(w.lines)
	w.lines, w.stolen, w.charge = nil, nil, chargeNone
	return 0, false
}
