package coherence

import (
	"ccnic/internal/interconn"
	"ccnic/internal/mem"
	"ccnic/internal/sim"
)

// Agent is a CPU core (host application core or NIC processing unit) with a
// private L2 cache. All access methods advance the calling process's virtual
// time by the access latency and return it.
type Agent struct {
	sys    *System
	socket int
	name   string
	l2     *Cache

	// Per-line streaming costs, precomputed from platform bandwidths.
	coreLineCost, remoteLineCost sim.Time

	// Stride detectors for the hardware prefetcher (one for loads, one
	// for stores, mirroring the DCU IP prefetcher's PC-correlated
	// streams at the granularity we model).
	lastRead, lastWrite         mem.Addr
	readStride, writeStride     int64
	havePrevRead, havePrevWrite bool

	// walks is the free list of multi-line access walkers (lineWalk).
	walks *lineWalk
}

// Name returns the agent name.
func (a *Agent) Name() string { return a.name }

// Socket returns the agent's socket.
//
//ccnic:noalloc
func (a *Agent) Socket() int { return a.socket }

// System returns the memory system the agent belongs to.
func (a *Agent) System() *System { return a.sys }

// result describes one line access.
type result struct {
	lat     sim.Time
	crossed bool     // data or snoop crossed the interconnect (counters)
	data    bool     // a full line of data crossed (bandwidth-relevant)
	queue   sim.Time // link queueing delay included in lat
	stall   sim.Time // wait for a prior in-flight store to commit
}

// access performs the coherence protocol for a single line at issue time:
// an L2 hit or upgrade, else the data comes from the owner, a sharer, or
// memory. Both protocols run this walk and enter it only at the decision
// points in protocol.go.
//
// write selects RFO semantics; fullLine marks stores that overwrite the
// entire line, which acquire ownership without fetching the stale data
// (the ItoM / full-line-store optimization — data then crosses the
// interconnect once per producer-consumer cycle, not twice); quiet marks
// hardware prefetches, which follow different migration rules and charge no
// demand latency.
//
//ccnic:noalloc
func (s *System) access(a *Agent, line mem.Addr, write, quiet, fullLine bool) result {
	now := s.k.Now()
	p := s.plat
	ctr := &s.counters[a.socket]

	// L2 hit paths.
	if e := a.l2.get(line); e != nil {
		if !write || e.state == Modified {
			s.lineEvent(line)
			return result{lat: p.L2Hit}
		}
		// Shared -> Modified upgrade.
		d := s.ent(line)
		lat := p.L2Hit
		crossed := false
		if len(d.sharers) > 1 || d.owner != nil || !d.holds(a.l2) {
			lat, crossed = s.invalidateLat(d, a.l2, line, now)
			if crossed {
				ctr.RemoteRFO++
			}
		}
		d.removeSharer(a.l2)
		s.dropCopies(d, a.l2, line)
		d.owner = a.l2
		e.state = Modified
		if commit := now + lat; commit > d.pendingUntil {
			d.pendingUntil = commit
		}
		s.track(a, line)
		s.lineEvent(line)
		return result{lat: lat, crossed: crossed}
	}

	// L2 miss: find the data.
	d := s.ent(line)
	var lat, queue sim.Time
	crossed, dataMoved := false, false
	home := mem.Home(line)

	// An in-flight store by the current owner blocks forwarding: the
	// requester stalls until the store commits, then pays its own access.
	stall := d.pendingStall(now)

	biasLat, reclaimed := s.reclaimBias(a, line)
	if reclaimed {
		crossed = true
		d = s.ent(line) // the flush may have emptied (gc'd) the entry
	}

	// Demand reads mutate coherence state at *completion*, not at issue:
	// the caller sleeps for the latency and then calls commitRead. This
	// matters for polling loops: a poll must not steal a line from its
	// current owner before the transfer actually finishes, or the owner's
	// immediately-following store (the co-located pingpong pattern, §3.2)
	// would spuriously miss. Writes and prefetches mutate at issue.
	switch {
	case d.owner != nil:
		owner := d.owner
		switch {
		case fullLine && write:
			// ItoM: invalidate the stale copy without moving data (a
			// trusted-absent snoop filter issues no crossing).
			if owner.socket == a.socket || s.skipsDeviceSnoop(a.l2, line) {
				lat = p.LLCHit
			} else {
				s.ctrlPair(now, interconn.DirFromTo(a.socket, owner.socket))
				lat = s.invalCost()
				crossed = true
			}
		case owner.socket == a.socket:
			lat = s.localLat(owner)
		case s.skipsDeviceSnoop(a.l2, line):
			// The filter claims the device holds nothing (reachable only
			// when it is stale): the host reads its own memory directly.
			lat = p.LocalDRAM
		default:
			lat, queue = s.transfer(a, owner.socket, home, true, now)
			crossed, dataMoved = true, true
		}
		switch {
		case write:
			// RFO with migratory dirty forwarding (or ItoM above).
			s.dropCopies(d, a.l2, line)
			s.fill(d, a, line, Modified)
		case quiet:
			// Prefetch read: demote the owner and fill Shared.
			s.demoteOwner(d, line)
			s.fill(d, a, line, Shared)
		}
	case len(d.sharers) > 0:
		src := s.nearestSharer(d, a.socket)
		switch {
		case fullLine && write:
			lat = 0 // invalidation cost charged below
		case src.socket == a.socket:
			lat = s.localLat(src)
		case s.skipsDeviceSnoop(a.l2, line):
			lat = p.LocalDRAM // stale-filter path: read memory, skip the snoop
		default:
			lat, queue = s.transfer(a, src.socket, home, true, now)
			crossed, dataMoved = true, true
		}
		if write {
			ilat, icrossed := s.invalidateLat(d, a.l2, line, now)
			lat = max(lat, ilat)
			crossed = crossed || icrossed
			s.dropCopies(d, a.l2, line)
			s.fill(d, a, line, Modified)
		} else if quiet {
			if src == s.llc[a.socket] {
				src.drop(line)
				d.removeSharer(src)
			}
			s.fill(d, a, line, Shared)
		}
	default: // memory
		switch {
		case fullLine && write:
			// ItoM from memory: ownership grant, no data fetch. A
			// remote home still answers the directory request.
			if home == a.socket {
				lat = p.LLCHit
			} else {
				s.ctrlPair(now, interconn.DirFromTo(home, a.socket))
				lat = s.invalCost()
				crossed = true
			}
		case home == a.socket:
			lat = p.LocalDRAM
		default:
			lat, queue = s.transfer(a, home, home, false, now)
			crossed, dataMoved = true, true
		}
		if write {
			s.fill(d, a, line, Modified)
		} else if quiet {
			s.fill(d, a, line, Shared)
		}
	}

	lat += biasLat + stall
	ctr.StallTime += stall
	if write {
		if commit := now + lat; commit > d.pendingUntil {
			d.pendingUntil = commit
		}
	}
	if crossed {
		if write {
			ctr.RemoteRFO++
		} else {
			ctr.RemoteRead++
		}
	}
	if quiet {
		ctr.Prefetches++
	}
	if write || quiet {
		s.track(a, line)
	}
	s.lineEvent(line)
	return result{lat: lat, crossed: crossed, data: dataMoved, queue: queue, stall: stall}
}

// transfer charges a line of data crossing the link from srcSocket to
// requester a, served from a cache (fromCache) or from its home memory, and
// returns the fetch's latency and the link queueing it includes.
//
//ccnic:noalloc
func (s *System) transfer(a *Agent, srcSocket, home int, fromCache bool, now sim.Time) (lat, queue sim.Time) {
	queue = s.link.Data(now, interconn.DirFromTo(srcSocket, a.socket), mem.LineSize)
	return s.fetchLat(a, home, fromCache) + queue, queue
}

// commitRead applies a demand read's state transition at completion time,
// based on the directory's state at that moment (the line may have moved
// while the fetch was in flight; the resolution is defensive).
//
//ccnic:noalloc
func (s *System) commitRead(a *Agent, line mem.Addr) {
	if a.l2.peek(line) != nil {
		return // already resident (raced with another fill)
	}
	d := s.ent(line)
	switch {
	case d.owner != nil:
		switch {
		case s.cxl == nil && s.mutation == MutateStaleMigration:
			// Deliberate defect (engine self-tests): migrate ownership
			// without invalidating the previous owner's copy.
			s.fill(d, a, line, Modified)
		case s.migrates():
			// Migratory dirty forwarding: ownership moves to the reader.
			d.owner.drop(line)
			s.fill(d, a, line, Modified)
		default:
			// No migration (CXL, or the UPI ablation): the reader fills
			// Shared and the owner's next store pays an
			// upgrade/invalidate crossing — the extra roundtrip traffic
			// Fig 8/17 measure.
			s.demoteOwner(d, line)
			s.fill(d, a, line, Shared)
		}
	default:
		if llc := s.llc[a.socket]; d.holds(llc) {
			// Victim-cache semantics: the line moves up.
			llc.drop(line)
			d.removeSharer(llc)
		}
		s.fill(d, a, line, Shared)
	}
	s.track(a, line)
	s.lineEvent(line)
}

// fill inserts line into a's L2 in state st (Modified or Shared) and
// records a as its owner or as a sharer.
//
//ccnic:noalloc
func (s *System) fill(d *dirEntry, a *Agent, line mem.Addr, st State) {
	if st == Modified {
		d.owner = a.l2
	} else {
		d.sharers = append(d.sharers, a.l2)
	}
	a.l2.insertMiss(line, st)
}

// demoteOwner demotes the line's Modified owner to Shared, writing the dirty
// data back to home (counted when home is across the link); an LLC owner
// gives the line up instead.
//
//ccnic:noalloc
func (s *System) demoteOwner(d *dirEntry, line mem.Addr) {
	owner := d.owner
	d.owner = nil
	if owner.isLLC {
		owner.drop(line)
	} else {
		owner.touch(line, Shared)
		d.sharers = append(d.sharers, owner)
	}
	if mem.Home(line) != owner.socket {
		s.counters[owner.socket].Writebacks++
	}
}

// localLat is the latency of a same-socket source: the LLC, or a forward
// from a peer L2.
//
//ccnic:noalloc
func (s *System) localLat(src *Cache) sim.Time {
	if src.isLLC {
		return s.plat.LLCHit
	}
	return s.plat.LocalFwd
}

// ctrlPair charges a control-message roundtrip: dir, then the reply.
//
//ccnic:noalloc
func (s *System) ctrlPair(now sim.Time, dir interconn.Direction) {
	s.link.Ctrl(now, dir)
	s.link.Ctrl(now, dir.Opposite())
}

// invalidateLat returns the snoop latency of invalidating every copy except
// keeper's and whether the snoop crossed the interconnect, charging its
// control messages. It does not mutate the directory; dropCopies does.
//
//ccnic:noalloc
func (s *System) invalidateLat(d *dirEntry, keeper *Cache, line mem.Addr, now sim.Time) (sim.Time, bool) {
	skip := s.skipsDeviceSnoop(keeper, line)
	lat := sim.Time(0)
	crossed := false
	if d.owner != nil {
		lat, crossed = s.snoopInval(d.owner, keeper, skip, now, lat, crossed)
	}
	for _, c := range d.sharers {
		lat, crossed = s.snoopInval(c, keeper, skip, now, lat, crossed)
	}
	return lat, crossed
}

// snoopInval folds the invalidation of c's copy into invalidateLat's
// running latency and crossing flag. skip trusts the snoop filter's claim
// that the device holds no copy.
//
//ccnic:noalloc
func (s *System) snoopInval(c, keeper *Cache, skip bool, now, lat sim.Time, crossed bool) (sim.Time, bool) {
	switch {
	case c == keeper:
	case c.socket == keeper.socket:
		lat = max(lat, s.plat.LLCHit) // local snoop via the caching agent
	case skip && c.socket == deviceSocket:
		// Trusted-absent per the snoop filter: no crossing.
	default:
		if !crossed {
			s.ctrlPair(now, interconn.DirFromTo(keeper.socket, c.socket))
			crossed = true
		}
		lat = max(lat, s.invalCost())
	}
	return lat, crossed
}

// dropCopies invalidates every copy except keeper's and clears the
// directory's owner and sharers. A device copy the snoop filter trusts to be
// absent is not dropped (see skipsDeviceSnoop): under a stale filter it
// survives.
//
//ccnic:noalloc
func (s *System) dropCopies(d *dirEntry, keeper *Cache, line mem.Addr) {
	skip := s.skipsDeviceSnoop(keeper, line)
	if d.owner != nil {
		if d.owner != keeper && !(skip && d.owner.socket == deviceSocket) {
			d.owner.drop(line)
		}
		d.owner = nil
	}
	for _, c := range d.sharers {
		if c != keeper && !(skip && c.socket == deviceSocket) {
			c.drop(line)
		}
	}
	d.sharers = d.sharers[:0]
}

// nearestSharer picks the lowest-cost source among clean sharers: an L2 on
// the requester's socket, then the requester-socket LLC, then any remote
// cache.
//
//ccnic:noalloc
func (s *System) nearestSharer(d *dirEntry, socket int) *Cache {
	var llcLocal, remote *Cache
	for _, c := range d.sharers {
		if c.socket == socket {
			if !c.isLLC {
				return c
			}
			llcLocal = c
		} else if remote == nil {
			remote = c
		}
	}
	if llcLocal != nil {
		return llcLocal
	}
	return remote
}

// Read performs a latency-accurate load of [addr, addr+size). Use it for
// signals, descriptors, and pointer chasing; use StreamRead for payloads.
func (a *Agent) Read(p *sim.Proc, addr mem.Addr, size int) sim.Time {
	return a.serialAccess(p, addr, size, false, true)
}

// Write performs a latency-accurate store (RFO) of [addr, addr+size).
func (a *Agent) Write(p *sim.Proc, addr mem.Addr, size int) sim.Time {
	return a.serialAccess(p, addr, size, true, true)
}

// StoreIssueCost is the writer-visible cost of a store that misses: the
// store buffer absorbs the RFO latency, so the core continues after issue.
const StoreIssueCost = 15 * sim.Nanosecond

// WriteAsync performs a store with store-buffer semantics: the coherence
// transition happens now (ownership moves to the writer), the writer is
// charged only the issue cost, and the returned time is when the new data
// becomes globally visible — a remote consumer polling before then still
// observes the old contents. Ring implementations gate readiness on it.
func (a *Agent) WriteAsync(p *sim.Proc, addr mem.Addr, size int) (visibleAt sim.Time) {
	_, visibleAt = a.walker(walkAsync, true, true).span(addr, size).run(p)
	return max(visibleAt, p.Now())
}

// SoftPrefetch issues an explicit software prefetch of one line (the
// driver-inserted rte_prefetch0 of a poll loop's next descriptor line). It
// costs the core nothing and fills the line Shared; it works regardless of
// the hardware prefetcher setting.
//
//ccnic:noalloc
func (a *Agent) SoftPrefetch(addr mem.Addr) {
	line := mem.LineOf(addr)
	if a.l2.peek(line) != nil {
		return
	}
	a.sys.access(a, line, false, true, false)
}

// Poll performs a load that does not train the hardware prefetcher —
// modeling descriptor-ring polling, whose repeated same-line loads do not
// establish a useful stride.
func (a *Agent) Poll(p *sim.Proc, addr mem.Addr, size int) sim.Time {
	return a.serialAccess(p, addr, size, false, false)
}

// Pressure draws the cache-pressure delay an access pays before its first
// line: the fault plan's draw when one is armed, else 0. It models
// transient cache-pressure interference, a co-runner evicting lines. Pure
// timing — it never touches cache or directory state, so every coherence
// invariant holds with the fault armed. Every access but WriteNT draws it
// first and pays it as its own event only when it is positive (see
// lineWalk.begin).
//
//ccnic:noalloc
func (a *Agent) Pressure() sim.Time {
	if f := a.sys.flt; f != nil {
		return f.CachePressure() //ccnic:alloc-ok seeded PRNG draw; audited allocation-free
	}
	return 0
}

func (a *Agent) serialAccess(p *sim.Proc, addr mem.Addr, size int, write, train bool) sim.Time {
	total, _ := a.walker(walkSerial, write, train).span(addr, size).run(p)
	return total
}

// StreamRead performs a pipelined sequential load of [addr, addr+size):
// the first line pays full latency, subsequent lines are bandwidth-limited,
// modeling the memory-level parallelism of streaming copies.
func (a *Agent) StreamRead(p *sim.Proc, addr mem.Addr, size int) sim.Time {
	return a.stream(p, addr, size, false)
}

// StreamWrite performs a pipelined sequential store of [addr, addr+size)
// using regular cacheable (write-back, RFO) stores.
func (a *Agent) StreamWrite(p *sim.Proc, addr mem.Addr, size int) sim.Time {
	return a.stream(p, addr, size, true)
}

func (a *Agent) stream(p *sim.Proc, addr mem.Addr, size int, write bool) sim.Time {
	total, _ := a.walker(walkOverlap, write, false).span(addr, size).run(p)
	// Train the prefetcher on the stream's start so buffer-to-buffer
	// strides are observed (the within-stream lines are already pipelined).
	a.trainPrefetch(mem.LineOf(addr), write)
	return total
}

// GatherRead loads a set of scattered lines with full memory-level
// parallelism: the first miss pays demand latency, the rest overlap at
// streaming bandwidth. It models burst processing of descriptor groups.
func (a *Agent) GatherRead(p *sim.Proc, lines []mem.Addr) sim.Time {
	return a.gather(p, lines, false)
}

// ScatterWrite stores to a set of scattered lines with full overlap.
func (a *Agent) ScatterWrite(p *sim.Proc, lines []mem.Addr) sim.Time {
	return a.gather(p, lines, true)
}

func (a *Agent) gather(p *sim.Proc, lines []mem.Addr, write bool) sim.Time {
	total, _ := a.walker(walkOverlap, write, false).list(lines).run(p)
	return total
}

// bwCost is the amortized per-line cost of an overlapped access: remote
// streaming bandwidth when a line of data crossed the interconnect, local
// store/copy bandwidth otherwise. The costs are precomputed at agent
// creation — bwCost runs once per streamed line, and the cached integer
// result is bit-identical to recomputing the division.
//
//ccnic:noalloc
func (a *Agent) bwCost(dataCrossed bool) sim.Time {
	if dataCrossed {
		return a.remoteLineCost
	}
	return a.coreLineCost
}

// WriteNT performs nontemporal (cache-bypassing) stores to
// [addr, addr+size), invalidating any cached copies and writing directly to
// the home memory. This is the UPI analog of the PCIe MMIO/WC data path.
func (a *Agent) WriteNT(p *sim.Proc, addr mem.Addr, size int) sim.Time {
	total, _ := a.walker(walkNT, true, false).span(addr, size).run(p)
	return total
}

// walkKind is a line walk's per-line cost rule (see lineWalk.issue).
type walkKind uint8

const (
	walkSerial  walkKind = iota // Read, Write, Poll
	walkOverlap                 // StreamRead/Write, GatherRead/ScatterWrite
	walkAsync                   // WriteAsync
	walkNT                      // WriteNT
)

// lineWalk is one access in flight. It starts with the access's
// cache-pressure draw, paid as its own charge when positive (every kind
// but NT draws one); then its lines run one after another, each issued
// (the coherence walk at issue time), charged its cost, then finished (the
// read's transition at completion, prefetcher training). run starts the
// walk on the process; every later charge runs as a sim.Proc.Spin step,
// advance, which finishes the line before it and issues the next in that
// same event. The clock, the event count, the probe and the run-queue
// order therefore see exactly what a Sleep per charge would have made them
// see, without a coroutine switch into the process per line.
//
// advance runs outside every process, so nothing it calls may block:
// access, commitRead, trainPrefetch, dropEverywhere and the link's charges
// only compute and record.
type lineWalk struct {
	a            *Agent
	kind         walkKind
	write, train bool // train feeds each finished line to the prefetcher
	// drawing is set while the cache-pressure charge is in flight: line 0
	// issues once it elapses.
	drawing bool

	// The walk covers lines when non-nil, borrowed as the caller's loop
	// would borrow it; otherwise the lines of [addr, end).
	lines     []mem.Addr
	addr, end mem.Addr

	i, n             int      // the line in flight, and the line count
	line             mem.Addr // lines[i]
	total, visibleAt sim.Time // summed line costs; WriteAsync's visibility

	// step is advance, bound once when the walker is made: a method value
	// made per walk would allocate.
	step func() (sim.Time, bool)
	next *lineWalk // the agent's free list
}

// walker takes a walker off the agent's free list. One agent may have
// several walks in flight, from different processes.
//
//ccnic:noalloc
func (a *Agent) walker(kind walkKind, write, train bool) *lineWalk {
	w := a.walks
	if w == nil {
		w = &lineWalk{a: a} //ccnic:alloc-ok free-list warm-up: one walker per concurrent walk
		w.step = w.advance  //ccnic:alloc-ok bound once, when the walker is made
	} else {
		a.walks = w.next
	}
	w.kind, w.write, w.train, w.i = kind, write, train, 0
	return w
}

// span walks the lines of [addr, addr+size); a size below one byte walks
// addr's line.
//
//ccnic:noalloc
func (w *lineWalk) span(addr mem.Addr, size int) *lineWalk {
	w.addr, w.end = addr, addr+mem.Addr(max(size, 1))
	w.n = int((mem.LineOf(w.end-1)-mem.LineOf(addr))/mem.LineSize) + 1
	return w
}

// list walks lines in order.
//
//ccnic:noalloc
func (w *lineWalk) list(lines []mem.Addr) *lineWalk {
	w.lines, w.n = lines, len(lines)
	return w
}

// run performs the walk on p and returns the walker to the agent's free
// list. A one-line walk with no pressure charge sleeps and finishes on p,
// with no spin step.
func (w *lineWalk) run(p *sim.Proc) (total, visibleAt sim.Time) {
	d, ok := w.begin()
	switch {
	case !ok:
	case w.n == 1 && !w.drawing:
		p.Sleep(d)
		w.finish()
	default:
		p.Spin(d, w.step)
	}
	total, visibleAt = w.total, w.visibleAt
	w.release()
	return total, visibleAt
}

// release returns the walker to the agent's free list.
//
//ccnic:noalloc
func (w *lineWalk) release() {
	a := w.a
	w.lines, w.total, w.visibleAt, w.drawing = nil, 0, 0, false
	w.next, a.walks = a.walks, w
}

// begin starts the walk at the current instant: it draws the cache
// pressure, returning it as the first charge when positive, or else issues
// line 0 and returns its cost. A walk of no lines with nothing to pay ends
// here, reporting false.
//
//ccnic:noalloc
func (w *lineWalk) begin() (sim.Time, bool) {
	if w.kind != walkNT {
		if d := w.a.Pressure(); d > 0 {
			w.drawing = true
			return d, true
		}
	}
	return w.first()
}

// first issues line 0 and returns its cost, or reports false for a walk of
// no lines.
//
//ccnic:noalloc
func (w *lineWalk) first() (sim.Time, bool) {
	if w.n == 0 {
		return 0, false
	}
	return w.issue(), true
}

// Access is a coherent access in step form, for a spin step (see
// sim.Proc.Spin) that issues an access on a process it does not run on:
// the walk of a Read, Poll, Write, WriteAsync, GatherRead or ScatterWrite,
// with the process's sleeps taken out. A start method (Read, Poll, Write,
// WriteAsync, Gather) begins the access at the current instant and returns
// its first charge: the cache-pressure draw when positive, else line 0's
// cost. At each later wake, Advance completes the charge in flight and
// issues the next, in that same event. The clock, the event count, the
// probe and the run-queue order see exactly what the process-side access
// would have made them see, provided the caller sleeps each returned cost
// as one event. A start or Advance that reports false has ended the
// access, in that event. The zero Access is no access; one Access runs
// one access at a time.
type Access struct {
	w       *lineWalk
	visible sim.Time
}

// Read starts a Read of [addr, addr+size).
//
//ccnic:noalloc
func (acc *Access) Read(a *Agent, addr mem.Addr, size int) (sim.Time, bool) {
	return acc.start(a.walker(walkSerial, false, true).span(addr, size))
}

// Poll starts a Poll of [addr, addr+size).
//
//ccnic:noalloc
func (acc *Access) Poll(a *Agent, addr mem.Addr, size int) (sim.Time, bool) {
	return acc.start(a.walker(walkSerial, false, false).span(addr, size))
}

// Write starts a Write of [addr, addr+size).
//
//ccnic:noalloc
func (acc *Access) Write(a *Agent, addr mem.Addr, size int) (sim.Time, bool) {
	return acc.start(a.walker(walkSerial, true, true).span(addr, size))
}

// WriteAsync starts a WriteAsync of [addr, addr+size); Visible returns its
// visibility once it has ended.
//
//ccnic:noalloc
func (acc *Access) WriteAsync(a *Agent, addr mem.Addr, size int) (sim.Time, bool) {
	return acc.start(a.walker(walkAsync, true, true).span(addr, size))
}

// Gather starts a GatherRead of lines, or with write a ScatterWrite. The
// access borrows lines until it ends; an empty list still draws the
// cache pressure, as GatherRead does.
//
//ccnic:noalloc
func (acc *Access) Gather(a *Agent, lines []mem.Addr, write bool) (sim.Time, bool) {
	return acc.start(a.walker(walkOverlap, write, false).list(lines))
}

// start begins walk w.
//
//ccnic:noalloc
func (acc *Access) start(w *lineWalk) (sim.Time, bool) {
	acc.w = w
	if d, ok := w.begin(); ok {
		return d, true
	}
	acc.end()
	return 0, false
}

// Advance completes the charge in flight, then issues the next and returns
// its cost, or, after the last, ends the access and reports false. An
// ended access's walker is back on the agent's free list.
//
//ccnic:noalloc
func (acc *Access) Advance() (sim.Time, bool) {
	if d, more := acc.w.advance(); more {
		return d, true
	}
	acc.end()
	return 0, false
}

// end records the ended access's visibility and releases its walker.
//
//ccnic:noalloc
func (acc *Access) end() {
	w := acc.w
	acc.visible = max(w.visibleAt, w.a.sys.k.Now())
	acc.w = nil
	w.release()
}

// Live reports whether an access is in flight: started, and not yet ended.
//
//ccnic:noalloc
func (acc *Access) Live() bool { return acc.w != nil }

// Visible returns when an ended WriteAsync's data became globally visible,
// as Agent.WriteAsync returns it.
//
//ccnic:noalloc
func (acc *Access) Visible() sim.Time { return acc.visible }

// advance is the walk's spin step: it issues line 0 once the pressure
// charge has elapsed, or else finishes the line in flight and issues the
// next, or ends the walk after the last.
//
//ccnic:noalloc
func (w *lineWalk) advance() (sim.Time, bool) {
	if w.drawing {
		w.drawing = false
		return w.first()
	}
	w.finish()
	if w.i++; w.i == w.n {
		return 0, false
	}
	return w.issue(), true
}

// issue starts line i at the current instant and returns its cost:
//
//   - serial: its access latency;
//   - overlap: the first line's latency; later lines pay the larger of
//     their bandwidth cost and link queueing, plus any wait behind an
//     in-flight store;
//   - async store: the store buffer's issue cost, with the data visible
//     once the access latency has passed;
//   - NT: the nontemporal store's serialization, or its weighted link time
//     when the line is homed remotely and that is longer.
//
//ccnic:noalloc
func (w *lineWalk) issue() sim.Time {
	a, s := w.a, w.a.sys
	if w.lines != nil {
		w.line = w.lines[w.i]
	} else {
		w.line = mem.LineOf(w.addr) + mem.Addr(w.i)*mem.LineSize
	}
	line := w.line
	var cost sim.Time
	if w.kind == walkNT {
		s.dropEverywhere(line, a.socket)
		cost = s.ntLineCost
		if home := mem.Home(line); home != a.socket {
			q := s.link.Weighted(s.k.Now(), interconn.DirFromTo(a.socket, home),
				mem.LineSize, s.plat.NTWritePenalty)
			cost = max(cost, q)
			s.counters[a.socket].RemoteNT++
		}
		w.total += cost
		return cost
	}
	// A store covering the whole line takes ownership without the data.
	full := w.write && (w.lines != nil || line >= w.addr && line+mem.LineSize <= w.end)
	r := s.access(a, line, w.write, false, full)
	cost = r.lat
	switch {
	case w.kind == walkOverlap && w.i > 0:
		cost = max(a.bwCost(r.data), r.queue) + r.stall
	case w.kind == walkAsync:
		// The store buffer hides the transfer latency but not the wait
		// behind earlier in-flight stores to the same line: a backed-up
		// line fills the buffer and throttles the core.
		cost = min(r.lat-r.stall, StoreIssueCost) + r.stall
		w.visibleAt = max(w.visibleAt, s.k.Now()+r.lat)
	}
	w.total += cost
	return cost
}

// finish completes the line in flight once its cost has elapsed: a demand
// read's coherence transition, and the prefetcher's training.
//
//ccnic:noalloc
func (w *lineWalk) finish() {
	a := w.a
	if !w.write {
		a.sys.commitRead(a, w.line)
	}
	if w.train {
		a.trainPrefetch(w.line, w.write)
	}
}

// Exec charges plain CPU execution time (instructions that do not miss).
//
//ccnic:noalloc
func (a *Agent) Exec(p *sim.Proc, d sim.Time) { p.Sleep(d) }

// trainPrefetch feeds the stride detector and issues a hardware prefetch of
// the predicted next line when a stride is confirmed twice in a row.
// Prefetch loads demote a remote dirty owner (non-migratory); prefetch
// stores perform a full RFO, acquiring ownership early.
//
//ccnic:noalloc
func (a *Agent) trainPrefetch(line mem.Addr, write bool) {
	s := a.sys
	if !s.prefetch[a.socket] {
		return
	}
	const maxStride = 256
	// prefetchDegree is how many strides ahead the prefetcher runs once a
	// stream is confirmed (hardware stream prefetchers ramp to several
	// outstanding lines).
	const prefetchDegree = 3
	last, stride, have := &a.lastRead, &a.readStride, &a.havePrevRead
	if write {
		last, stride, have = &a.lastWrite, &a.writeStride, &a.havePrevWrite
	}
	if *have {
		cur := int64(line) - int64(*last)
		if cur != 0 && cur >= -maxStride && cur <= maxStride {
			if cur == *stride {
				for k := int64(1); k <= prefetchDegree; k++ {
					target := mem.Addr(int64(line) + k*cur)
					if mem.Home(target) == mem.Home(line) && a.l2.peek(target) == nil {
						s.access(a, mem.LineOf(target), write, true, false)
					}
				}
			}
			*stride = cur
		} else {
			*stride = 0
		}
	}
	*last = line
	*have = true
}
