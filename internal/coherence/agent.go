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
}

// Name returns the agent name.
func (a *Agent) Name() string { return a.name }

// Socket returns the agent's socket.
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

// accessLine performs the UPI/MESIF coherence protocol for a single line —
// the access method of the UPI backend (callers go through the protocol
// interface; the CXL equivalent lives in cxl.go).
// write selects RFO semantics; fullLine marks stores that overwrite the
// entire line, which acquire ownership without fetching the stale data
// (the ItoM / full-line-store optimization — data then crosses the
// interconnect once per producer-consumer cycle, not twice); quiet marks
// hardware prefetches, which follow different migration rules and charge no
// demand latency.
func (s *System) accessLine(a *Agent, line mem.Addr, write, quiet, fullLine bool) result {
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
			lat, crossed = s.invalidateOthers(d, a.l2, now)
			if crossed {
				ctr.RemoteRFO++
			}
		}
		d.removeSharer(a.l2)
		for _, c := range d.sharers {
			c.drop(line)
		}
		d.sharers = d.sharers[:0]
		d.owner = a.l2
		e.state = Modified
		if commit := now + lat; commit > d.pendingUntil {
			d.pendingUntil = commit
		}
		s.lineEvent(line)
		return result{lat: lat, crossed: crossed}
	}

	// L2 miss: find the data.
	d := s.ent(line)
	var lat sim.Time
	var queue sim.Time
	crossed := false
	home := mem.Home(line)

	// An in-flight store by the current owner blocks forwarding: the
	// requester stalls until the store commits, then pays its own access.
	var stall sim.Time
	if d.pendingUntil > now {
		stall = d.pendingUntil - now
	}

	dataMoved := false
	transfer := func(srcSocket int) {
		dir := interconn.DirFromTo(srcSocket, a.socket)
		queue = s.link.Data(now, dir, mem.LineSize)
		crossed = true
		dataMoved = true
		if home == a.socket {
			// Reader-homed: the home controller issues a useless
			// speculative memory read alongside the snoop.
			lat = p.RemoteLH
			ctr.SpecMemRead++
		} else {
			lat = p.RemoteRH
		}
		lat += queue
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
		if fullLine && write {
			// ItoM: invalidate the stale copy without moving data.
			if owner.socket != a.socket {
				dir := interconn.DirFromTo(a.socket, owner.socket)
				s.link.Ctrl(now, dir)
				s.link.Ctrl(now, dir.Opposite())
				lat = p.RemoteInval
				crossed = true
			} else {
				lat = p.LLCHit
			}
		} else if owner.socket == a.socket {
			if owner.isLLC {
				lat = p.LLCHit
			} else {
				lat = p.LocalFwd
			}
		} else {
			transfer(owner.socket)
		}
		switch {
		case write:
			// RFO with migratory dirty forwarding (or ItoM above).
			owner.drop(line)
			d.owner = a.l2
			a.l2.insertMiss(line, Modified)
		case quiet:
			// Prefetch read: demote the owner to Shared (writing
			// the dirty data back to home) and fill Shared.
			d.owner = nil
			if owner.isLLC {
				owner.drop(line)
			} else {
				owner.touch(line, Shared)
				d.sharers = append(d.sharers, owner)
			}
			d.sharers = append(d.sharers, a.l2)
			a.l2.insertMiss(line, Shared)
			if home != owner.socket {
				s.counters[owner.socket].Writebacks++
			}
		}
	case len(d.sharers) > 0:
		src := s.nearestSharer(d, a.socket)
		if fullLine && write {
			lat = 0 // invalidation cost charged below
		} else if src.socket == a.socket {
			if src.isLLC {
				lat = p.LLCHit
			} else {
				lat = p.LocalFwd
			}
		} else {
			transfer(src.socket)
		}
		if write {
			ilat, icrossed := s.invalidateOthers(d, a.l2, now)
			if ilat > lat {
				lat = ilat
			}
			crossed = crossed || icrossed
			for _, c := range d.sharers {
				c.drop(line)
			}
			d.sharers = d.sharers[:0]
			d.owner = a.l2
			a.l2.insertMiss(line, Modified)
		} else if quiet {
			if src == s.llc[a.socket] {
				src.drop(line)
				d.removeSharer(src)
			}
			d.sharers = append(d.sharers, a.l2)
			a.l2.insertMiss(line, Shared)
		}
	default: // memory
		switch {
		case fullLine && write:
			// ItoM from memory: ownership grant, no data fetch. A
			// remote home still answers the directory request.
			if home == a.socket {
				lat = p.LLCHit
			} else {
				dir := interconn.DirFromTo(home, a.socket)
				s.link.Ctrl(now, dir)
				s.link.Ctrl(now, dir.Opposite())
				lat = p.RemoteInval
				crossed = true
			}
		case home == a.socket:
			lat = p.LocalDRAM
		default:
			dir := interconn.DirFromTo(home, a.socket)
			queue = s.link.Data(now, dir, mem.LineSize)
			lat = p.RemoteDRAM + queue
			crossed = true
			dataMoved = true
		}
		if write {
			d.owner = a.l2
			a.l2.insertMiss(line, Modified)
		} else if quiet {
			d.sharers = append(d.sharers, a.l2)
			a.l2.insertMiss(line, Shared)
		}
	}

	lat += stall
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
	s.lineEvent(line)
	return result{lat: lat, crossed: crossed, data: dataMoved, queue: queue, stall: stall}
}

// commitRead applies a demand read's state transition at completion time,
// based on the directory's state at that moment (the line may have moved
// while the fetch was in flight; the resolution is defensive). It is the
// UPI backend's commitRead method.
func (s *System) commitRead(a *Agent, line mem.Addr) {
	if a.l2.peek(line) != nil {
		return // already resident (raced with another fill)
	}
	d := s.ent(line)
	switch {
	case d.owner != nil:
		owner := d.owner
		switch {
		case s.mutation == MutateStaleMigration:
			// Deliberate defect (engine self-tests): migrate ownership
			// without invalidating the previous owner's copy.
			d.owner = a.l2
			a.l2.insertMiss(line, Modified)
		case s.noMigrate:
			// Ablation: demote the owner to Shared (writing the dirty
			// data back to home) and fill the reader Shared. The
			// owner's next store then pays an upgrade/invalidate
			// crossing — the extra roundtrip traffic Fig 8/17 measure.
			d.owner = nil
			if owner.isLLC {
				owner.drop(line)
			} else {
				owner.touch(line, Shared)
				d.sharers = append(d.sharers, owner)
			}
			d.sharers = append(d.sharers, a.l2)
			a.l2.insertMiss(line, Shared)
			if mem.Home(line) != owner.socket {
				s.counters[owner.socket].Writebacks++
			}
		default:
			// Migratory dirty forwarding: ownership moves to the reader.
			owner.drop(line)
			d.owner = a.l2
			a.l2.insertMiss(line, Modified)
		}
	case len(d.sharers) > 0:
		if llc := s.llc[a.socket]; d.holds(llc) {
			// Victim-cache semantics: the line moves up.
			llc.drop(line)
			d.removeSharer(llc)
		}
		d.sharers = append(d.sharers, a.l2)
		a.l2.insertMiss(line, Shared)
	default:
		d.sharers = append(d.sharers, a.l2)
		a.l2.insertMiss(line, Shared)
	}
	s.lineEvent(line)
}

// invalidateOthers snoops out every copy except keeper's, returning the
// snoop latency and whether the snoop crossed the interconnect. It does not
// mutate the directory; callers drop copies themselves.
func (s *System) invalidateOthers(d *dirEntry, keeper *Cache, now sim.Time) (sim.Time, bool) {
	lat := sim.Time(0)
	crossed := false
	seenRemote := [2]bool{}
	consider := func(c *Cache) {
		if c == keeper {
			return
		}
		if c.socket != keeper.socket {
			if !seenRemote[c.socket] {
				seenRemote[c.socket] = true
				dir := interconn.DirFromTo(keeper.socket, c.socket)
				s.link.Ctrl(now, dir)
				s.link.Ctrl(now, dir.Opposite())
				crossed = true
			}
			if s.plat.RemoteInval > lat {
				lat = s.plat.RemoteInval
			}
		} else if s.plat.LLCHit > lat {
			lat = s.plat.LLCHit // local snoop via the caching agent
		}
	}
	if d.owner != nil {
		consider(d.owner)
	}
	for _, c := range d.sharers {
		consider(c)
	}
	return lat, crossed
}

// nearestSharer picks the lowest-cost source among clean sharers: an L2 on
// the requester's socket, then the requester-socket LLC, then any remote
// cache.
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
	a.pressure(p)
	if size <= 0 {
		size = 1
	}
	visibleAt = p.Now()
	mem.Lines(addr, size, func(line mem.Addr) {
		full := line >= addr && line+mem.LineSize <= addr+mem.Addr(size)
		r := a.sys.proto.access(a, line, true, false, full)
		// The store buffer hides the transfer latency but not the wait
		// behind earlier in-flight stores to the same line: a backed-up
		// line fills the buffer and throttles the core.
		issue := r.lat - r.stall
		if issue > StoreIssueCost {
			issue = StoreIssueCost
		}
		issue += r.stall
		if v := p.Now() + r.lat; v > visibleAt {
			visibleAt = v
		}
		p.Sleep(issue)
		a.trainPrefetch(line, true)
	})
	if v := p.Now(); v > visibleAt {
		visibleAt = v
	}
	return visibleAt
}

// SoftPrefetch issues an explicit software prefetch of one line (the
// driver-inserted rte_prefetch0 of a poll loop's next descriptor line). It
// costs the core nothing and fills the line Shared; it works regardless of
// the hardware prefetcher setting.
func (a *Agent) SoftPrefetch(addr mem.Addr) {
	line := mem.LineOf(addr)
	if a.l2.peek(line) != nil {
		return
	}
	a.sys.proto.access(a, line, false, true, false)
}

// Poll performs a load that does not train the hardware prefetcher —
// modeling descriptor-ring polling, whose repeated same-line loads do not
// establish a useful stride.
func (a *Agent) Poll(p *sim.Proc, addr mem.Addr, size int) sim.Time {
	return a.serialAccess(p, addr, size, false, false)
}

// pressure models transient cache-pressure interference when a fault
// plan arms it: a co-runner evicting lines costs the access extra
// latency. Pure timing — it never touches cache or directory state, so
// every coherence invariant holds with the fault armed.
func (a *Agent) pressure(p *sim.Proc) {
	if f := a.sys.flt; f != nil {
		if d := f.CachePressure(); d > 0 {
			p.Sleep(d)
		}
	}
}

func (a *Agent) serialAccess(p *sim.Proc, addr mem.Addr, size int, write, train bool) sim.Time {
	a.pressure(p)
	if size <= 0 {
		size = 1
	}
	total := sim.Time(0)
	mem.Lines(addr, size, func(line mem.Addr) {
		full := write && line >= addr && line+mem.LineSize <= addr+mem.Addr(size)
		r := a.sys.proto.access(a, line, write, false, full)
		total += r.lat
		p.Sleep(r.lat)
		if !write {
			a.sys.proto.commitRead(a, line)
		}
		if train {
			a.trainPrefetch(line, write)
		}
	})
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
	a.pressure(p)
	if size <= 0 {
		size = 1
	}
	total := sim.Time(0)
	first := true
	firstLine := mem.LineOf(addr)
	mem.Lines(addr, size, func(line mem.Addr) {
		full := write && line >= addr && line+mem.LineSize <= addr+mem.Addr(size)
		r := a.sys.proto.access(a, line, write, false, full)
		var cost sim.Time
		if first {
			cost = r.lat
			first = false
		} else {
			cost = a.bwCost(r.data)
			if r.queue > cost {
				cost = r.queue
			}
			cost += r.stall
		}
		total += cost
		p.Sleep(cost)
		if !write {
			a.sys.proto.commitRead(a, line)
		}
	})
	// Train the prefetcher on the stream's start so buffer-to-buffer
	// strides are observed (the within-stream lines are already pipelined).
	a.trainPrefetch(firstLine, write)
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
	a.pressure(p)
	total := sim.Time(0)
	for i, line := range lines {
		r := a.sys.proto.access(a, line, write, false, write)
		var cost sim.Time
		if i == 0 {
			cost = r.lat
		} else {
			cost = a.bwCost(r.data)
			if r.queue > cost {
				cost = r.queue
			}
			cost += r.stall
		}
		total += cost
		p.Sleep(cost)
		if !write {
			a.sys.proto.commitRead(a, line)
		}
	}
	return total
}

// bwCost is the amortized per-line cost of an overlapped access: remote
// streaming bandwidth when a line of data crossed the interconnect, local
// store/copy bandwidth otherwise. The costs are precomputed at agent
// creation — bwCost runs once per streamed line, and the cached integer
// result is bit-identical to recomputing the division.
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
	if size <= 0 {
		size = 1
	}
	s := a.sys
	total := sim.Time(0)
	mem.Lines(addr, size, func(line mem.Addr) {
		now := s.k.Now()
		s.dropEverywhere(line, a.socket)
		home := mem.Home(line)
		perLine := s.ntLineCost
		if home != a.socket {
			q := s.link.Weighted(now, interconn.DirFromTo(a.socket, home),
				mem.LineSize, s.plat.NTWritePenalty)
			if q > perLine {
				perLine = q
			}
			s.counters[a.socket].RemoteNT++
		}
		total += perLine
		p.Sleep(perLine)
	})
	return total
}

// Flush invalidates [addr, addr+size) from every cache (CLFLUSHOPT),
// writing dirty data back to home memory. As the paper notes (§3.3), it is
// expensive: per-line cost is charged serially.
func (a *Agent) Flush(p *sim.Proc, addr mem.Addr, size int) sim.Time {
	if size <= 0 {
		size = 1
	}
	s := a.sys
	const flushCost = 25 * sim.Nanosecond
	total := sim.Time(0)
	mem.Lines(addr, size, func(line mem.Addr) {
		d := s.lookup(line)
		cost := flushCost
		if d != nil {
			if d.hasRemote(a.socket) {
				cost += s.plat.RemoteInval
			}
			if d.owner != nil && mem.Home(line) != d.owner.socket {
				s.link.Data(s.k.Now(), interconn.DirFromTo(d.owner.socket, mem.Home(line)), mem.LineSize)
				s.counters[d.owner.socket].Writebacks++
			}
		}
		s.dropEverywhere(line, a.socket)
		total += cost
		p.Sleep(cost)
	})
	return total
}

// Exec charges plain CPU execution time (instructions that do not miss).
//
//ccnic:noalloc
func (a *Agent) Exec(p *sim.Proc, d sim.Time) { p.Sleep(d) }

// trainPrefetch feeds the stride detector and issues a hardware prefetch of
// the predicted next line when a stride is confirmed twice in a row.
// Prefetch loads demote a remote dirty owner (non-migratory); prefetch
// stores perform a full RFO, acquiring ownership early.
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
						s.proto.access(a, mem.LineOf(target), write, true, false)
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
