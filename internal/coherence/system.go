package coherence

import (
	"fmt"

	"ccnic/internal/fault"
	"ccnic/internal/interconn"
	"ccnic/internal/mem"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
)

// Counters aggregates the offcore-response-style protocol counters the paper
// reads with perf (Fig 17), per requesting socket.
type Counters struct {
	RemoteRead  int64 // demand reads served across the interconnect
	RemoteRFO   int64 // reads-for-ownership / upgrades crossing the interconnect
	SpecMemRead int64 // speculative home-memory reads (reader-homed penalty; UPI only)
	RemoteNT    int64 // nontemporal stores crossing the interconnect
	Prefetches  int64 // hardware prefetch fills issued
	Writebacks  int64 // dirty evictions written back across the interconnect
	BiasFlips   int64 // device reclaims of host-bias HDM lines (CXL only)
	// StallTime accumulates demand-access waits behind in-flight stores
	// (diagnostic: where commit serialization bites).
	StallTime sim.Time
}

// dirEntry is the global directory state for one line: its slot names each
// holder's cache entry, so it is also the caches' residency index.
// Invariant: owner is non-nil only when exactly one cache holds the line
// Modified, in which case sharers is empty. Sharer order is significant:
// nearestSharer takes the first match, and removal swaps the last sharer in.
type dirEntry struct {
	owner   *entry
	sharers []*entry
	// pendingUntil is when the most recent ownership-acquiring store
	// commits globally. A read by another agent before then stalls: the
	// line cannot be forwarded while the RFO is in flight. This is what
	// makes a producer-consumer handoff cost a full RFO plus a fetch
	// (Fig 8's separate-line penalty), while a writer that already owns
	// the line (co-located layouts) commits locally.
	pendingUntil sim.Time
	// present marks the slot live. Entries live in the System's line table,
	// materialized on first touch; a gc'd entry stays in place with
	// present=false, preserving its sharers capacity for the next use of
	// the same line — line churn allocates nothing in steady state.
	present bool
	// cxl is the CXL protocol's private byte for the line (cxl.go): the
	// host snoop filter's FilterState for a host-homed line, the BiasState
	// of a device-homed one; zero under UPI. It is not part of the entry's
	// liveness: neither gc nor ent touches it, so a filter entry or a bias
	// outlives the line's last cached copy. It sits in the struct's padding.
	cxl uint8
}

// System is the two-socket coherent memory system.
type System struct {
	k     *sim.Kernel
	plat  *platform.Platform
	space *mem.Space
	link  *interconn.Link
	// cxl is the CXL protocol's private state (snoop filter, bias map,
	// whose per-line byte is dirEntry.cxl); nil under UPI. The protocol enters the shared walk only at the decision
	// points in protocol.go.
	cxl *cxlState

	llc    [2]*Cache
	agents [2][]*Agent
	dir    lineTable // the directory, one slot per touched line
	// sharerSlab holds sharer arrays carved but not yet handed out.
	sharerSlab []*entry
	counters   [2]Counters
	prefetch   [2]bool

	// ntLineCost is the serialization time of one nontemporal-store line,
	// precomputed from the platform's NT bandwidth.
	ntLineCost sim.Time

	// probe is the optional online validation hook (internal/check); nil
	// in normal runs, so the enabled checks cost one branch per event.
	probe Probe
	// noMigrate disables migratory dirty forwarding (Fig 8/17 ablation).
	noMigrate bool
	// mutation arms a deliberate protocol defect for engine self-tests.
	mutation Mutation
	// flt is the optional fault injector (internal/fault); nil in normal
	// runs. Faults perturb timing only, never coherence state.
	flt *fault.Injector
}

// NewSystem builds a coherent memory system for the given platform on the
// given kernel, running the default UPI protocol. Hardware prefetching starts
// disabled on both sockets (the experiments enable it explicitly, as the
// paper does).
func NewSystem(k *sim.Kernel, plat *platform.Platform) *System {
	return NewSystemProto(k, plat, ProtoUPI)
}

// NewSystemProto builds a coherent memory system running the given
// protocol. The interconnect link is provisioned from the protocol's
// bandwidth/flit parameters on the platform. An unknown protocol panics.
func NewSystemProto(k *sim.Kernel, plat *platform.Platform, pr Protocol) *System {
	s := &System{
		k:     k,
		plat:  plat,
		space: mem.NewSpace(),
		link:  interconn.NewWithProfile(linkProfile(plat, pr)),

		ntLineCost: sim.Time(float64(mem.LineSize) / plat.PCIe.NTStoreBW * float64(sim.Nanosecond)),
	}
	if pr == ProtoCXL {
		s.cxl = &cxlState{s: s}
	}
	for i := 0; i < 2; i++ {
		s.llc[i] = newCache(s, fmt.Sprintf("llc%d", i), i, plat.LLCBytes, true)
	}
	return s
}

// Kernel returns the simulation kernel.
//
//ccnic:noalloc
func (s *System) Kernel() *sim.Kernel { return s.k }

// Platform returns the platform parameters.
//
//ccnic:noalloc
func (s *System) Platform() *platform.Platform { return s.plat }

// Space returns the machine's address space allocator.
func (s *System) Space() *mem.Space { return s.space }

// Link returns the coherent-interconnect link model; its Label reports the
// protocol it carries ("UPI", "CXL").
func (s *System) Link() *interconn.Link { return s.link }

// SetFaults arms (or, with nil, disarms) the fault injector on this
// system and its interconnect link. Must be called before the workload
// starts so the fault schedule is a pure function of (seed, plan).
func (s *System) SetFaults(f *fault.Injector) {
	s.flt = f
	s.link.SetFaults(f)
}

// Faults returns the armed fault injector, or nil. Device models and
// drivers built on this system consult it at their opportunity points.
//
//ccnic:noalloc
func (s *System) Faults() *fault.Injector { return s.flt }

// SetPrefetch enables or disables hardware prefetching on a socket.
func (s *System) SetPrefetch(socket int, on bool) { s.prefetch[socket] = on }

// Counters returns a copy of the protocol counters for a socket.
func (s *System) Counters(socket int) Counters { return s.counters[socket] }

// ResetCounters zeroes protocol counters on both sockets and link statistics.
func (s *System) ResetCounters() {
	s.counters[0], s.counters[1] = Counters{}, Counters{}
	s.link.ResetStats()
}

// NewAgent creates a core-level agent (a CPU core with a private L2) on the
// given socket. The number of agents per socket is not capped; experiments
// are responsible for respecting platform core counts.
func (s *System) NewAgent(socket int, name string) *Agent {
	if socket != 0 && socket != 1 {
		panic("coherence: invalid socket")
	}
	a := &Agent{
		sys:    s,
		socket: socket,
		name:   name,
		l2:     newCache(s, name+".l2", socket, s.plat.L2Bytes, false),

		coreLineCost:   sim.Time(float64(mem.LineSize) / s.plat.CoreStreamBW * float64(sim.Nanosecond)),
		remoteLineCost: sim.Time(float64(mem.LineSize) / s.plat.RemoteStreamBW * float64(sim.Nanosecond)),
	}
	s.agents[socket] = append(s.agents[socket], a)
	return a
}

// lookup returns the live directory entry for a line, or nil. It is the
// read-only counterpart of ent and never materializes table memory.
//
//ccnic:noalloc
func (s *System) lookup(line mem.Addr) *dirEntry {
	d := s.dir.peek(line)
	if d == nil || !d.present {
		return nil
	}
	return d
}

// ent returns (creating if needed) the directory entry for a line. Slots are
// reused in place, so line churn (ring buffers cycling through the address
// space) allocates nothing in steady state.
//
//ccnic:noalloc
func (s *System) ent(line mem.Addr) *dirEntry {
	d := s.dir.at(line)
	if !d.present {
		d.present = true
		d.pendingUntil = 0 // owner/sharers already cleared by gc
	}
	return d
}

// gc retires an empty directory entry; its slot (and sharers capacity) stays
// in place for the line's next use.
//
//ccnic:noalloc
func (s *System) gc(line mem.Addr, d *dirEntry) {
	if d.owner == nil && len(d.sharers) == 0 {
		d.present = false
	}
}

//ccnic:noalloc
func (d *dirEntry) removeSharer(e *entry) {
	for i, se := range d.sharers {
		if se == e {
			d.sharers[i] = d.sharers[len(d.sharers)-1]
			d.sharers = d.sharers[:len(d.sharers)-1]
			return
		}
	}
}

// hasRemote reports whether any copy lives on a socket other than sock.
//
//ccnic:noalloc
func (d *dirEntry) hasRemote(sock int) bool {
	if d.owner != nil && d.owner.c.socket != sock {
		return true
	}
	for _, e := range d.sharers {
		if e.c.socket != sock {
			return true
		}
	}
	return false
}

// find returns c's entry for the line, or nil: the owner's, else c's among
// the sharers.
//
//ccnic:noalloc
func (d *dirEntry) find(c *Cache) *entry {
	if d.owner != nil && d.owner.c == c {
		return d.owner
	}
	for _, e := range d.sharers {
		if e.c == c {
			return e
		}
	}
	return nil
}

// evicted takes victim v, just unlinked from its cache, out of the
// directory. L2 victims (clean or dirty) move into the socket's LLC; LLC
// dirty victims write back to the home memory, crossing the link if homed
// remotely.
//
//ccnic:noalloc
func (s *System) evicted(v *entry) {
	c, line, st := v.c, v.line, v.state
	d := s.ent(line)
	if c.isLLC {
		if d.owner == v {
			d.owner = nil
			if home := mem.Home(line); home != c.socket {
				s.link.Data(s.k.Now(), interconn.DirFromTo(c.socket, home), mem.LineSize)
				s.counters[c.socket].Writebacks++
			}
		} else {
			d.removeSharer(v)
		}
		s.gc(line, d)
		s.residencyChanged(line)
		return
	}
	// L2 victim: hand to the socket LLC, preserving dirtiness.
	llc := s.llc[c.socket]
	if d.owner == v {
		s.enter(d, llc, line, st, true)
	} else {
		d.removeSharer(v)
		if e := d.find(llc); e != nil {
			// Already resident: refresh its recency and state.
			llc.promote(e)
			e.state = st
		} else {
			s.enter(d, llc, line, st, false)
		}
	}
	s.residencyChanged(line)
}

// enter makes line resident in c in state st: a new entry, named in the
// line's slot d as its owner or as the last sharer, then linked. The slot
// names it before c makes room, because an eviction chain (an L2 victim
// into the LLC, then the LLC's victim) can reach the same slot, and a slot
// naming no holder there would be retired by gc.
//
//ccnic:noalloc
func (s *System) enter(d *dirEntry, c *Cache, line mem.Addr, st State, owner bool) {
	e := c.newEntry(line, st)
	if owner {
		d.owner = e
	} else {
		s.addSharer(d, e)
	}
	c.link(e)
}

// Sharer arrays: a slot's first sharer takes a sharerCap-long array carved
// from the System's slab, so first sharers cost one allocation per
// sharerSlots slots, not one per line; a set outgrowing it reallocates as
// append does.
const (
	sharerCap   = 2
	sharerSlots = 128
)

// addSharer appends e to the line's sharers.
//
//ccnic:noalloc
func (s *System) addSharer(d *dirEntry, e *entry) {
	if cap(d.sharers) == 0 {
		if len(s.sharerSlab) == 0 {
			s.sharerSlab = make([]*entry, sharerCap*sharerSlots) //ccnic:alloc-ok first sharers, once per sharerSlots slots
		}
		d.sharers = s.sharerSlab[:0:sharerCap]
		s.sharerSlab = s.sharerSlab[sharerCap:]
	}
	d.sharers = append(d.sharers, e) //ccnic:alloc-ok a sharer set outgrowing its carved array
}

// dropEverywhere invalidates every cached copy of line (used by NT stores
// and flushes). Returns true if any remote (cross-socket from sock) copy
// existed.
//
//ccnic:noalloc
func (s *System) dropEverywhere(line mem.Addr, sock int) bool {
	d := s.lookup(line)
	if d == nil {
		return false
	}
	remote := d.hasRemote(sock)
	if d.owner != nil {
		d.owner.c.drop(d.owner)
		d.owner = nil
	}
	for _, e := range d.sharers {
		e.c.drop(e)
	}
	d.sharers = d.sharers[:0]
	s.gc(line, d)
	s.residencyChanged(line)
	s.lineEvent(line)
	return remote
}

// DeviceWriteLine applies the coherence side effects of a PCIe DMA write to
// host memory with DDIO enabled: every cached copy is invalidated and the
// fresh data is allocated into the LLC of the given socket (so the host's
// subsequent poll is an LLC hit rather than a DRAM access). Timing is
// charged by the pcie package.
//
//ccnic:noalloc
func (s *System) DeviceWriteLine(line mem.Addr, socket int) {
	s.dropEverywhere(line, socket)
	s.enter(s.ent(line), s.llc[socket], line, Modified, true)
	s.residencyChanged(line)
	s.lineEvent(line)
}

// DeviceReadLine applies the coherence side effects of a PCIe DMA read of
// host memory: dirty data is snooped out of CPU caches (demoted to Shared,
// written back); clean copies are untouched.
//
//ccnic:noalloc
func (s *System) DeviceReadLine(line mem.Addr) {
	d := s.lookup(line)
	if d == nil || d.owner == nil {
		return
	}
	owner := d.owner
	owner.c.promote(owner)
	owner.state = Shared
	d.owner = nil
	s.addSharer(d, owner)
	s.residencyChanged(line)
	s.lineEvent(line)
}

// forEachDir visits every live directory entry in address order (validation
// paths only; the hot path never iterates the directory).
func (s *System) forEachDir(fn func(line mem.Addr, d *dirEntry)) {
	s.dir.forEach(func(line mem.Addr, d *dirEntry) {
		if d.present {
			fn(line, d)
		}
	})
}

// caches returns every cache: the LLCs, then each socket's L2s (validation
// paths only).
func (s *System) caches() []*Cache {
	caches := []*Cache{s.llc[0], s.llc[1]}
	for i := 0; i < 2; i++ {
		for _, a := range s.agents[i] {
			caches = append(caches, a.l2)
		}
	}
	return caches
}

// CheckInvariants validates global coherence invariants; tests call it after
// workloads. It returns an error describing the first violation found.
func (s *System) CheckInvariants() error {
	// Every live slot must pass the per-line check: each entry it names is
	// resident in its cache, in the state its role implies.
	claimed := 0
	var err error
	s.forEachDir(func(line mem.Addr, d *dirEntry) {
		if err == nil {
			err = s.checkDirLine(line)
		}
		claimed += len(d.sharers)
		if d.owner != nil {
			claimed++
		}
	})
	if err != nil {
		return err
	}
	// Every resident entry must be the one its line's slot names for its
	// cache. A copy a defect leaves behind stays on its cache's LRU list,
	// which is how this walk finds it.
	total := 0
	for _, c := range s.caches() {
		for e := c.head.next; e != &c.head; e = e.next {
			total++
			if d := s.lookup(e.line); d == nil || d.find(c) != e {
				return fmt.Errorf("cache %s holds %#x (%v) unknown to directory", c.name, e.line, e.state)
			}
		}
	}
	if total != claimed {
		return fmt.Errorf("directory claims %d residencies, caches hold %d", claimed, total)
	}
	// Protocol-private state (the CXL snoop filter and bias map) must agree
	// with the directory too.
	if s.cxl != nil {
		return s.cxl.checkSystem()
	}
	return nil
}
