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

// dirEntry is the global directory state for one line. Invariant: owner is
// non-nil only when exactly one cache holds the line Modified, in which case
// sharers is empty.
type dirEntry struct {
	owner   *Cache
	sharers []*Cache
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
}

// System is the two-socket coherent memory system.
type System struct {
	k     *sim.Kernel
	plat  *platform.Platform
	space *mem.Space
	link  *interconn.Link
	// cxl is the CXL protocol's private state (snoop filter, bias map); nil
	// under UPI. The protocol enters the shared walk only at the decision
	// points in protocol.go.
	cxl *cxlState

	llc      [2]*Cache
	agents   [2][]*Agent
	dir      lineTable[dirEntry] // the directory, one slot per touched line
	counters [2]Counters
	prefetch [2]bool

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
func (s *System) Kernel() *sim.Kernel { return s.k }

// Platform returns the platform parameters.
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
func (d *dirEntry) removeSharer(c *Cache) {
	for i, sc := range d.sharers {
		if sc == c {
			d.sharers[i] = d.sharers[len(d.sharers)-1]
			d.sharers = d.sharers[:len(d.sharers)-1]
			return
		}
	}
}

// hasRemote reports whether any copy lives on a socket other than sock.
func (d *dirEntry) hasRemote(sock int) bool {
	if d.owner != nil && d.owner.socket != sock {
		return true
	}
	for _, c := range d.sharers {
		if c.socket != sock {
			return true
		}
	}
	return false
}

// evicted handles a victim leaving cache c. L2 victims (clean or dirty)
// move into the socket's LLC; LLC dirty victims write back to the home
// memory, crossing the link if homed remotely.
//
//ccnic:noalloc
func (s *System) evicted(c *Cache, line mem.Addr, st State) {
	d := s.ent(line)
	if c.isLLC {
		if d.owner == c {
			d.owner = nil
			if home := mem.Home(line); home != c.socket {
				s.link.Data(s.k.Now(), interconn.DirFromTo(c.socket, home), mem.LineSize)
				s.counters[c.socket].Writebacks++
			}
		} else {
			d.removeSharer(c)
		}
		s.gc(line, d)
		s.residencyChanged(line)
		return
	}
	// L2 victim: hand to the socket LLC, preserving dirtiness.
	llc := s.llc[c.socket]
	if d.owner == c {
		d.owner = llc
	} else {
		d.removeSharer(c)
		if d.holds(llc) || d.owner == llc {
			llc.touch(line, st) // refresh recency only
			s.residencyChanged(line)
			return
		}
		d.sharers = append(d.sharers, llc)
	}
	llc.insertMiss(line, st)
	s.residencyChanged(line)
}

//ccnic:noalloc
func (d *dirEntry) holds(c *Cache) bool {
	if d.owner == c {
		return true
	}
	for _, sc := range d.sharers {
		if sc == c {
			return true
		}
	}
	return false
}

// dropEverywhere invalidates every cached copy of line (used by NT stores
// and flushes). Returns true if any remote (cross-socket from sock) copy
// existed.
func (s *System) dropEverywhere(line mem.Addr, sock int) bool {
	d := s.lookup(line)
	if d == nil {
		return false
	}
	remote := d.hasRemote(sock)
	if d.owner != nil {
		d.owner.drop(line)
		d.owner = nil
	}
	for _, c := range d.sharers {
		c.drop(line)
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
func (s *System) DeviceWriteLine(line mem.Addr, socket int) {
	s.dropEverywhere(line, socket)
	d := s.ent(line)
	llc := s.llc[socket]
	d.owner = llc
	llc.insertMiss(line, Modified)
	s.residencyChanged(line)
	s.lineEvent(line)
}

// DeviceReadLine applies the coherence side effects of a PCIe DMA read of
// host memory: dirty data is snooped out of CPU caches (demoted to Shared,
// written back); clean copies are untouched.
func (s *System) DeviceReadLine(line mem.Addr) {
	d := s.lookup(line)
	if d == nil || d.owner == nil {
		return
	}
	owner := d.owner
	owner.touch(line, Shared)
	d.owner = nil
	d.sharers = append(d.sharers, owner)
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

// CheckInvariants validates global coherence invariants; tests call it after
// workloads. It returns an error describing the first violation found.
func (s *System) CheckInvariants() error {
	// Directory contents must exactly match cache contents.
	type key struct {
		c    *Cache
		line mem.Addr
	}
	claimed := make(map[key]State)
	var dirErr error
	s.forEachDir(func(line mem.Addr, d *dirEntry) {
		if dirErr != nil {
			return
		}
		if d.owner != nil && len(d.sharers) > 0 {
			dirErr = fmt.Errorf("line %#x: owner %s coexists with %d sharers",
				line, d.owner.name, len(d.sharers))
			return
		}
		if d.owner != nil {
			claimed[key{d.owner, line}] = Modified
		}
		seen := map[*Cache]bool{}
		for _, c := range d.sharers {
			if seen[c] {
				dirErr = fmt.Errorf("line %#x: duplicate sharer %s", line, c.name)
				return
			}
			seen[c] = true
			claimed[key{c, line}] = Shared
		}
	})
	if dirErr != nil {
		return dirErr
	}
	caches := []*Cache{s.llc[0], s.llc[1]}
	for i := 0; i < 2; i++ {
		for _, a := range s.agents[i] {
			caches = append(caches, a.l2)
		}
	}
	var err error
	total := 0
	for _, c := range caches {
		c.forEach(func(line mem.Addr, st State) {
			if err != nil {
				return
			}
			total++
			want, ok := claimed[key{c, line}]
			if !ok {
				err = fmt.Errorf("cache %s holds %#x (%v) unknown to directory", c.name, line, st)
			} else if want != st {
				err = fmt.Errorf("cache %s holds %#x as %v, directory says %v", c.name, line, st, want)
			}
		})
		if err != nil {
			return err
		}
	}
	if total != len(claimed) {
		return fmt.Errorf("directory claims %d residencies, caches hold %d", len(claimed), total)
	}
	// Protocol-private state (the CXL snoop filter and bias map) must agree
	// with the directory too.
	if s.cxl != nil {
		return s.cxl.checkSystem()
	}
	return nil
}
