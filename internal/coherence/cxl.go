package coherence

import (
	"fmt"

	"ccnic/internal/interconn"
	"ccnic/internal/mem"
	"ccnic/internal/sim"
)

// This file implements the CXL.cache/CXL.mem protocol backend. Unlike UPI's
// symmetric MESIF — where either socket caches any line under one global
// protocol — CXL is asymmetric by construction:
//
//   - Host-homed lines (socket 0's memory) are cached by the device through
//     CXL.cache. The host tracks exactly which of those lines the device
//     holds in a host-managed snoop filter (the DCOH's directory in real
//     hardware); host-side accesses consult the *filter*, not the shared
//     simulation directory, to decide whether a crossing snoop is needed —
//     its accuracy is load-bearing, which is what MutateCXLSnoopDrop's
//     engine self-test exercises.
//
//   - Device-homed lines (socket 1's memory, the HDM range) are reached by
//     the host through CXL.mem. Each such line carries a bias state:
//     device-bias lines are accessed by the device with no host interaction
//     (local latency); a host fill flips the line to host bias; a device
//     access to a host-bias line first reclaims it — a roundtrip through the
//     host that flushes host-side copies (the BiasFlip cost).
//
//   - There is no migratory dirty forwarding: a read of a Modified line
//     demotes the holder to Shared. Producer-consumer pingpong therefore
//     costs an upgrade crossing per round that UPI's migration avoids — one
//     of the protocol differences the differential tests pin.
//
// Calibration follows the CXL Consortium's 170-250ns expected access range
// and the Cohet / CXL-simulation-framework papers; the per-platform numbers
// live in platform.CXLParams.

// The asymmetric roles, by socket convention (see interconn.Direction).
const (
	hostSocket   = 0
	deviceSocket = 1
)

// FilterState is the host snoop filter's view of the device's residency of
// one host-homed line.
type FilterState uint8

// Snoop-filter states.
const (
	FilterAbsent    FilterState = iota // device holds no copy
	FilterShared                       // device holds a clean copy
	FilterExclusive                    // device owns the line Modified
)

func (f FilterState) String() string {
	switch f {
	case FilterAbsent:
		return "absent"
	case FilterShared:
		return "shared"
	case FilterExclusive:
		return "exclusive"
	}
	return fmt.Sprintf("FilterState(%d)", uint8(f))
}

// BiasState is the coherency bias of one device-homed (HDM) line.
type BiasState uint8

// Bias states. The zero value is device bias: HDM starts device-owned.
const (
	DeviceBias BiasState = iota // device accesses without host interaction
	HostBias                    // host holds (or held) a copy; device must reclaim
)

func (b BiasState) String() string {
	if b == DeviceBias {
		return "device"
	}
	return "host"
}

// cxlBackend is the CXL protocol engine.
type cxlBackend struct {
	s *System
	// state is the protocol-private byte of each touched line: the
	// host-managed snoop filter (a FilterState) for host-homed lines, the
	// bias (a BiasState) for device-homed (HDM) lines.
	state lineTable[uint8]
}

func newCXLBackend(s *System) *cxlBackend { return &cxlBackend{s: s} }

func (b *cxlBackend) protocol() Protocol { return ProtoCXL }

// peekState reads the protocol-state byte without materializing it.
//
//ccnic:noalloc
func (b *cxlBackend) peekState(line mem.Addr) uint8 {
	if v := b.state.peek(line); v != nil {
		return *v
	}
	return 0
}

// filterAt reads the snoop filter for a host-homed line.
//
//ccnic:noalloc
func (b *cxlBackend) filterAt(line mem.Addr) FilterState { return FilterState(b.peekState(line)) }

// biasAt reads the bias state of a device-homed line.
//
//ccnic:noalloc
func (b *cxlBackend) biasAt(line mem.Addr) BiasState { return BiasState(b.peekState(line)) }

// deviceResidency derives the device side's true residency of a line from
// the directory — what the snoop filter must always report.
//
//ccnic:noalloc
func (b *cxlBackend) deviceResidency(line mem.Addr) FilterState {
	d := b.s.lookup(line)
	if d == nil {
		return FilterAbsent
	}
	if d.owner != nil && d.owner.socket == deviceSocket {
		return FilterExclusive
	}
	for _, c := range d.sharers {
		if c.socket == deviceSocket {
			return FilterShared
		}
	}
	return FilterAbsent
}

// hostHolder returns a host-side cache holding the line, or nil.
//
//ccnic:noalloc
func (b *cxlBackend) hostHolder(line mem.Addr) *Cache {
	d := b.s.lookup(line)
	if d == nil {
		return nil
	}
	if d.owner != nil && d.owner.socket == hostSocket {
		return d.owner
	}
	for _, c := range d.sharers {
		if c.socket == hostSocket {
			return c
		}
	}
	return nil
}

// syncFilter re-derives the snoop filter entry for a host-homed line from
// the directory. In real hardware the DCOH updates the filter as part of
// each transaction; deriving it keeps the two in lockstep on every path —
// except where MutateCXLSnoopDrop deliberately skips the recording step.
//
//ccnic:noalloc
func (b *cxlBackend) syncFilter(line mem.Addr) {
	*b.state.at(line) = uint8(b.deviceResidency(line))
}

// track updates protocol-private state after a transition by requester a.
// Device fills/upgrades of host-homed lines are the recording step the
// MutateCXLSnoopDrop defect suppresses; host fills of HDM lines flip bias.
//
//ccnic:noalloc
func (b *cxlBackend) track(a *Agent, line mem.Addr) {
	if mem.Home(line) == hostSocket {
		if a.socket == deviceSocket && b.s.mutation == MutateCXLSnoopDrop {
			return // defect: the device's fill is never recorded
		}
		b.syncFilter(line)
		return
	}
	if a.socket == hostSocket {
		*b.state.at(line) = uint8(HostBias)
	}
}

// residencyChanged implements the backend hook for the shared residency
// paths (evictions, flush/NT drops, PCIe DMA side effects).
//
//ccnic:noalloc
func (b *cxlBackend) residencyChanged(line mem.Addr) {
	if mem.Home(line) == hostSocket {
		b.syncFilter(line)
		return
	}
	// A host-side fill of an HDM line (e.g. PCIe DDIO allocating into the
	// host LLC) makes the line host-visible; bias follows.
	if b.biasAt(line) == DeviceBias && b.hostHolder(line) != nil {
		*b.state.at(line) = uint8(HostBias)
	}
}

// skipsDeviceSnoop reports whether a host-side invalidation of a host-homed
// line can skip the device: the host trusts its snoop filter, so an absent
// entry means no crossing is issued (and, under a stale filter, no copy is
// dropped — the corruption MutateCXLSnoopDrop seeds).
//
//ccnic:noalloc
func (b *cxlBackend) skipsDeviceSnoop(keeper *Cache, line mem.Addr) bool {
	return keeper.socket == hostSocket && mem.Home(line) == hostSocket &&
		b.filterAt(line) == FilterAbsent
}

// dropCopies invalidates every copy except keeper's and clears the
// directory's owner/sharers, honoring the snoop filter for host-side
// requests (see skipsDeviceSnoop).
func (b *cxlBackend) dropCopies(d *dirEntry, keeper *Cache, line mem.Addr) {
	skip := b.skipsDeviceSnoop(keeper, line)
	if d.owner != nil {
		if d.owner != keeper && !(skip && d.owner.socket == deviceSocket) {
			d.owner.drop(line)
		}
		d.owner = nil
	}
	for _, c := range d.sharers {
		if c == keeper {
			continue
		}
		if skip && c.socket == deviceSocket {
			continue // trusted-absent per the filter; stale copies survive
		}
		c.drop(line)
	}
	d.sharers = d.sharers[:0]
}

// invalidateLat returns the snoop latency of invalidating every copy except
// keeper's and whether the snoop crossed the link, charging control
// messages. It mirrors the UPI invalidateOthers but prices crossings at the
// CXL invalidate cost and consults the snoop filter for host-side requests.
func (b *cxlBackend) invalidateLat(d *dirEntry, keeper *Cache, line mem.Addr, now sim.Time) (sim.Time, bool) {
	s := b.s
	cx := &s.plat.CXL
	skip := b.skipsDeviceSnoop(keeper, line)
	lat := sim.Time(0)
	crossed := false
	consider := func(c *Cache) {
		if c == keeper {
			return
		}
		if c.socket != keeper.socket {
			if skip && c.socket == deviceSocket {
				return
			}
			if !crossed {
				dir := interconn.DirFromTo(keeper.socket, c.socket)
				s.link.Ctrl(now, dir)
				s.link.Ctrl(now, dir.Opposite())
				crossed = true
			}
			if cx.Inval > lat {
				lat = cx.Inval
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

// reclaimBias returns an HDM line to device bias: host-side copies are
// flushed (dirty data written back into the device's memory) so the device
// can access its memory without further host interaction.
func (b *cxlBackend) reclaimBias(line mem.Addr) {
	s := b.s
	*b.state.at(line) = uint8(DeviceBias)
	d := s.lookup(line)
	if d == nil {
		return
	}
	if s.mutation == MutateCXLBiasLeak {
		// Deliberate defect (engine self-tests): the reclaim forgets the
		// host's copies instead of flushing them — the directory drops
		// them while the host caches keep stale lines.
		if d.owner != nil && d.owner.socket == hostSocket {
			d.owner = nil
		}
		kept := d.sharers[:0]
		for _, c := range d.sharers {
			if c.socket != hostSocket {
				kept = append(kept, c)
			}
		}
		d.sharers = kept
		s.gc(line, d)
		return
	}
	if d.owner != nil && d.owner.socket == hostSocket {
		s.link.Data(s.k.Now(), interconn.DirFromTo(hostSocket, deviceSocket), mem.LineSize)
		s.counters[hostSocket].Writebacks++
		d.owner.drop(line)
		d.owner = nil
	}
	kept := d.sharers[:0]
	for _, c := range d.sharers {
		if c.socket == hostSocket {
			c.drop(line)
		} else {
			kept = append(kept, c)
		}
	}
	d.sharers = kept
	s.gc(line, d)
}

// fetchLat is the demand latency of a cross-link data fetch toward
// requester a: CXL.cache requests from the device resolve at the host
// (cache forward or host DRAM); CXL.mem requests from the host resolve at
// the device's DCOH; a host fetch of a host-homed line dirty in the device
// is an H2D snoop.
func (b *cxlBackend) fetchLat(a *Agent, home int, fromCache bool) sim.Time {
	cx := &b.s.plat.CXL
	if a.socket == deviceSocket {
		if fromCache {
			return cx.CacheFwd
		}
		return cx.MemRead
	}
	if home == hostSocket {
		return cx.Snoop
	}
	return cx.MemRead
}

// access implements the CXL protocol for one line. The structure mirrors
// the UPI accessLine — L2 hit/upgrade, then owner/sharers/memory — with the
// CXL latency points, the snoop filter on host-side invalidation decisions,
// bias management on HDM lines, and no migratory forwarding (demand reads
// demote at commitRead).
func (b *cxlBackend) access(a *Agent, line mem.Addr, write, quiet, fullLine bool) result {
	s := b.s
	now := s.k.Now()
	p := s.plat
	cx := &p.CXL
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
			lat, crossed = b.invalidateLat(d, a.l2, line, now)
			if crossed {
				ctr.RemoteRFO++
			}
		}
		d.removeSharer(a.l2)
		b.dropCopies(d, a.l2, line)
		d.owner = a.l2
		e.state = Modified
		if commit := now + lat; commit > d.pendingUntil {
			d.pendingUntil = commit
		}
		b.track(a, line)
		s.lineEvent(line)
		return result{lat: lat, crossed: crossed}
	}

	// L2 miss: find the data.
	d := s.ent(line)
	var lat sim.Time
	var queue sim.Time
	crossed := false
	home := mem.Home(line)
	stall := d.pendingStall(now)

	// CXL.mem bias check: a device access to its own HDM in host bias
	// first reclaims the line — a roundtrip through the host that flushes
	// host-side copies before the DCOH may proceed.
	var biasLat sim.Time
	if a.socket == deviceSocket && home == deviceSocket && b.biasAt(line) == HostBias {
		dir := interconn.DirFromTo(deviceSocket, hostSocket)
		s.link.Ctrl(now, dir)
		s.link.Ctrl(now, dir.Opposite())
		biasLat = cx.BiasFlip
		crossed = true
		ctr.BiasFlips++
		b.reclaimBias(line)
		d = s.ent(line) // the flush may have emptied (gc'd) the entry
	}

	dataMoved := false
	transfer := func(srcSocket int, base sim.Time) {
		dir := interconn.DirFromTo(srcSocket, a.socket)
		queue = s.link.Data(now, dir, mem.LineSize)
		crossed = true
		dataMoved = true
		lat = base + queue
	}

	switch {
	case d.owner != nil:
		owner := d.owner
		if fullLine && write {
			// Ownership grant without moving the stale data (the CXL
			// analogue of ItoM: a D2H RdOwnNoData / H2D invalidate).
			if owner.socket == a.socket {
				lat = p.LLCHit
			} else if b.skipsDeviceSnoop(a.l2, line) {
				lat = p.LLCHit // filter says absent: no crossing issued
			} else {
				dir := interconn.DirFromTo(a.socket, owner.socket)
				s.link.Ctrl(now, dir)
				s.link.Ctrl(now, dir.Opposite())
				lat = cx.Inval
				crossed = true
			}
		} else if owner.socket == a.socket {
			if owner.isLLC {
				lat = p.LLCHit
			} else {
				lat = p.LocalFwd
			}
		} else if b.skipsDeviceSnoop(a.l2, line) {
			// The filter claims the device holds nothing (reachable only
			// when it is stale): the host reads its own memory directly.
			lat = p.LocalDRAM
		} else {
			transfer(owner.socket, b.fetchLat(a, home, true))
		}
		switch {
		case write:
			b.dropCopies(d, a.l2, line)
			d.owner = a.l2
			a.l2.insertMiss(line, Modified)
		case quiet:
			// Prefetch read: demote the owner to Shared (writing the
			// dirty data back home) and fill Shared.
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
		} else if b.skipsDeviceSnoop(a.l2, line) {
			lat = p.LocalDRAM // stale-filter path: read memory, skip the snoop
		} else {
			transfer(src.socket, b.fetchLat(a, home, true))
		}
		if write {
			ilat, icrossed := b.invalidateLat(d, a.l2, line, now)
			if ilat > lat {
				lat = ilat
			}
			crossed = crossed || icrossed
			b.dropCopies(d, a.l2, line)
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
			if home == a.socket {
				lat = p.LLCHit
			} else {
				dir := interconn.DirFromTo(home, a.socket)
				s.link.Ctrl(now, dir)
				s.link.Ctrl(now, dir.Opposite())
				lat = cx.Inval
				crossed = true
			}
		case home == a.socket:
			lat = p.LocalDRAM
		default:
			transfer(home, b.fetchLat(a, home, false))
		}
		if write {
			d.owner = a.l2
			a.l2.insertMiss(line, Modified)
		} else if quiet {
			d.sharers = append(d.sharers, a.l2)
			a.l2.insertMiss(line, Shared)
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
		b.track(a, line)
	} else if biasLat > 0 {
		// A pure demand read mutates at commitRead, but the bias reclaim
		// above already moved state; keep the filter/bias probes honest.
		b.residencyChanged(line)
	}
	s.lineEvent(line)
	return result{lat: lat, crossed: crossed, data: dataMoved, queue: queue, stall: stall}
}

// commitRead applies a demand read's state transition at completion. CXL has
// no migratory forwarding: a Modified holder is demoted to Shared (dirty
// data written back home) and the reader fills Shared — structurally the
// UPI backend's no-migration ablation, but here it is the protocol.
func (b *cxlBackend) commitRead(a *Agent, line mem.Addr) {
	s := b.s
	if a.l2.peek(line) != nil {
		return // already resident (raced with another fill)
	}
	d := s.ent(line)
	switch {
	case d.owner != nil:
		owner := d.owner
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
	b.track(a, line)
	if a.socket == hostSocket && mem.Home(line) == hostSocket {
		// A host read may have demoted the device's exclusive copy; the
		// filter must follow even though the requester is host-side.
		b.syncFilter(line)
	}
	s.lineEvent(line)
}

// checkLine validates the protocol-private state for one line: the snoop
// filter must report the device's true residency of a host-homed line, and
// a device-bias HDM line must have no host-side copies.
func (b *cxlBackend) checkLine(line mem.Addr) error {
	if mem.Home(line) == hostSocket {
		want := b.deviceResidency(line)
		if got := b.filterAt(line); got != want {
			return fmt.Errorf("line %#x: snoop filter says %v, device residency is %v",
				line, got, want)
		}
		return nil
	}
	if b.biasAt(line) == DeviceBias {
		if c := b.hostHolder(line); c != nil {
			return fmt.Errorf("line %#x: device-bias HDM line cached on the host by %s",
				line, c.name)
		}
	}
	return nil
}

// checkSystem scans every directory entry and every materialized snoop
// filter entry (stale filter bits can outlive their directory entries).
func (b *cxlBackend) checkSystem() error {
	var err error
	b.s.forEachDir(func(line mem.Addr, _ *dirEntry) {
		if err == nil {
			err = b.checkLine(line)
		}
	})
	if err != nil {
		return err
	}
	b.state.forEach(func(line mem.Addr, v *uint8) {
		if err == nil && mem.Home(line) == hostSocket && *v != uint8(FilterAbsent) {
			err = b.checkLine(line)
		}
	})
	return err
}

// SnoopFilter reports the host snoop filter's view of a host-homed line.
// ok is false when the system does not run the CXL backend.
func (s *System) SnoopFilter(line mem.Addr) (FilterState, bool) {
	b, isCXL := s.proto.(*cxlBackend)
	if !isCXL {
		return FilterAbsent, false
	}
	return b.filterAt(line), true
}

// Bias reports the bias state of a device-homed (HDM) line. ok is false
// when the system does not run the CXL backend.
func (s *System) Bias(line mem.Addr) (BiasState, bool) {
	b, isCXL := s.proto.(*cxlBackend)
	if !isCXL {
		return DeviceBias, false
	}
	return b.biasAt(line), true
}
