package coherence

import (
	"fmt"

	"ccnic/internal/interconn"
	"ccnic/internal/mem"
	"ccnic/internal/sim"
)

// This file holds the CXL.cache/CXL.mem protocol's private state: the snoop
// filter, the bias map, the bias reclaim, and their checks. The coherence
// walk itself is shared with UPI (agent.go) and reaches this state only
// through the decision points in protocol.go. Unlike UPI's symmetric MESIF
// — where either socket caches any line under one global protocol — CXL is
// asymmetric by construction:
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
//     demotes the holder to Shared (migrates, point 6). Producer-consumer
//     pingpong therefore costs an upgrade crossing per round that UPI's
//     migration avoids — one of the protocol differences the differential
//     tests pin.
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

// cxlState is the CXL protocol's private bookkeeping. A System running CXL
// holds one; under UPI the pointer is nil. Its per-line state is one byte
// in each directory slot (dirEntry.cxl): the host-managed snoop filter (a
// FilterState) for host-homed lines, the bias (a BiasState) for
// device-homed (HDM) lines.
type cxlState struct {
	s *System
}

// peekState reads the protocol-state byte without materializing it.
//
//ccnic:noalloc
func (x *cxlState) peekState(line mem.Addr) uint8 {
	if d := x.s.dir.peek(line); d != nil {
		return d.cxl
	}
	return 0
}

// setState writes the protocol-state byte, materializing the line's
// directory slot if needed (its liveness is unchanged).
//
//ccnic:noalloc
func (x *cxlState) setState(line mem.Addr, v uint8) { x.s.dir.at(line).cxl = v }

// filterAt reads the snoop filter for a host-homed line.
//
//ccnic:noalloc
func (x *cxlState) filterAt(line mem.Addr) FilterState { return FilterState(x.peekState(line)) }

// biasAt reads the bias state of a device-homed line.
//
//ccnic:noalloc
func (x *cxlState) biasAt(line mem.Addr) BiasState { return BiasState(x.peekState(line)) }

// deviceResidency derives the device side's true residency of a line from
// the directory — what the snoop filter must always report.
//
//ccnic:noalloc
func (x *cxlState) deviceResidency(line mem.Addr) FilterState {
	d := x.s.lookup(line)
	if d == nil {
		return FilterAbsent
	}
	if d.owner != nil && d.owner.c.socket == deviceSocket {
		return FilterExclusive
	}
	for _, e := range d.sharers {
		if e.c.socket == deviceSocket {
			return FilterShared
		}
	}
	return FilterAbsent
}

// hostHolder returns a host-side cache holding the line, or nil.
//
//ccnic:noalloc
func (x *cxlState) hostHolder(line mem.Addr) *Cache {
	d := x.s.lookup(line)
	if d == nil {
		return nil
	}
	if d.owner != nil && d.owner.c.socket == hostSocket {
		return d.owner.c
	}
	for _, e := range d.sharers {
		if e.c.socket == hostSocket {
			return e.c
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
func (x *cxlState) syncFilter(line mem.Addr) {
	x.setState(line, uint8(x.deviceResidency(line)))
}

// track updates protocol-private state after a transition by requester a.
// Device fills/upgrades of host-homed lines are the recording step the
// MutateCXLSnoopDrop defect suppresses; host fills of HDM lines flip bias.
//
//ccnic:noalloc
func (x *cxlState) track(a *Agent, line mem.Addr) {
	if mem.Home(line) == hostSocket {
		if a.socket == deviceSocket && x.s.mutation == MutateCXLSnoopDrop {
			return // defect: the device's fill is never recorded
		}
		x.syncFilter(line)
		return
	}
	if a.socket == hostSocket {
		x.setState(line, uint8(HostBias))
	}
}

// residencyChanged lets the filter and bias follow a residency change made
// outside the walk (evictions, flush/NT drops, PCIe DMA side effects).
//
//ccnic:noalloc
func (x *cxlState) residencyChanged(line mem.Addr) {
	if mem.Home(line) == hostSocket {
		x.syncFilter(line)
		return
	}
	// A host-side fill of an HDM line (e.g. PCIe DDIO allocating into the
	// host LLC) makes the line host-visible; bias follows.
	if x.biasAt(line) == DeviceBias && x.hostHolder(line) != nil {
		x.setState(line, uint8(HostBias))
	}
}

// skipsDeviceSnoop reports whether a request by keeper's socket may skip
// snooping the device: the host trusts its snoop filter for host-homed
// lines, so an absent entry means no crossing is issued (and, under a stale
// filter, no copy is dropped — the corruption MutateCXLSnoopDrop seeds).
//
//ccnic:noalloc
func (x *cxlState) skipsDeviceSnoop(keeper *Cache, line mem.Addr) bool {
	return keeper.socket == hostSocket && mem.Home(line) == hostSocket &&
		x.filterAt(line) == FilterAbsent
}

// reclaimBias returns an HDM line in host bias to device bias before
// requester a, a device agent, accesses it: a roundtrip through the host that flushes host-side copies
// (dirty data written back into the device's memory) so the device can
// access its memory without further host interaction. It reports the
// roundtrip's latency and whether a reclaim was due.
//
//ccnic:noalloc
func (x *cxlState) reclaimBias(a *Agent, line mem.Addr) (sim.Time, bool) {
	if a.socket != deviceSocket || mem.Home(line) != deviceSocket || x.biasAt(line) != HostBias {
		return 0, false
	}
	s := x.s
	s.ctrlPair(s.k.Now(), interconn.DirFromTo(deviceSocket, hostSocket))
	s.counters[deviceSocket].BiasFlips++
	x.setState(line, uint8(DeviceBias))
	d := s.lookup(line)
	if d == nil {
		return s.plat.CXL.BiasFlip, true
	}
	if s.mutation == MutateCXLBiasLeak {
		// Deliberate defect (engine self-tests): the reclaim forgets the
		// host's copies instead of flushing them — the directory drops
		// them while the host caches keep stale lines.
		if d.owner != nil && d.owner.c.socket == hostSocket {
			d.owner = nil
		}
		kept := d.sharers[:0]
		for _, e := range d.sharers {
			if e.c.socket != hostSocket {
				kept = append(kept, e)
			}
		}
		d.sharers = kept
		s.gc(line, d)
		return s.plat.CXL.BiasFlip, true
	}
	if d.owner != nil && d.owner.c.socket == hostSocket {
		s.link.Data(s.k.Now(), interconn.DirFromTo(hostSocket, deviceSocket), mem.LineSize)
		s.counters[hostSocket].Writebacks++
		d.owner.c.drop(d.owner)
		d.owner = nil
	}
	kept := d.sharers[:0]
	for _, e := range d.sharers {
		if e.c.socket == hostSocket {
			e.c.drop(e)
		} else {
			kept = append(kept, e)
		}
	}
	d.sharers = kept
	s.gc(line, d)
	return s.plat.CXL.BiasFlip, true
}

// checkLine validates the protocol-private state for one line: the snoop
// filter must report the device's true residency of a host-homed line, and
// a device-bias HDM line must have no host-side copies.
func (x *cxlState) checkLine(line mem.Addr) error {
	if mem.Home(line) == hostSocket {
		want := x.deviceResidency(line)
		if got := x.filterAt(line); got != want {
			return fmt.Errorf("line %#x: snoop filter says %v, device residency is %v",
				line, got, want)
		}
		return nil
	}
	if x.biasAt(line) == DeviceBias {
		if c := x.hostHolder(line); c != nil {
			return fmt.Errorf("line %#x: device-bias HDM line cached on the host by %s",
				line, c.name)
		}
	}
	return nil
}

// checkSystem scans every live directory entry, then every materialized
// snoop filter entry (stale filter bits can outlive their directory
// entries).
func (x *cxlState) checkSystem() error {
	var err error
	x.s.forEachDir(func(line mem.Addr, _ *dirEntry) {
		if err == nil {
			err = x.checkLine(line)
		}
	})
	if err != nil {
		return err
	}
	x.s.dir.forEach(func(line mem.Addr, d *dirEntry) {
		if err == nil && mem.Home(line) == hostSocket && d.cxl != uint8(FilterAbsent) {
			err = x.checkLine(line)
		}
	})
	return err
}

// SnoopFilter reports the host snoop filter's view of a host-homed line.
// ok is false when the system does not run the CXL protocol.
func (s *System) SnoopFilter(line mem.Addr) (FilterState, bool) {
	if s.cxl == nil {
		return FilterAbsent, false
	}
	return s.cxl.filterAt(line), true
}

// Bias reports the bias state of a device-homed (HDM) line. ok is false
// when the system does not run the CXL protocol.
func (s *System) Bias(line mem.Addr) (BiasState, bool) {
	if s.cxl == nil {
		return DeviceBias, false
	}
	return s.cxl.biasAt(line), true
}
