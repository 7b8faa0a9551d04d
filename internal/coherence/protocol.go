package coherence

import (
	"fmt"
	"strings"

	"ccnic/internal/interconn"
	"ccnic/internal/mem"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
)

// Protocol identifies a coherent-interconnect protocol. Both protocols run
// the same coherence walk over the shared caches, directory, link, and
// counters; they differ only at the decision points below and in the
// protocol-private state beside the directory (cxl.go).
type Protocol uint8

// The implemented protocols.
const (
	// ProtoUPI is the paper's symmetric UPI/MESIF protocol: either socket
	// caches any line, with migratory dirty forwarding and speculative
	// home reads (the default — all existing results run on it).
	ProtoUPI Protocol = iota
	// ProtoCXL is the asymmetric CXL.cache/CXL.mem protocol: the device
	// caches host memory through CXL.cache behind a host-managed snoop
	// filter, the host reaches device HDM through CXL.mem, and
	// device-homed lines carry a bias state (device bias lines are
	// accessed without host interaction).
	ProtoCXL
)

func (p Protocol) String() string {
	switch p {
	case ProtoUPI:
		return "UPI"
	case ProtoCXL:
		return "CXL"
	}
	return fmt.Sprintf("Protocol(%d)", uint8(p))
}

// ParseProtocol resolves a protocol name ("upi", "cxl", case-insensitive; ""
// selects the default UPI protocol).
func ParseProtocol(name string) (Protocol, error) {
	switch strings.ToLower(name) {
	case "", "upi":
		return ProtoUPI, nil
	case "cxl":
		return ProtoCXL, nil
	}
	return 0, fmt.Errorf("coherence: unknown protocol %q (want UPI or CXL)", name)
}

// linkProfile builds the interconnect profile for a protocol on a platform.
// UPI provisions the wire to carry the calibrated data bandwidth plus
// per-flit protocol bytes; CXL does the same over its single x16 phy and
// thinner 68-byte flits. An unknown protocol panics, naming the value.
func linkProfile(plat *platform.Platform, pr Protocol) interconn.Profile {
	switch pr {
	case ProtoUPI:
		wire := plat.UPIBandwidth * float64(mem.LineSize+plat.UPIHeader) / float64(mem.LineSize)
		return interconn.Profile{Name: "UPI", WireBW: wire, Header: plat.UPIHeader, CtrlMsg: plat.UPICtrlMsg}
	case ProtoCXL:
		cx := &plat.CXL
		wire := cx.LinkBandwidth * float64(mem.LineSize+cx.FlitHeader) / float64(mem.LineSize)
		return interconn.Profile{Name: "CXL", WireBW: wire, Header: cx.FlitHeader, CtrlMsg: cx.CtrlMsg}
	}
	panic(fmt.Sprintf("coherence: unknown protocol %v", pr))
}

// Protocol returns the system's coherence protocol.
func (s *System) Protocol() Protocol {
	if s.cxl != nil {
		return ProtoCXL
	}
	return ProtoUPI
}

// The protocol decision points. The coherence walk (access, commitRead,
// invalidateLat, dropCopies in agent.go) is shared by both protocols and
// consults the protocol only here; s.cxl is nil under UPI.

// fetchLat (point 1) is the demand latency of a cross-link data fetch toward
// requester a, served from a cache (fromCache) or from the line's home
// memory. Under UPI a reader-homed fetch from a remote cache also issues a
// speculative home memory read, which it counts. Under CXL, device requests
// resolve at the host (cache forward or host DRAM), host requests to HDM at
// the device's DCOH, and a host fetch of a host-homed line from the device
// is an H2D snoop.
//
//ccnic:noalloc
func (s *System) fetchLat(a *Agent, home int, fromCache bool) sim.Time {
	p := s.plat
	if s.cxl != nil {
		switch {
		case a.socket == deviceSocket && fromCache:
			return p.CXL.CacheFwd
		case a.socket == hostSocket && home == hostSocket:
			return p.CXL.Snoop
		}
		return p.CXL.MemRead
	}
	switch {
	case !fromCache:
		return p.RemoteDRAM
	case home == a.socket:
		// Reader-homed: the home controller issues a useless
		// speculative memory read alongside the snoop.
		s.counters[a.socket].SpecMemRead++
		return p.RemoteLH
	}
	return p.RemoteRH
}

// invalCost (point 2) is the latency of an invalidate-only crossing: a
// snoop-invalidate, or an ownership grant without data.
//
//ccnic:noalloc
func (s *System) invalCost() sim.Time {
	if s.cxl != nil {
		return s.plat.CXL.Inval
	}
	return s.plat.RemoteInval
}

// skipsDeviceSnoop (point 3) reports whether a request by keeper's socket
// may skip snooping the device: under CXL, when the host's snoop filter
// says the device holds none of a host-homed line. UPI always snoops.
//
//ccnic:noalloc
func (s *System) skipsDeviceSnoop(keeper *Cache, line mem.Addr) bool {
	return s.cxl != nil && s.cxl.skipsDeviceSnoop(keeper, line)
}

// reclaimBias (point 4) runs before a device access to its own HDM line in
// host bias (CXL only). It reports the reclaim roundtrip's latency and
// whether a reclaim happened.
//
//ccnic:noalloc
func (s *System) reclaimBias(a *Agent, line mem.Addr) (sim.Time, bool) {
	if s.cxl == nil {
		return 0, false
	}
	return s.cxl.reclaimBias(a, line)
}

// track (point 5) updates protocol-private state after requester a's
// transition of line.
//
//ccnic:noalloc
func (s *System) track(a *Agent, line mem.Addr) {
	if s.cxl != nil {
		s.cxl.track(a, line)
	}
}

// residencyChanged (point 5) lets protocol-private state follow a residency
// change made by a path outside the walk (evictions, flush/NT drops, PCIe
// DMA side effects).
//
//ccnic:noalloc
func (s *System) residencyChanged(line mem.Addr) {
	if s.cxl != nil {
		s.cxl.residencyChanged(line)
	}
}

// migrates (point 6) reports whether a demand read of a Modified line
// migrates ownership to the reader. UPI migrates unless the ablation turned
// it off; CXL never does, so its reads demote the holder to Shared — the
// same rule as the ablation.
//
//ccnic:noalloc
func (s *System) migrates() bool { return s.cxl == nil && !s.noMigrate }

// pendingStall returns how long a requester arriving now must wait behind an
// in-flight ownership-acquiring store to the line.
//
//ccnic:noalloc
func (d *dirEntry) pendingStall(now sim.Time) sim.Time {
	if d.pendingUntil > now {
		return d.pendingUntil - now
	}
	return 0
}
