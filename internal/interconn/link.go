// Package interconn models the coherent interconnect's physical resource: a
// full-duplex link with finite per-direction bandwidth. Latency lives in the
// coherence model's state-dependent tables; the link contributes
// serialization time and queueing delay under load, which is what produces
// throughput saturation and loaded-latency growth in the end-to-end results.
package interconn

import (
	"ccnic/internal/fault"
	"ccnic/internal/sim"
)

// Direction of a transfer across the link.
type Direction int

// The two link directions. By convention socket 0 is the host socket and
// socket 1 the NIC socket.
const (
	ToNIC  Direction = 0 // host socket -> NIC socket
	ToHost Direction = 1 // NIC socket -> host socket
)

// Profile names a link's protocol personality: the label it reports under
// and its flit geometry. The coherence layer builds one per protocol backend
// (UPI's 80-byte flits over a multi-link mesh, CXL's 68-byte flits over a
// single x16 phy); the link itself is protocol-agnostic — a full-duplex pipe
// with finite per-direction bandwidth.
type Profile struct {
	Name    string  // protocol label ("UPI", "CXL") for reports and stats
	WireBW  float64 // wire bytes per ns per direction (data plus per-flit header)
	Header  int     // protocol overhead bytes accompanying each data flit
	CtrlMsg int     // wire bytes of a dataless protocol message
}

// Link is a full-duplex interconnect link. It is not safe for concurrent
// use; all callers run under the simulation kernel, which serializes them.
type Link struct {
	profile    Profile
	bytesPerNs float64 // per-direction effective data bandwidth
	header     int     // protocol overhead accompanying each data flit
	ctrlMsg    int     // size of a dataless protocol message

	res   [2]sim.Resource
	stats Stats

	// flt is the optional fault injector; nil in normal runs. A flit
	// corruption adds a link-level retry spike to the affected transfer
	// and derates bandwidth until deratedUntil while the retry queue
	// drains. Faults only ever lengthen occupancy, so BusyUntil stays
	// monotonic and every invariant holds with faults armed.
	flt          *fault.Injector
	deratedUntil sim.Time
}

// Stats aggregates link traffic.
type Stats struct {
	DataBytes [2]int64 // payload bytes per direction
	WireBytes [2]int64 // payload+header bytes per direction
	Messages  [2]int64 // total messages per direction
}

// NewWithProfile creates a link from a protocol profile.
func NewWithProfile(pr Profile) *Link {
	if pr.WireBW <= 0 {
		panic("interconn: bandwidth must be positive")
	}
	return &Link{profile: pr, bytesPerNs: pr.WireBW, header: pr.Header, ctrlMsg: pr.CtrlMsg}
}

// Profile returns the link's protocol profile.
func (l *Link) Profile() Profile { return l.profile }

// Label returns the protocol label the link reports under ("UPI", "CXL").
func (l *Link) Label() string { return l.profile.Name }

// SetFaults arms (or, with nil, disarms) the fault injector on the link.
func (l *Link) SetFaults(f *fault.Injector) { l.flt = f }

// serialize converts a wire size to link occupancy time.
//
//ccnic:noalloc
func (l *Link) serialize(wireBytes int) sim.Time {
	return sim.Time(float64(wireBytes) / l.bytesPerNs * float64(sim.Nanosecond))
}

// holdFor computes the link occupancy for a wire-size transfer at time
// now, including fault effects: a 50% serialization penalty inside an
// active derating window, plus — on a fresh flit-corruption draw — a
// retry latency spike and an extension of the derating window.
//
//ccnic:noalloc
func (l *Link) holdFor(now sim.Time, wireBytes int) sim.Time {
	hold := l.serialize(wireBytes)
	if l.flt == nil {
		return hold
	}
	if now < l.deratedUntil {
		hold += hold / 2
	}
	if spike, derate := l.flt.LinkFault(); spike > 0 {
		hold += spike
		if until := now + derate; until > l.deratedUntil {
			l.deratedUntil = until
		}
	}
	return hold
}

// Data reserves link time for a data-carrying message of payloadBytes in the
// given direction, returning the queueing delay experienced before the
// message can start. Protocol header overhead is added automatically.
//
//ccnic:noalloc
func (l *Link) Data(now sim.Time, dir Direction, payloadBytes int) sim.Time {
	wire := payloadBytes + l.header
	l.stats.DataBytes[dir] += int64(payloadBytes)
	l.stats.WireBytes[dir] += int64(wire)
	l.stats.Messages[dir]++
	return l.res[dir].Acquire(now, l.holdFor(now, wire))
}

// Ctrl reserves link time for a dataless protocol message (snoop,
// invalidation, ack) in the given direction and returns the queueing delay.
//
//ccnic:noalloc
func (l *Link) Ctrl(now sim.Time, dir Direction) sim.Time {
	l.stats.WireBytes[dir] += int64(l.ctrlMsg)
	l.stats.Messages[dir]++
	return l.res[dir].Acquire(now, l.holdFor(now, l.ctrlMsg))
}

// Weighted reserves link time for payloadBytes scaled by a protocol
// efficiency penalty (>1 consumes more link time per byte). Used for
// nontemporal write streams, which the paper measures at 1.6-1.8x lower
// efficiency than the caching path (Fig 9).
//
//ccnic:noalloc
func (l *Link) Weighted(now sim.Time, dir Direction, payloadBytes int, penalty float64) sim.Time {
	wire := int(float64(payloadBytes)*penalty) + l.header
	l.stats.DataBytes[dir] += int64(payloadBytes)
	l.stats.WireBytes[dir] += int64(wire)
	l.stats.Messages[dir]++
	return l.res[dir].Acquire(now, l.holdFor(now, wire))
}

// Stats returns a copy of the accumulated traffic statistics.
func (l *Link) Stats() Stats { return l.stats }

// ResetStats clears traffic statistics but leaves the busy state intact.
func (l *Link) ResetStats() { l.stats = Stats{} }

// Utilization returns the fraction of [0, now] the given direction was busy.
func (l *Link) Utilization(dir Direction, now sim.Time) float64 {
	if now <= 0 {
		return 0
	}
	return float64(l.res[dir].BusyTotal()) / float64(now)
}

// Backlog returns the queueing backlog in the given direction at time now.
func (l *Link) Backlog(dir Direction, now sim.Time) sim.Time {
	return l.res[dir].Backlog(now)
}

// BusyUntil returns when the given direction's wire frees up. It only ever
// moves forward — the monotonicity the invariant engine checks.
func (l *Link) BusyUntil(dir Direction) sim.Time {
	return l.res[dir].BusyUntil()
}

// Opposite returns the reverse direction.
//
//ccnic:noalloc
func (d Direction) Opposite() Direction { return 1 - d }

// DirFromTo returns the link direction for a transfer from socket src to
// socket dst. The sockets must differ.
//
//ccnic:noalloc
func DirFromTo(src, dst int) Direction {
	if src == dst {
		panic("interconn: same-socket transfer does not use the link")
	}
	if src == 0 {
		return ToNIC
	}
	return ToHost
}
