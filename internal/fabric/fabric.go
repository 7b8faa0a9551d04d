// Package fabric models a switched datacenter fabric as a first-class
// simulation component riding on the parallel shard engine: a Switch is its
// own shard (kernel), hosts attach to numbered ports over shard links whose
// minimum latency — the hop propagation — is the conservative lookahead, and
// every packet crosses ingress queuing, routing, egress queuing, fair
// scheduling, and wire serialization inside the switch model.
//
// # Addressing
//
// Host i is port i: Attach connects hosts in order and returns the attached
// host's address, which is its port number. Packet.Src and Packet.Dst index
// the switch's port records directly, so forwarding needs no table. Each
// record holds everything the switch keeps about one port — queues,
// scheduler and pipeline state, fault windows, links, and the PortStats
// counters, updated in place.
//
// # Processes
//
// The switch kernel runs no coroutine. Each packet an up link delivers is
// a bodiless process (sim.Kernel.SpawnSpin) stepping through arrive, and
// each port's egress scheduler is a standing bodiless process whose step
// (Switch.egress) sleeps by returning the time and waits for work by
// returning sim.Proc.Await's result.
//
// # Queuing and fairness
//
// Each egress port keeps per-(source, class) virtual queues with bounded
// per-queue occupancy (tail-drop) and serves them with deficit round robin,
// so a saturating bulk flow cannot starve small RPCs sharing the port: each
// active queue earns a byte quantum per round and bulk packets wait out
// their deficit while small-class queues drain. FIFO mode (Config.FIFO)
// disables DRR and serves strictly in arrival order — the ablation baseline
// for the fairness experiments.
//
// # Partition invariance
//
// Like everything on the shard engine, switch results are bit-identical for
// every host partition and worker count. The engine only guarantees a
// deterministic *merge* order for cross-shard messages; same-instant
// deliveries still execute in a partition-dependent order, so the switch is
// built so that no decision depends on that order:
//
//   - scheduling decisions use a strict-timestamp eligibility rule: a packet
//     queued at instant t is only visible to decisions at instants > t.
//     Since the kernel executes all earlier-instant events before any event
//     at t, the eligible set at a decision instant is a pure function of
//     arrival timestamps — never of intra-instant execution order;
//   - the arbiter's decision instants are themselves timestamp-derived: an
//     idle egress woken at t defers its decision by the platform's
//     arbitration latency (Config.SchedLat > 0), so a decision never shares
//     an instant with the arrival that triggered it;
//   - queues are per (source, class): a queue's FIFO order is the source's
//     own send order (per-link sequence numbers preserve it), and bounded
//     occupancy is enforced per queue, so a tail-drop decision depends only
//     on that source's in-flight history, not on how two sources' same-
//     instant arrivals happened to interleave.
package fabric

import (
	"fmt"
	"math/bits"
	"strings"

	"ccnic/internal/fault"
	"ccnic/internal/sim"
	"ccnic/internal/sim/shard"
)

// Class is a packet's traffic class, the fairness unit alongside the source:
// egress queues are keyed by (source host, class).
type Class uint8

const (
	// ClassRPC marks small latency-sensitive transfers (requests,
	// responses, control traffic).
	ClassRPC Class = iota
	// ClassBulk marks large throughput-oriented transfers.
	ClassBulk

	// NumClasses sizes per-class state.
	NumClasses
)

// String names the class for stats and reports.
func (c Class) String() string {
	switch c {
	case ClassRPC:
		return "rpc"
	case ClassBulk:
		return "bulk"
	}
	return fmt.Sprintf("class%d", uint8(c))
}

// Packet is one transfer crossing the fabric. Src and Dst are host
// addresses, which are also the ingress and egress ports. Bytes is the wire
// size charged for serialization and DRR deficit.
type Packet struct {
	Src, Dst int
	Class    Class
	Bytes    int
	Payload  any
}

// DeliverFunc handles a packet arriving at its destination host, in steps:
// it is the down link's shard.DeliverFunc with the packet unpacked from
// d.Payload, so it runs on the destination host's kernel, must not block,
// and charges time by returning it.
type DeliverFunc func(d *shard.Delivery, pkt Packet) (sim.Time, bool)

// Config tunes a Switch. Zero values select the documented defaults.
type Config struct {
	// Ports is the number of attachable ports (>= 2).
	Ports int
	// BW is the per-port wire bandwidth in bytes per nanosecond.
	BW float64
	// HopLat is the one-way host<->switch propagation latency; it is the
	// lookahead of every attach link and must be strictly positive.
	HopLat sim.Time
	// RouteLat is the ingress-to-egress forwarding latency.
	RouteLat sim.Time
	// SchedLat is the egress arbitration granularity (> 0; see the
	// package comment on partition invariance).
	SchedLat sim.Time
	// FlowCap bounds each egress (source, class) virtual queue, in
	// packets; arrivals beyond it are tail-dropped (default 128).
	FlowCap int
	// Quantum is the DRR byte quantum added to an active queue per
	// scheduling round (default 4096: one bulk MTU-ish transfer).
	Quantum int
	// FIFO disables fair queuing: egress serves strictly in arrival
	// order (ties broken by source then class then send order).
	FIFO bool
	// Faults optionally arms the switch-side fault classes (portflap,
	// corrupt, blackhole, brownout). Draws are stateless hashes of the
	// packet's (source, per-source sequence) identity, so an armed switch
	// stays partition-invariant and an unarmed one is byte-identical to a
	// fault-free build (see internal/fault).
	Faults *fault.Injector
	// Outages scripts deterministic administrative port outages on top of
	// (or instead of) drawn flaps — the chaos experiments use them to place
	// a fault at an exact instant on a known port.
	Outages []Outage
}

// Fixed switch parameters.
const (
	// ingressCap bounds each ingress port's routing pipeline occupancy,
	// in packets; arrivals beyond it are dropped.
	ingressCap = 256
	// linkCap is the shard-link FIFO capacity for each attach direction,
	// in messages: the real bounded buffers are the switch's own queues,
	// so attach links are sized to never bind.
	linkCap = 1 << 16
	// brownoutFactor is the serialization derate applied while an egress
	// port is browned out: the port runs at quarter rate.
	brownoutFactor = 4
)

// Outage is one scripted administrative outage: port admits nothing (in
// either direction) for From <= now < To.
type Outage struct {
	Port     int
	From, To sim.Time
}

// Probe observes switch queuing for online validation (internal/check).
// Calls go through Switch.event, which nil-guards them; a run without a
// checker pays one branch per event.
type Probe interface {
	// PortEvent fires after port's counters change: a packet admitted to
	// an egress queue, forwarded, or dropped (at ingress or egress).
	PortEvent(sw *Switch, port int)
}

// entry is one queued packet with its admission timestamp (the eligibility
// key: visible only to decisions at strictly later instants).
type entry struct {
	at  sim.Time
	pkt Packet
}

// window is a fault-effect interval with the same strictness discipline as
// queue eligibility: a window opened by a draw at instant t affects only
// decisions at instants strictly after t, and same-instant extensions
// commute (the start is kept, the end max-merges). That makes the window
// state at any instant a pure function of the set of (draw instant, span)
// pairs — never of the partition-dependent order in which same-instant
// arrivals executed their draws.
type window struct {
	from, until sim.Time
}

// extend opens (or prolongs) the window from a draw at instant now.
func (w *window) extend(now sim.Time, span sim.Time) {
	if now >= w.until {
		w.from = now
	}
	if until := now + span; until > w.until {
		w.until = until
	}
}

// active reports whether the window affects a decision at instant now.
func (w *window) active(now sim.Time) bool {
	return w.from < now && now < w.until
}

// vq is one egress (source, class) virtual queue plus its DRR state.
type vq struct {
	q       []entry
	head    int
	deficit int
	serving bool // cursor is mid-turn on this queue (no fresh quantum)
}

func (f *vq) len() int { return len(f.q) - f.head }

func (f *vq) pop() entry {
	e := f.q[f.head]
	f.q[f.head] = entry{}
	f.head++
	if f.head == len(f.q) {
		f.q = f.q[:0]
		f.head = 0
	}
	return e
}

// port is one switch port and the host attached to it (host i is port i):
// its egress queues and scheduler state, its ingress pipeline occupancy,
// the fault windows keyed by it, the host's shard links and delivery
// handler, and its counters.
type port struct {
	flows  []vq     // indexed src*NumClasses + class
	busy   []uint64 // bit i set iff flows[i] is nonempty
	cursor int      // DRR round-robin position, persistent across decisions
	queued int      // packets admitted and not yet picked
	serQ   int      // packets picked and still serializing onto the wire (0 or 1)
	wire   Packet   // the packet serializing, while serQ is 1
	wake   *sim.Event
	sched  *sim.Proc // the egress scheduler (see Switch.egress)

	inFlight int // packets in the ingress routing pipeline

	// Fault-domain state (touched only on the switch shard): seq is the
	// host's arrival sequence, the draw identity; flap is a drawn outage
	// of the port; blackhole swallows traffic routed toward the host;
	// brown runs the egress wire at brownoutFactor times the normal time.
	seq       uint64
	flap      window
	blackhole window
	brown     window

	hs       *shard.Shard // the host's shard; co-sharded hosts share up and down
	up, down *shard.Link
	deliver  DeliverFunc

	stats PortStats // Queued is filled in by Switch.Stats
}

// Switch is a modeled output-queued switch on its own shard.
type Switch struct {
	name  string
	cfg   Config
	shd   *shard.Shard
	k     *sim.Kernel
	flt   *fault.Injector
	ports []*port
	probe Probe
}

// Validate reports the first configuration error New would refuse, or
// nil. Zero values stand for the defaults New fills in.
func (cfg Config) Validate() error {
	if cfg.Ports < 2 {
		return fmt.Errorf("fabric: a switch needs at least 2 ports, not %d", cfg.Ports)
	}
	if cfg.HopLat <= 0 {
		return fmt.Errorf("fabric: HopLat must be strictly positive (it is the attach lookahead)")
	}
	for _, o := range cfg.Outages {
		if o.Port < 0 || o.Port >= cfg.Ports || o.From < 0 || o.To <= o.From {
			return fmt.Errorf("fabric: invalid scripted outage %+v", o)
		}
	}
	return nil
}

// New creates a switch as a fresh shard on the engine. It panics on a
// configuration Validate rejects, matching the repo's construction-time
// validation style.
func New(e *shard.Engine, name string, cfg Config) *Switch {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if cfg.BW <= 0 {
		cfg.BW = 12.5
	}
	if cfg.RouteLat < 0 {
		cfg.RouteLat = 0
	}
	if cfg.SchedLat <= 0 {
		cfg.SchedLat = 25 * sim.Nanosecond
	}
	if cfg.FlowCap <= 0 {
		cfg.FlowCap = 128
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 4096
	}
	sw := &Switch{name: name, cfg: cfg, flt: cfg.Faults}
	sw.shd = e.NewShard(name, sim.New())
	sw.k = sw.shd.Kernel()
	return sw
}

// Kernel returns the switch's kernel: the kernel of its own shard.
func (sw *Switch) Kernel() *sim.Kernel { return sw.k }

// SetProbe installs (or removes, with nil) the validation probe.
func (sw *Switch) SetProbe(p Probe) { sw.probe = p }

// event reports a counter change on port to the probe, if one is installed.
func (sw *Switch) event(port int) {
	if sw.probe != nil {
		sw.probe.PortEvent(sw, port)
	}
}

// Attach connects a host living on shard hs to the next free port and
// returns the host's address, which is its port number. deliver runs on
// hs's kernel, in steps, for every packet forwarded to the host. e must be
// the engine the switch was created on. Hosts sharing a shard (coarse
// partitions) share the underlying shard links; the switch's queues stay
// per host.
func (sw *Switch) Attach(e *shard.Engine, hs *shard.Shard, deliver DeliverFunc) int {
	if len(sw.ports) >= sw.cfg.Ports {
		panic(fmt.Sprintf("fabric: switch %s out of ports (%d)", sw.name, sw.cfg.Ports))
	}
	host := len(sw.ports)
	nflows := sw.cfg.Ports * int(NumClasses)
	pt := &port{
		flows:   make([]vq, nflows),
		busy:    make([]uint64, (nflows+63)/64),
		wake:    sw.k.NewEvent(fmt.Sprintf("%s.p%d", sw.name, host)),
		hs:      hs,
		deliver: deliver,
		stats:   PortStats{Port: host},
	}
	for _, q := range sw.ports {
		if q.hs == hs {
			pt.up, pt.down = q.up, q.down
			break
		}
	}
	if pt.up == nil {
		pt.up = e.Connect(hs, sw.shd, sw.cfg.HopLat, linkCap, sw.arrive)
		pt.down = e.Connect(sw.shd, hs, sw.cfg.HopLat, linkCap,
			func(d *shard.Delivery) (sim.Time, bool) {
				pkt := d.Payload.(Packet)
				return sw.ports[pkt.Dst].deliver(d, pkt)
			})
	}
	sw.ports = append(sw.ports, pt)
	pt.sched = sw.k.SpawnSpin(fmt.Sprintf("%s.egress%d", sw.name, host), func() (sim.Time, bool) {
		return sw.egress(pt)
	})
	return host
}

// HopLatency returns the attach-link lookahead (one hop, one way).
func (sw *Switch) HopLatency() sim.Time { return sw.cfg.HopLat }

// SerTime returns the wire serialization time of a packet of the given size
// at the port bandwidth.
func (sw *Switch) SerTime(bytes int) sim.Time {
	return sim.Time(float64(bytes) / sw.cfg.BW * float64(sim.Nanosecond))
}

// Ingress sends a packet into the fabric. It must be called from a process
// on the source host's shard (the declared boundary); extra is any
// sender-side delay (NIC egress serialization, drawn spikes) added on top of
// the hop propagation. The packet arrives at the switch's ingress port
// extra + HopLat after now.
func (sw *Switch) Ingress(p *sim.Proc, extra sim.Time, pkt Packet) {
	if extra < 0 {
		extra = 0
	}
	if n := len(sw.ports); pkt.Src < 0 || pkt.Src >= n || pkt.Dst < 0 || pkt.Dst >= n {
		panic(fmt.Sprintf("fabric: packet %d -> %d names an unattached host", pkt.Src, pkt.Dst))
	}
	sw.ports[pkt.Src].up.Send(p, sw.cfg.HopLat+extra, pkt)
}

// arrive runs on the switch shard for each packet delivered by an up link,
// in two steps. Step 0 is port-down and ingress admission; a packet
// admitted to the routing pipeline occupies it for RouteLat. Step 1 is the
// routing stage (blackhole and frame checks), then egress admission. Every
// fault draw is keyed by the packet's (source, per-source sequence)
// identity, taken at step 0 in the source's own send order and carried to
// step 1 in d.State — see the fault-domain notes in internal/fault.
func (sw *Switch) arrive(d *shard.Delivery) (sim.Time, bool) {
	pkt := d.Payload.(Packet)
	in, out := sw.ports[pkt.Src], sw.ports[pkt.Dst]
	now := d.Proc.Now()
	if d.Step == 0 {
		if sw.flt != nil {
			// A source's packets reach the switch in its own send order, so
			// the sequence is invariant under any host partition.
			in.seq++
			d.State = in.seq
			if span := sw.flt.PortDown(pkt.Src, in.seq); span > 0 {
				in.flap.extend(now, span)
			}
		}
		if sw.isDown(pkt.Src, now) {
			in.stats.IngressDownDrops++
			sw.event(pkt.Src)
			return 0, false
		}
		if in.inFlight >= ingressCap {
			in.stats.IngressDrops++
			sw.event(pkt.Src)
			return 0, false
		}
		in.inFlight++
		in.stats.IngressAdmitted++
		return sw.cfg.RouteLat, true
	}
	in.inFlight--

	seq := d.State
	if sw.flt != nil {
		// Routing stage: a drawn blackhole window swallows everything
		// routed toward this destination; an in-switch corruption fails
		// the frame check on this packet alone.
		if span := sw.flt.Blackhole(pkt.Src, seq); span > 0 {
			out.blackhole.extend(now, span)
		}
		if out.blackhole.active(now) {
			in.stats.BlackholeDrops++
			sw.event(pkt.Src)
			return 0, false
		}
		if sw.flt.FabricCorrupt(pkt.Src, seq) {
			in.stats.CorruptDrops++
			sw.event(pkt.Src)
			return 0, false
		}
	}

	if sw.isDown(pkt.Dst, now) {
		// Egress admission toward a downed port is refused; packets
		// already queued on it keep draining (the flap gates admission,
		// not the store-and-forward pipeline).
		out.stats.EgressDownDrops++
		sw.event(pkt.Dst)
		return 0, false
	}
	if sw.flt != nil {
		if span := sw.flt.Brownout(pkt.Src, seq); span > 0 {
			out.brown.extend(now, span)
		}
	}
	fi := pkt.Src*int(NumClasses) + int(pkt.Class)
	f := &out.flows[fi]
	if f.len() >= sw.cfg.FlowCap {
		out.stats.EgressDrops++
		sw.event(pkt.Dst)
		return 0, false
	}
	f.q = append(f.q, entry{at: now, pkt: pkt})
	out.busy[fi/64] |= 1 << (fi % 64)
	out.queued++
	out.stats.Admitted++
	if out.queued > out.stats.HighWater {
		out.stats.HighWater = out.queued
	}
	sw.event(pkt.Dst)
	out.wake.Signal()
	return 0, false
}

// isDown reports whether port i refuses admission at instant now, from a
// drawn flap window or a scripted outage.
func (sw *Switch) isDown(i int, now sim.Time) bool {
	if sw.ports[i].flap.active(now) {
		return true
	}
	for _, o := range sw.cfg.Outages {
		if o.Port == i && o.From <= now && now < o.To {
			return true
		}
	}
	return false
}

// Faults returns the switch's injector (nil when unarmed), for stats
// aggregation.
func (sw *Switch) Faults() *fault.Injector { return sw.flt }

// egress is one port's scheduler, a bodiless process that runs one step
// per wake: hand the packet that finished serializing, if any, to the
// destination's down link; then await work, defer decisions one
// arbitration interval past the triggering arrival (strict-timestamp
// eligibility), pick by DRR or FIFO, and serialize the next packet.
func (sw *Switch) egress(pt *port) (sim.Time, bool) {
	if pt.serQ > 0 {
		pkt := pt.wire
		pt.wire = Packet{}
		pt.serQ--
		pt.stats.Forwarded++
		pt.stats.Bytes += int64(pkt.Bytes)
		pt.stats.ClassPkts[pkt.Class]++
		sw.event(pt.stats.Port)
		pt.down.Send(pt.sched, sw.cfg.HopLat, pkt)
	}
	if pt.queued == 0 {
		return pt.sched.Await(pt.wake)
	}
	now := sw.k.Now()
	f, ok := sw.pick(pt, now)
	if !ok {
		// Everything queued arrived at this exact instant and is not
		// yet eligible: decide one arbitration interval later.
		return sw.cfg.SchedLat, true
	}
	fl := &pt.flows[f]
	e := fl.pop()
	if fl.len() == 0 { // classic DRR: an emptied queue forfeits its deficit
		fl.deficit = 0
		fl.serving = false
		pt.busy[f/64] &^= 1 << (f % 64)
	}
	pt.queued--
	pt.serQ++
	pt.wire = e.pkt
	ser := sw.SerTime(e.pkt.Bytes)
	if pt.brown.active(now) {
		// Browned-out transceiver: the wire runs derated. The window
		// test uses the service-start instant, itself strictly later
		// than the draw that opened the window.
		ser *= brownoutFactor
	}
	return ser, true
}

// pick selects the next virtual queue to serve at instant now, or reports
// that nothing is eligible yet. Only packets with admission timestamps
// strictly before now participate (see the package comment).
func (sw *Switch) pick(pt *port, now sim.Time) (int, bool) {
	if sw.cfg.FIFO {
		return sw.pickFIFO(pt, now)
	}
	return sw.pickDRR(pt, now)
}

// pickFIFO serves in admission order: the eligible head with the smallest
// timestamp, ties broken by flow index (source port, then class). The
// tie-break deliberately avoids any notion of same-instant admission order —
// that order is partition-dependent when hosts share shards — while within a
// flow the queue order is the source's own send order, which is invariant.
// Only the nonempty queues the busy mask names are visited, in index order.
func (sw *Switch) pickFIFO(pt *port, now sim.Time) (int, bool) {
	best, ok := -1, false
	var bestAt sim.Time
	for w, word := range pt.busy {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			f := &pt.flows[i]
			h := &f.q[f.head]
			if h.at >= now {
				continue
			}
			if !ok || h.at < bestAt {
				best, ok, bestAt = i, true, h.at
			}
		}
	}
	return best, ok
}

// gap returns how many empty queues lie cyclically from index i up to the
// next nonempty one, by the busy mask: 0 when flows[i] is nonempty, and
// len(flows)+1, beyond any scan's budget, when every queue is empty.
func (pt *port) gap(i int) int {
	n, w := len(pt.flows), i/64
	if word := pt.busy[w] >> (i % 64); word != 0 {
		return bits.TrailingZeros64(word)
	}
	for k := 1; k <= len(pt.busy); k++ {
		wk := (w + k) % len(pt.busy)
		if word := pt.busy[wk]; word != 0 {
			j := wk*64 + bits.TrailingZeros64(word)
			if j < i {
				j += n
			}
			return j - i
		}
	}
	return n + 1
}

// pickDRR is deficit round robin over the eligible virtual queues, visited
// in fixed index order from a persistent cursor, at most len(flows)+1
// visits per decision. A queue entering service earns one quantum; it keeps
// the cursor while its deficit covers the head packet, and a queue that
// empties forfeits its residual deficit (classic DRR, so the deficit
// invariant pt.flows[i].deficit <= Quantum + maxBytes holds —
// internal/check enforces it).
//
// An empty queue holds no deficit and is not serving (egress clears both as
// it drains the queue, and CheckPort enforces it), so a visit to one only
// moves the cursor on. The scan jumps each run of empty queues the busy
// mask shows, charging the run to its visit budget and its cursor as the
// visits one by one would.
func (sw *Switch) pickDRR(pt *port, now sim.Time) (int, bool) {
	n := len(pt.flows)
	for scanned := 0; scanned <= n; scanned++ {
		if skip := pt.gap(pt.cursor); skip > 0 {
			if scanned += skip; scanned > n {
				// The budget runs out inside the run.
				pt.cursor = (pt.cursor + skip - (scanned - n - 1)) % n
				break
			}
			pt.cursor = (pt.cursor + skip) % n
		}
		f := &pt.flows[pt.cursor]
		h := &f.q[f.head]
		if h.at >= now {
			// Not yet eligible: skip without ending the queue's turn or
			// charging quantum — the decision replays after SchedLat, and
			// the serving flag (pure function of timestamps) survives.
			pt.cursor = (pt.cursor + 1) % n
			continue
		}
		if !f.serving {
			f.deficit += sw.cfg.Quantum
			f.serving = true
		}
		if f.deficit >= h.pkt.Bytes {
			f.deficit -= h.pkt.Bytes
			return pt.cursor, true
		}
		// Deficit exhausted: turn ends, deficit carries to the next round.
		f.serving = false
		pt.cursor = (pt.cursor + 1) % n
	}
	return -1, false
}

// PortStats is one port's counters, egress and ingress side. Each port's
// record is updated in place as packets cross it; drops are counted on the
// port where the packet died.
type PortStats struct {
	Port            int
	Admitted        int64 // packets admitted to egress queues
	Forwarded       int64 // packets serialized onto the wire
	Bytes           int64 // wire bytes sent
	EgressDrops     int64 // tail drops at the (source, class) queues
	IngressAdmitted int64 // packets admitted to the routing pipeline
	IngressDrops    int64 // arrivals refused by a full routing pipeline
	ClassPkts       [NumClasses]int64
	HighWater       int // peak queued packets
	Queued          int // packets still queued (nonzero mid-run)

	// Fault-domain drops (zero on an unarmed switch).
	IngressDownDrops int64 // arrival refused: the packet's own port is down
	EgressDownDrops  int64 // egress admission refused: the destination port is down
	BlackholeDrops   int64 // swallowed by a routing blackhole window
	CorruptDrops     int64 // discarded at the frame check
}

// add sums o's counters into s; HighWater keeps the larger peak.
func (s *PortStats) add(o *PortStats) {
	s.Admitted += o.Admitted
	s.Forwarded += o.Forwarded
	s.Bytes += o.Bytes
	s.EgressDrops += o.EgressDrops
	s.IngressAdmitted += o.IngressAdmitted
	s.IngressDrops += o.IngressDrops
	for c := range s.ClassPkts {
		s.ClassPkts[c] += o.ClassPkts[c]
	}
	s.HighWater = max(s.HighWater, o.HighWater)
	s.Queued += o.Queued
	s.IngressDownDrops += o.IngressDownDrops
	s.EgressDownDrops += o.EgressDownDrops
	s.BlackholeDrops += o.BlackholeDrops
	s.CorruptDrops += o.CorruptDrops
}

// FaultDrops sums the fault-domain drops.
func (s PortStats) FaultDrops() int64 {
	return s.IngressDownDrops + s.EgressDownDrops + s.BlackholeDrops + s.CorruptDrops
}

// Drops sums every drop, fault drops included.
func (s PortStats) Drops() int64 { return s.EgressDrops + s.IngressDrops + s.FaultDrops() }

// Stats is a snapshot of every port's counters.
type Stats struct {
	Ports []PortStats
}

// Total sums the counters of every port. Its Port is -1 and its HighWater
// the largest port's.
func (s Stats) Total() PortStats {
	t := PortStats{Port: -1}
	for i := range s.Ports {
		t.add(&s.Ports[i])
	}
	return t
}

// Forwarded sums forwarded packets across ports.
func (s Stats) Forwarded() int64 { return s.Total().Forwarded }

// Drops sums every drop across ports (fault drops included).
func (s Stats) Drops() int64 { return s.Total().Drops() }

// FaultDrops sums the fault-domain drops across ports.
func (s Stats) FaultDrops() int64 { return s.Total().FaultDrops() }

// Bytes sums wire bytes across ports.
func (s Stats) Bytes() int64 { return s.Total().Bytes }

// String renders the aggregate counters (deterministic; used in cluster
// fingerprints).
func (s Stats) String() string {
	t := s.Total()
	var b strings.Builder
	fmt.Fprintf(&b, "fabric: %d pkts forwarded (%d rpc, %d bulk), %d drops, %.1f MB",
		t.Forwarded, t.ClassPkts[ClassRPC], t.ClassPkts[ClassBulk], t.Drops(),
		float64(t.Bytes)/1e6)
	// The fault-domain breakdown appears only when something fired, so a
	// fault-free run's fingerprint is byte-identical to pre-fault builds.
	if t.FaultDrops() > 0 {
		fmt.Fprintf(&b, " [fault drops: %d portdown, %d blackhole, %d corrupt]",
			t.IngressDownDrops+t.EgressDownDrops, t.BlackholeDrops, t.CorruptDrops)
	}
	return b.String()
}

// Stats snapshots every port's counters.
func (sw *Switch) Stats() Stats {
	st := Stats{Ports: make([]PortStats, len(sw.ports))}
	for i, pt := range sw.ports {
		st.Ports[i] = pt.stats
		st.Ports[i].Queued = pt.queued
	}
	return st
}

// CheckPort validates one egress port's conservation and DRR invariants,
// returning a descriptive error on violation. internal/check calls it from
// the probe hook; it is exported so the checker needs no private access.
func (sw *Switch) CheckPort(port int) error {
	pt := sw.ports[port]
	queued := 0
	for i := range pt.flows {
		f := &pt.flows[i]
		queued += f.len()
		if f.deficit < 0 {
			return fmt.Errorf("fabric %s port %d flow %d: negative deficit %d", sw.name, port, i, f.deficit)
		}
		if max := sw.cfg.Quantum + maxQueuedBytes(f); f.deficit > max {
			return fmt.Errorf("fabric %s port %d flow %d: deficit %d exceeds quantum+head bound %d",
				sw.name, port, i, f.deficit, max)
		}
		if f.len() > sw.cfg.FlowCap {
			return fmt.Errorf("fabric %s port %d flow %d: occupancy %d exceeds cap %d",
				sw.name, port, i, f.len(), sw.cfg.FlowCap)
		}
		// pickDRR's skip over empty queues rests on these.
		if busy := pt.busy[i/64]&(1<<(i%64)) != 0; busy != (f.len() > 0) {
			return fmt.Errorf("fabric %s port %d flow %d: busy bit %v with %d packets queued",
				sw.name, port, i, busy, f.len())
		}
		if f.len() == 0 && (f.deficit != 0 || f.serving) {
			return fmt.Errorf("fabric %s port %d flow %d: empty queue holds deficit %d, serving %v",
				sw.name, port, i, f.deficit, f.serving)
		}
	}
	if queued != pt.queued {
		return fmt.Errorf("fabric %s port %d: queued counter %d != queue contents %d",
			sw.name, port, pt.queued, queued)
	}
	if pt.serQ < 0 || pt.serQ > 1 {
		return fmt.Errorf("fabric %s port %d: %d packets serializing on one wire", sw.name, port, pt.serQ)
	}
	if s := &pt.stats; s.Admitted != s.Forwarded+int64(pt.queued)+int64(pt.serQ) {
		return fmt.Errorf("fabric %s port %d: conservation broken: admitted %d != forwarded %d + queued %d + serializing %d",
			sw.name, port, s.Admitted, s.Forwarded, pt.queued, pt.serQ)
	}
	return nil
}

// CheckConservation validates packet conservation across the whole switch:
// every ingress-admitted packet must be in the routing pipeline, accounted
// as a fault or tail drop, queued, serializing, or forwarded — the no-
// silent-loss half that lives inside the fabric (the transport half lives
// in cluster.CheckDelivery). internal/check runs it alongside CheckPort.
func (sw *Switch) CheckConservation() error {
	var t PortStats
	var inFlight int64
	for _, pt := range sw.ports {
		t.add(&pt.stats)
		inFlight += int64(pt.inFlight)
	}
	routeDrops := t.BlackholeDrops + t.CorruptDrops
	egRefused := t.EgressDrops + t.EgressDownDrops
	if t.IngressAdmitted != inFlight+routeDrops+egRefused+t.Admitted {
		return fmt.Errorf("fabric %s: switch conservation broken: ingress-admitted %d != in-pipeline %d + route drops %d + egress-refused %d + egress-admitted %d",
			sw.name, t.IngressAdmitted, inFlight, routeDrops, egRefused, t.Admitted)
	}
	return nil
}

// NumPorts returns the number of attached ports.
func (sw *Switch) NumPorts() int { return len(sw.ports) }

// maxQueuedBytes returns the largest queued packet's size (0 when empty):
// the slack a deficit may legitimately hold beyond one quantum is bounded by
// the packet the queue was waiting to afford.
func maxQueuedBytes(f *vq) int {
	m := 0
	for i := f.head; i < len(f.q); i++ {
		if b := f.q[i].pkt.Bytes; b > m {
			m = b
		}
	}
	return m
}
