// Package cluster models a multi-host CC-NIC deployment: M member nodes,
// each a complete host + NIC pipeline on its own simulation kernel, coupled
// *only* through a modeled switched fabric (internal/fabric). Each node (or
// group of nodes) is one shard of the parallel runtime, the switch is its
// own shard, and the host↔switch hop propagation plus the PCIe attach's
// one-way latency is the conservative lookahead. All cross-node traffic —
// including between nodes that share a shard — crosses the switch, where it
// is routed, queued per (source, class), and scheduled by deficit round
// robin (or FIFO, for ablations) against the port bandwidth.
//
// The node model is behavioural and deliberately fine-grained in events —
// per-cacheline payload movement, per-stage pipeline costs from the
// platform calibration — so a cluster run exercises the simulator the way
// the single-machine experiments do, at multi-socket scale. On top of the
// closed-loop RPC application, aggregated open-loop tenant flows (flows.go)
// model large client populations without per-client processes.
//
// Every process of a node is bodiless (sim.Kernel.SpawnSpin), so a cluster
// run makes no coroutine switch: the application issue loop (issuer), the
// NIC TX pipeline (txPipe), each flow generator, the reliable transport's
// watchdog and health prober, and each delivery run as steps that sleep by
// returning the time and block on an event by returning sim.Proc.Await's
// result.
//
// # Partition invariance
//
// A cluster's results are bit-identical for every shard count and every
// worker count. Worker invariance comes from the shard engine; switch-level
// invariance from internal/fabric's strict-timestamp scheduling; the rest is
// a property of this model, maintained by construction:
//
//   - every timing perturbation (fault draws, service jitter, flow
//     interarrivals and sizes) is drawn on the *sending* node, in sequence
//     order, keyed by that sender's own identity (a fault injector at the
//     stable node id's site; per-generator seeded rngs) — never in arrival
//     order, which differs between partitions;
//   - arrival-side handling is per-message (each delivery runs as its own
//     bodiless process, whose steps charge the receive path's costs) with
//     no order-sensitive shared resources: window accounting, flow counters,
//     and histogram records all commute across same-instant arrivals.
package cluster

import (
	"fmt"
	"strings"

	"ccnic/internal/fabric"
	"ccnic/internal/fault"
	"ccnic/internal/interconn"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
	"ccnic/internal/sim/shard"
	"ccnic/internal/stats"
)

// Pattern selects the closed-loop application's destination pattern.
type Pattern uint8

const (
	// PatternSpread: node i's request seq goes to (seq mod (hosts-1)),
	// skipping itself — uniform all-to-all.
	PatternSpread Pattern = iota
	// PatternIncast: every node sends to host 0, which only serves — the
	// fan-in congestion shape of the fabric-incast experiment.
	PatternIncast
)

// Signal selects the host→NIC signaling model, the axis of the
// fabric-crossover experiment (Fig. 21's method under fabric contention).
type Signal uint8

const (
	// SignalCCNIC: coherent doorbell — a dirty-line handoff (LocalFwd)
	// and an LLC-speed descriptor fetch.
	SignalCCNIC Signal = iota
	// SignalPCIe: conventional attach — a posted MMIO doorbell write and
	// a device-initiated descriptor DMA round trip.
	SignalPCIe
)

// DefaultHosts is the member count a zero Config.Hosts stands for.
const DefaultHosts = 4

// Config describes a cluster.
type Config struct {
	// Hosts is the number of member nodes (>= 2; 0 = DefaultHosts).
	Hosts int
	// Shards is the number of shards the node set is partitioned into:
	// nodes are grouped contiguously, ceil(Hosts/Shards) per shard. The
	// switch always runs as one additional shard of its own. 0 defaults
	// to one shard per node (the finest partition). Results are
	// bit-identical for every value.
	Shards int
	// Workers is the shard engine's worker-goroutine budget (0 defaults
	// to 1, fully serial: a cluster runs on the one CPU its caller holds).
	// Never affects results.
	Workers int
	// Plat selects the member platform (nil = ICX).
	Plat *platform.Platform
	// Window is each node's closed-loop outstanding-request window
	// (default 32).
	Window int
	// ReqSize is the RPC request/response payload in bytes (default 4096,
	// a storage/RDMA-class transfer: payload movement then dominates the
	// event mix, as it does on real fabrics).
	ReqSize int
	// Pattern selects the request destination pattern (default spread).
	Pattern Pattern
	// Signaling selects the host→NIC signaling model (default CC-NIC).
	Signaling Signal
	// FabricFIFO disables the switch's DRR fair queuing (ablation: egress
	// serves strictly in arrival order).
	FabricFIFO bool
	// Flows arms aggregated open-loop tenant flow generators (flows.go).
	Flows []FlowSpec
	// Faults optionally arms fault injection; each node draws at its node
	// id's site and switch v at site -(v+1) (fault.NewInjector), so
	// schedules are reproducible regardless of Shards and Workers.
	Faults *fault.Plan

	// Reliable arms the end-to-end transport (reliable.go): per-RPC
	// timeouts, retransmission with exponential backoff and a retry
	// budget, duplicate suppression, SLO-aware degraded mode, per-tenant
	// circuit breakers, and (with Switches == 2) health-probe-driven
	// failover. Off by default: an unreliable run is byte-identical to
	// the pre-transport model.
	Reliable bool
	// Switches selects the fabric topology: 1 (default) or 2 redundant
	// switches, every host attached to both at the same port number. The
	// redundant pair needs Reliable: routing across it is the transport's.
	Switches int
	// RTO is the base per-RPC retransmission timeout (default 20us); it
	// doubles with each retransmission of the same RPC.
	RTO sim.Time
	// RetryBudget bounds retransmissions per RPC (default 3). Past the
	// budget the RPC is retired as Exhausted — accounted, never silent.
	RetryBudget int
	// DegradedWindow is how long a node sheds bulk-class flow traffic
	// after transport distress (default 15us).
	DegradedWindow sim.Time
	// Outages scripts deterministic port outages on the switches, for
	// recovery-timeline experiments and tests.
	Outages []ScriptedOutage
	// PhaseMarks partitions each node's RPC latency histogram into
	// phases: records at instants <= mark fall in the phase before it.
	// Phase assignment is a pure function of the record timestamp, so it
	// is partition-invariant by construction. The marks must strictly
	// increase.
	PhaseMarks []sim.Time
}

// ScriptedOutage is one scripted administrative outage: the given port of
// the given switch admits nothing for From <= now < To.
type ScriptedOutage struct {
	Switch   int
	Port     int
	From, To sim.Time
}

// Message is one RPC (or its response, or one open-loop flow packet)
// crossing the fabric.
type Message struct {
	From, To int
	Seq      int64
	Resp     bool
	Sent     sim.Time // issue instant, for end-to-end latency
	Bytes    int
	Class    fabric.Class

	// Flow is 0 for closed-loop RPC traffic, or 1 + the FlowSpec index.
	Flow int
	// Tenant is the Zipf-drawn tenant id of a flow packet.
	Tenant int
	// Tracked marks the sampled tail of a flow: only tracked packets get
	// a response and a latency record (per-flow state stays O(samples)).
	Tracked bool

	// Via is the switch index the packet crosses (0 on single-switch
	// topologies); the sender reads it from its routing table.
	Via uint8
	// Probe marks a self-addressed health probe (reliable.go).
	Probe bool

	// Sender-drawn perturbations (see the package comment): a TX pipeline
	// stall and egress latency spike for the request, a service-side
	// delay, and an egress spike for the eventual response.
	txStall, txSpike, svcDelay, respSpike sim.Time
}

// Node is one cluster member: a host core issuing RPCs, a NIC TX pipeline,
// per-message RX/service handling, and any flow generators, all on the
// node's kernel.
type Node struct {
	id int
	c  *Cluster
	k  *sim.Kernel

	// port is the node-internal host-NIC interconnect (UPI-class): the
	// TX pipeline charges it for descriptor+payload movement, so egress
	// is bandwidth-limited per node.
	port *interconn.Link
	flt  *fault.Injector

	txq      []Message
	txHead   int
	txWake   *sim.Event
	inFlight int
	winWake  *sim.Event
	seq      int64

	// Reliable-transport state (reliable.go; nil/empty when !Reliable).
	// All of it is node-local: read and written only on this node's
	// shard, so every counter is partition-invariant.
	pend          map[int64]*pendRPC // outstanding RPCs by Seq
	flowPend      map[int64]*flowTrack
	retx          retxHeap // deadline min-heap
	retxWake      *sim.Event
	wdog, prober  *sim.Proc // the watchdog and health prober (bodiless)
	probing       bool      // the prober has had its first wake
	routeVia      []uint8   // per destination: current switch
	dstStrikes    []int     // per destination: consecutive timeouts
	swHealthy     []bool    // per switch: probe-derived health
	probeRing     []uint64
	probeAwait    []int64
	probeGot      []bool
	probeSeq      int64
	distress      int
	degradedUntil sim.Time
	phaseIdx      int

	// Results (deterministic).
	Sent, Served, Done int64
	Lat                stats.Histogram
	// Phases holds the latency histograms of completed PhaseMarks phases.
	Phases []stats.Histogram
	// Flow-side results: packets this node generated, and the tracked
	// round-trip tail measured back at this node.
	FlowSent int64
	FlowLat  stats.Histogram
	Recovery
}

// Recovery holds the reliable transport's counters (reliable.go), all zero
// when the transport is off. Nodes count them; Report sums them.
type Recovery struct {
	Retransmits, Timeouts, Exhausted, DupResps int64
	Degraded, Shed, BreakerTrips, FlowTimeouts int64
	Failovers, Failbacks                       int64
	ProbesSent, ProbesMissed                   int64
}

func (r *Recovery) add(o *Recovery) {
	r.Retransmits += o.Retransmits
	r.Timeouts += o.Timeouts
	r.Exhausted += o.Exhausted
	r.DupResps += o.DupResps
	r.Degraded += o.Degraded
	r.Shed += o.Shed
	r.BreakerTrips += o.BreakerTrips
	r.FlowTimeouts += o.FlowTimeouts
	r.Failovers += o.Failovers
	r.Failbacks += o.Failbacks
	r.ProbesSent += o.ProbesSent
	r.ProbesMissed += o.ProbesMissed
}

// Cluster is an assembled multi-host simulation.
type Cluster struct {
	Engine *shard.Engine
	Nodes  []*Node
	// Switch is the primary fabric switch; Switches lists all of them
	// (len 1 unless Config.Switches selects the redundant topology).
	Switch   *fabric.Switch
	Switches []*fabric.Switch

	cfg       Config
	plat      *platform.Platform
	fabric    platform.FabricParams
	nodeShard []int // node id -> shard id
	flows     []flowAgg
}

// Validate reports the first topology or flow-spec error in the
// configuration, or nil. Zero values stand for the defaults New fills in.
func (cfg Config) Validate() error {
	switch {
	case cfg.Hosts < 0 || cfg.Hosts == 1:
		return fmt.Errorf("cluster: need at least 2 hosts, not %d", cfg.Hosts)
	case cfg.Switches < 0 || cfg.Switches > 2:
		return fmt.Errorf("cluster: %d switches: only 1 or 2 (a redundant pair) are modeled", cfg.Switches)
	case cfg.Switches == 2 && !cfg.Reliable:
		return fmt.Errorf("cluster: 2 switches need Reliable (routing across the redundant pair is the transport's job)")
	}
	switches := max(cfg.Switches, 1)
	for _, o := range cfg.Outages {
		if o.Switch < 0 || o.Switch >= switches {
			return fmt.Errorf("cluster: scripted outage on unknown switch %d", o.Switch)
		}
	}
	hosts := cfg.Hosts
	if hosts == 0 {
		hosts = DefaultHosts
	}
	for v := 0; v < switches; v++ {
		// New derives HopLat from the platform, always positive; any
		// positive stand-in checks the rest of the switch's geometry.
		sw := fabric.Config{Ports: hosts, HopLat: sim.Nanosecond, Outages: cfg.outagesOn(v)}
		if err := sw.Validate(); err != nil {
			return fmt.Errorf("cluster: switch %d: %w", v, err)
		}
	}
	for i := 1; i < len(cfg.PhaseMarks); i++ {
		if cfg.PhaseMarks[i] <= cfg.PhaseMarks[i-1] {
			return fmt.Errorf("cluster: PhaseMarks must strictly increase, but mark %d (%v) follows %v",
				i, cfg.PhaseMarks[i], cfg.PhaseMarks[i-1])
		}
	}
	for _, f := range cfg.Flows {
		if f.Dst < 0 || f.Dst >= hosts {
			return fmt.Errorf("cluster: flow %q dst %d out of range", f.Name, f.Dst)
		}
		for _, src := range f.Srcs {
			if src < 0 || src >= hosts || src == f.Dst {
				return fmt.Errorf("cluster: flow %q has invalid source %d", f.Name, src)
			}
		}
		if f.Dist != "" && f.Dist != "ads" && f.Dist != "geo" {
			return fmt.Errorf("cluster: flow %q has unknown size distribution %q", f.Name, f.Dist)
		}
	}
	return nil
}

// outagesOn returns the scripted outages of switch v.
func (cfg Config) outagesOn(v int) []fabric.Outage {
	var outages []fabric.Outage
	for _, o := range cfg.Outages {
		if o.Switch == v {
			outages = append(outages, fabric.Outage{Port: o.Port, From: o.From, To: o.To})
		}
	}
	return outages
}

// New assembles a cluster. It panics on a configuration Validate rejects,
// matching the repo's construction-time validation style.
func New(cfg Config) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if cfg.Hosts == 0 {
		cfg.Hosts = DefaultHosts
	}
	if cfg.Shards <= 0 || cfg.Shards > cfg.Hosts {
		cfg.Shards = cfg.Hosts
	}
	if cfg.Window <= 0 {
		cfg.Window = 32
	}
	if cfg.ReqSize <= 0 {
		cfg.ReqSize = 4096
	}
	if cfg.Switches == 0 {
		cfg.Switches = 1
	}
	if cfg.RTO <= 0 {
		cfg.RTO = 20 * sim.Microsecond
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = 3
	}
	if cfg.DegradedWindow <= 0 {
		cfg.DegradedWindow = 15 * sim.Microsecond
	}
	plat := cfg.Plat
	if plat == nil {
		plat = platform.ICX()
	}

	c := &Cluster{
		Engine: shard.NewEngine(cfg.Workers),
		cfg:    cfg,
		plat:   plat,
		fabric: plat.Fabric(),
	}

	// Contiguous partition: ceil(Hosts/Shards) nodes per shard.
	group := (cfg.Hosts + cfg.Shards - 1) / cfg.Shards
	shards := make([]*shard.Shard, 0, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		shards = append(shards, c.Engine.NewShard(fmt.Sprintf("node%d", s*group), sim.New()))
	}
	c.nodeShard = make([]int, cfg.Hosts)

	nodeLink := interconn.Profile{Name: "UPI", WireBW: plat.UPIBandwidth,
		Header: plat.UPIHeader, CtrlMsg: plat.UPICtrlMsg}
	for i := 0; i < cfg.Hosts; i++ {
		s := i / group
		c.nodeShard[i] = s
		k := shards[s].Kernel()
		n := &Node{
			id:      i,
			c:       c,
			k:       k,
			port:    interconn.NewWithProfile(nodeLink),
			flt:     fault.NewInjector(cfg.Faults, i),
			txWake:  k.NewEvent(fmt.Sprintf("n%d.tx", i)),
			winWake: k.NewEvent(fmt.Sprintf("n%d.win", i)),
		}
		c.Nodes = append(c.Nodes, n)
	}

	// The switches, each on its own shard. Each attach hop's latency —
	// the declared lookahead — is the wire propagation plus the node's
	// PCIe attach one-way time, crossed once in each direction. The DRR
	// byte quantum covers a few RPCs per round but never less than a bulk
	// MTU's worth of progress. On the redundant topology every host is
	// attached to both switches at the same port number; which switch a
	// packet crosses is the sender's routing decision (Message.Via).
	quantum := 2 * cfg.ReqSize
	if quantum < 4096 {
		quantum = 4096
	}
	for v := 0; v < cfg.Switches; v++ {
		name := "fabric"
		if v > 0 {
			name = fmt.Sprintf("fabric%d", v)
		}
		sw := fabric.New(c.Engine, name, fabric.Config{
			Ports:    cfg.Hosts,
			BW:       c.fabric.BW,
			HopLat:   c.fabric.HopLat + plat.PCIe.OneWay,
			RouteLat: c.fabric.RouteLat,
			SchedLat: c.fabric.SchedLat,
			FIFO:     cfg.FabricFIFO,
			Quantum:  quantum,
			Faults:   fault.NewInjector(cfg.Faults, -(v + 1)),
			Outages:  cfg.outagesOn(v),
		})
		c.Switches = append(c.Switches, sw)
		for i := range c.Nodes {
			sw.Attach(c.Engine, shards[c.nodeShard[i]], c.receive)
		}
	}
	c.Switch = c.Switches[0]

	c.startFlows()
	for _, n := range c.Nodes {
		n.start()
		n.startTransport()
	}
	return c
}

// Lookahead returns the declared per-hop fabric lookahead (host↔switch).
func (c *Cluster) Lookahead() sim.Time { return c.Switch.HopLatency() }

// Run advances the whole cluster to virtual time until.
func (c *Cluster) Run(until sim.Time) error { return c.Engine.Run(until) }

// Close shuts down every shard kernel, discarding the daemons (clients,
// servers, transports) a run leaves parked at its horizon, so a finished
// cluster pins no goroutines. Read reports before closing; a closed cluster
// must not be run again.
func (c *Cluster) Close() {
	for _, s := range c.Engine.Shards() {
		s.Kernel().Shutdown()
	}
}

// Events returns the total executed event count across all member kernels
// (including the switch shard).
func (c *Cluster) Events() uint64 {
	var total uint64
	for _, s := range c.Engine.Shards() {
		total += s.Kernel().Events()
	}
	return total
}

// send pushes a message into the switch named by m.Via from node `from`,
// with any sender-side extra delay (egress serialization, drawn spikes) on
// top of the hop propagation. All traffic — same-shard or not — takes this
// path.
func (c *Cluster) send(p *sim.Proc, from int, extra sim.Time, m Message) {
	c.Switches[m.Via].Ingress(p, extra, fabric.Packet{
		Src: from, Dst: m.To, Class: m.Class, Bytes: m.Bytes, Payload: m,
	})
}

// lineTime is the per-cacheline cost of streaming payload through a node
// pipeline stage at the platform's core streaming bandwidth.
func (c *Cluster) lineTime() sim.Time {
	return sim.Time(float64(platform.CacheLine) / c.plat.CoreStreamBW * float64(sim.Nanosecond))
}

// nicSer is the node NIC's own egress serialization time for one payload at
// the fabric line rate: the switch charges the same rate again at its
// egress port, as a real store-and-forward hop does.
func (c *Cluster) nicSer(bytes int) sim.Time {
	return sim.Time(float64(bytes) / c.fabric.BW * float64(sim.Nanosecond))
}

// signalCosts returns the doorbell and descriptor-fetch costs of the
// configured host→NIC signaling model.
func (c *Cluster) signalCosts() (doorbell, descFetch sim.Time) {
	switch c.cfg.Signaling {
	case SignalCCNIC:
		return c.plat.LocalFwd, c.plat.LLCHit
	case SignalPCIe:
		return c.plat.PCIe.OneWay, c.plat.PCIe.DMARoundTrip
	}
	panic(fmt.Sprintf("cluster: unknown signaling model %d", c.cfg.Signaling))
}

// svcJitter derives a deterministic per-request service-time variation from
// the message identity (splitmix64), modeling application-level variance
// without any order-sensitive randomness.
func svcJitter(from int, seq int64) sim.Time {
	z := uint64(seq)*0x9E3779B97F4A7C15 + uint64(from+1)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	return sim.Time(z%32) * sim.Nanosecond
}

// start spawns the node's standing processes, both bodiless: the
// application issue loop and the NIC TX pipeline.
func (n *Node) start() {
	if n.c.cfg.Pattern == PatternIncast && n.id == 0 {
		// The incast sink only serves; it issues no requests of its own.
		return
	}
	doorbell, descFetch := n.c.signalCosts()
	a := &issuer{n: n, doorbell: doorbell}
	a.p = n.k.SpawnSpin(fmt.Sprintf("n%d.app", n.id), a.advance)
	x := &txPipe{n: n, descFetch: descFetch, lt: n.c.lineTime(),
		lines: (n.c.cfg.ReqSize + platform.CacheLine - 1) / platform.CacheLine}
	x.p = n.k.SpawnSpin(fmt.Sprintf("n%d.nictx", n.id), x.advance)
}

// issuer is a node's closed-loop application, one step per wake: await a
// window slot, draw the next RPC's perturbations and allocate its buffer,
// then fill its header, then ring the doorbell, then hand it to the NIC.
type issuer struct {
	n        *Node
	p        *sim.Proc
	doorbell sim.Time
	m        Message // the RPC being issued
	stage    int     // wakes of m's issue done; 0 between RPCs
}

func (a *issuer) advance() (sim.Time, bool) {
	n := a.n
	c := n.c
	switch a.stage {
	case 1:
		a.stage = 2
		return c.plat.L2Hit, true // header fill
	case 2:
		a.stage = 3
		return a.doorbell, true // host→NIC signal (CC-NIC or PCIe model)
	case 3:
		a.stage = 0
		m := a.m
		m.Sent = a.p.Now()
		if c.cfg.Reliable {
			m.Via = n.routeVia[m.To]
			n.registerRPC(m.Sent, m)
		}
		n.txq = append(n.txq, m)
		n.Sent++
		n.inFlight++
		n.txWake.Signal()
	}
	if n.inFlight >= c.cfg.Window {
		return a.p.Await(n.winWake)
	}
	seq := n.seq
	n.seq++
	// Destination is a pure function of the sequence number, so the
	// request stream never depends on completion order.
	dst := 0
	if c.cfg.Pattern != PatternIncast {
		dst = int(seq) % (c.cfg.Hosts - 1)
		if dst >= n.id {
			dst++
		}
	}
	m := Message{
		From: n.id, To: dst, Seq: seq,
		Bytes: c.cfg.ReqSize, Class: fabric.ClassRPC,
		svcDelay: svcJitter(n.id, seq),
	}
	// All fault draws for this RPC's lifetime happen here, on the sender,
	// in sequence order (partition invariance).
	if st := n.flt.PipelineStall(); st > 0 {
		m.txStall = st
	}
	if d := n.flt.DMADelay(); d > 0 {
		m.svcDelay += d
	}
	if spike, _ := n.flt.LinkFault(); spike > 0 {
		m.txSpike = spike
	}
	if spike, _ := n.flt.LinkFault(); spike > 0 {
		m.respSpike = spike
	}
	a.m, a.stage = m, 1
	return c.plat.L2Hit, true // buffer alloc from the node pool
}

// txPipe is a node's NIC TX pipeline, one step per wake: await a staged
// message and fetch its descriptor, then pull its payload across the
// node's host-NIC interconnect one cacheline per step (bandwidth-limited
// via the link's occupancy tracking), then sit out any drawn stall, then
// send it into the fabric.
type txPipe struct {
	n             *Node
	p             *sim.Proc
	descFetch, lt sim.Time
	lines         int
	m             Message // the message in the pipeline
	stage         int     // 0 idle; 1..lines: the wake pulls line stage-1
}

func (x *txPipe) advance() (sim.Time, bool) {
	n := x.n
	if x.stage > 0 {
		if x.stage <= x.lines {
			x.stage++
			return n.port.Data(x.p.Now(), interconn.Direction(0), platform.CacheLine) + x.lt, true
		}
		if x.stage == x.lines+1 && x.m.txStall > 0 {
			x.stage++
			return x.m.txStall, true // drawn TX pipeline stall
		}
		n.c.send(x.p, n.id, n.c.nicSer(n.c.cfg.ReqSize)+x.m.txSpike, x.m)
		x.stage = 0
	}
	if n.txHead == len(n.txq) {
		return x.p.Await(n.txWake)
	}
	x.m = n.txq[n.txHead]
	n.txHead++
	if n.txHead == len(n.txq) { // drained: reset the staging ring
		n.txq = n.txq[:0]
		n.txHead = 0
	}
	x.stage = 1
	return x.descFetch, true // descriptor fetch (LLC hit or DMA round trip)
}

// receive handles one fabric delivery on the destination node, in steps of
// its own bodiless process from the arrival instant, so same-time arrivals
// commute. Step 0 charges the DDIO deposit and descriptor write. A request
// then touches its payload one cacheline per step, charges the application
// think time with the sender-drawn variation, counts itself served and
// writes the response header, and finally sends the response.
func (c *Cluster) receive(d *shard.Delivery, pkt fabric.Packet) (sim.Time, bool) {
	plat := c.plat
	if d.Step == 0 {
		return plat.LLCHit, true // DDIO deposit + descriptor write
	}
	m := pkt.Payload.(Message)
	n := c.Nodes[m.To]
	if d.Step == 1 && m.Probe {
		n.probeReturned(m)
		return 0, false
	}
	if m.Flow > 0 {
		return c.receiveFlow(d, n, m)
	}
	if d.Step == 1 {
		if m.Resp {
			if c.cfg.Reliable && !n.completeRPC(m) {
				// Late response to an RPC already completed (an earlier
				// attempt won) or retired: suppress the duplicate. The
				// window was already released.
				n.DupResps++
				return 0, false
			}
			now := d.Proc.Now()
			n.phaseRoll(now)
			n.Lat.Record(now - m.Sent)
			n.Done++
			n.inFlight--
			n.winWake.Signal()
			return 0, false
		}
	}
	lines := (c.cfg.ReqSize + platform.CacheLine - 1) / platform.CacheLine
	switch s := d.Step - 1; {
	case s < lines:
		return c.lineTime(), true
	case s == lines:
		return plat.LLCHit + m.svcDelay, true
	case s == lines+1:
		n.Served++
		if c.cfg.Reliable {
			// The responder routes by its own table: an outage between the
			// requester and switch 0 usually bites both directions of that
			// port, and the responder's probes notice it independently.
			d.State = uint64(n.routeVia[m.From])
		}
		return plat.L2Hit, true // response header
	}
	resp := Message{
		From: m.To, To: m.From, Seq: m.Seq, Resp: true, Sent: m.Sent,
		Bytes: c.cfg.ReqSize, Class: fabric.ClassRPC, Via: uint8(d.State),
	}
	c.send(d.Proc, m.To, c.nicSer(c.cfg.ReqSize)+m.respSpike, resp)
	return 0, false
}

// Report summarizes a run. All fields are deterministic functions of the
// configuration and virtual time — bit-identical across shard and worker
// counts — which the property harness relies on.
type Report struct {
	Hosts, Shards      int
	Sent, Served, Done int64
	Events             uint64
	Now                sim.Time
	P50, P99           sim.Time

	// Open-loop flow results (zero when no flows are armed).
	FlowSent, FlowDelivered, FlowBytes int64
	FlowP50, FlowP99                   sim.Time
	TenantsSeen                        int
	TopTenantShare                     float64

	// Switch-level results, summed over every switch.
	Forwarded, Dropped int64
	FabricSummary      string

	// Recovery counters summed over nodes, plus the RPCs still awaiting a
	// response (all zero when the transport is off, so the rendered report
	// stays byte-identical to the pre-transport model on unarmed runs).
	Recovery
	Pending    int64
	FaultDrops int64
}

// Report aggregates the cluster's counters.
func (c *Cluster) Report() Report {
	r := Report{Hosts: c.cfg.Hosts, Shards: c.cfg.Shards}
	var lat, flowLat stats.Histogram
	for _, n := range c.Nodes {
		r.Sent += n.Sent
		r.Served += n.Served
		r.Done += n.Done
		r.FlowSent += n.FlowSent
		lat.Merge(&n.Lat)
		flowLat.Merge(&n.FlowLat)
		if now := n.k.Now(); now > r.Now {
			r.Now = now
		}
	}
	r.Events = c.Events()
	r.P50 = lat.Median()
	r.P99 = lat.Percentile(0.99)
	r.FlowP50 = flowLat.Median()
	r.FlowP99 = flowLat.Percentile(0.99)

	var topTenant int64
	for i := range c.flows {
		f := &c.flows[i]
		r.FlowDelivered += f.delivered
		r.FlowBytes += f.bytes
		for _, cnt := range f.tenants {
			if cnt > 0 {
				r.TenantsSeen++
			}
			if cnt > topTenant {
				topTenant = cnt
			}
		}
	}
	if r.FlowDelivered > 0 {
		r.TopTenantShare = float64(topTenant) / float64(r.FlowDelivered)
	}

	var fab fabric.Stats
	for _, sw := range c.Switches {
		fab.Ports = append(fab.Ports, sw.Stats().Ports...)
	}
	r.Forwarded = fab.Forwarded()
	r.Dropped = fab.Drops()
	r.FaultDrops = fab.FaultDrops()
	r.FabricSummary = fab.String()

	for _, n := range c.Nodes {
		r.Recovery.add(&n.Recovery)
		r.Pending += int64(len(n.pend))
	}
	return r
}

// recovering reports whether any recovery machinery fired: the gate for the
// report's recovery lines (absent counters keep unarmed fingerprints
// byte-identical to the pre-transport model).
func (r Report) recovering() bool {
	return r.Recovery != Recovery{} || r.Pending != 0
}

// String renders the report (and doubles as the determinism fingerprint:
// shard- and worker-count changes must not alter a byte of it).
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: %d hosts, %d RPCs done (%d sent, %d served) at %v\n",
		r.Hosts, r.Done, r.Sent, r.Served, r.Now)
	fmt.Fprintf(&b, "latency: p50 %v  p99 %v\n", r.P50, r.P99)
	fmt.Fprintf(&b, "%s\n", r.FabricSummary)
	if r.FlowSent > 0 {
		fmt.Fprintf(&b, "flows: %d sent, %d delivered (%.1f MB), tracked p50 %v  p99 %v, %d tenants (top %.1f%%)\n",
			r.FlowSent, r.FlowDelivered, float64(r.FlowBytes)/1e6,
			r.FlowP50, r.FlowP99, r.TenantsSeen, 100*r.TopTenantShare)
	}
	if r.recovering() {
		fmt.Fprintf(&b, "recovery: %d retransmits (%d timeouts, %d exhausted, %d dup), %d pending\n",
			r.Retransmits, r.Timeouts, r.Exhausted, r.DupResps, r.Pending)
		fmt.Fprintf(&b, "recovery: %d degraded entries, %d shed, %d breaker trips (%d flow timeouts)\n",
			r.Degraded, r.Shed, r.BreakerTrips, r.FlowTimeouts)
		fmt.Fprintf(&b, "recovery: %d failovers, %d failbacks, probes %d sent / %d missed\n",
			r.Failovers, r.Failbacks, r.ProbesSent, r.ProbesMissed)
	}
	return b.String()
}

// FlowStats returns the delivered packet and byte counts of flow spec i —
// the per-class view the degraded-mode experiment contrasts (aggregate
// totals live in Report).
func (c *Cluster) FlowStats(i int) (delivered, bytes int64) {
	return c.flows[i].delivered, c.flows[i].bytes
}

// FaultStats aggregates injected-fault counters across nodes and switches
// (zero when unarmed).
func (c *Cluster) FaultStats() fault.Stats {
	var agg fault.Stats
	add := func(s *fault.Stats) {
		if s == nil {
			return
		}
		for cl := 0; cl < int(fault.NumClasses); cl++ {
			agg.Injected[cl] += s.Injected[cl]
		}
	}
	for _, n := range c.Nodes {
		add(n.flt.Stats())
	}
	for _, sw := range c.Switches {
		add(sw.Faults().Stats())
	}
	return agg
}
