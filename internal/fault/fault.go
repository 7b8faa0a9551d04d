// Package fault is the simulator's deterministic fault-injection engine.
//
// A Plan names which fault classes are armed and at what per-opportunity
// rate. An Injector serves one site (a testbed, a cluster node or a switch)
// and decides each opportunity with a splitmix64 hash of (plan seed, site,
// class, sequence), never the wall clock (detlint-clean), so the same plan
// reproduces the exact same fault schedule run after run, and one class's
// schedule never depends on which other classes are armed. Hardware
// layers (interconn, pcie, device, coherence) consult the injector at
// well-defined opportunity points; software layers (ring drivers,
// rpcstack, kvstore) are expected to survive every armed class with
// watchdogs, re-rings, retransmission, and bounded retry, and report what
// they did through Stats.
//
// The cardinal rule, enforced by internal/check under the fault matrix:
// faults perturb *timing and delivery* only. They never mutate coherence
// state, never forge a descriptor, never un-own a buffer. Every DESIGN §5
// invariant must hold with any plan armed.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"ccnic/internal/sim"
)

// Class identifies one armed fault class.
type Class int

const (
	// LinkCorrupt models interconnect flit corruption: the link-level
	// CRC catches it and the retry adds a latency spike, plus a short
	// window of transient bandwidth derating while the retry queue drains.
	LinkCorrupt Class = iota
	// PCIeReplay models a PCIe transaction-layer replay: DLLP ack timeout
	// and replay-buffer retransmission add latency to the affected TLP.
	PCIeReplay
	// DoorbellDrop models a doorbell MMIO write that never becomes
	// visible to the device (posted-write lost before the NIC's doorbell
	// register). The driver's watchdog must notice and re-ring.
	DoorbellDrop
	// DoorbellDup models a doorbell that arrives twice; the device must
	// treat the second observation as benign (descriptor fetch is bounded
	// by the ring cursors, so a dup costs a spurious fetch, nothing more).
	DoorbellDup
	// PipelineStall models a transient device-pipeline stall (scheduler
	// hiccup, PHY backpressure): the NIC stops serving for a short window.
	PipelineStall
	// DMADelay models a delayed DMA completion: the data arrives intact
	// but the completion is pushed later in time.
	DMADelay
	// CachePressure models transient cache-pressure interference on the
	// host: a co-runner evicting lines adds latency to coherent accesses.
	CachePressure

	// --- Fabric fault domain. These classes perturb the switched fabric
	// (internal/fabric), not the host/NIC edge. Their draws are keyed by
	// the packet's source host and per-source sequence, not by a count of
	// opportunities: switch arrivals from different sources interleave in
	// a partition-dependent order, and a (source, seq) identity is
	// invariant under any interleaving.

	// FabricPortDown models a port going administratively down (flap): the
	// port stops admitting packets — ingress from the attached host and
	// egress admission toward it both drop — for a seeded repair window.
	FabricPortDown
	// FabricCorrupt models in-switch packet corruption past the ingress
	// pipeline: the frame check fails at egress admission and the packet is
	// discarded (and accounted; the transport must retransmit).
	FabricCorrupt
	// FabricBlackhole models a transient routing blackhole: for a seeded
	// window every packet routed toward one destination is silently
	// discarded by the forwarding stage (accounted at the switch).
	FabricBlackhole
	// FabricBrownout models an egress brownout: a seeded window during
	// which one port serializes at a fraction of its line rate (a failing
	// transceiver), inflating queueing delay without dropping packets.
	FabricBrownout

	NumClasses
)

var classNames = [NumClasses]string{
	LinkCorrupt:     "link",
	PCIeReplay:      "replay",
	DoorbellDrop:    "dbdrop",
	DoorbellDup:     "dbdup",
	PipelineStall:   "stall",
	DMADelay:        "dma",
	CachePressure:   "cache",
	FabricPortDown:  "portflap",
	FabricCorrupt:   "corrupt",
	FabricBlackhole: "blackhole",
	FabricBrownout:  "brownout",
}

// NumEndpointClasses counts the original host/NIC-edge classes; fabric
// classes follow them in declaration order.
const NumEndpointClasses = CachePressure + 1

// String returns the short spec name of the class (as used in ParsePlan).
func (c Class) String() string {
	if c < 0 || c >= NumClasses {
		return fmt.Sprintf("Class(%d)", int(c))
	}
	return classNames[c]
}

// Classes returns all fault classes in declaration order.
func Classes() []Class {
	out := make([]Class, NumClasses)
	for i := range out {
		out[i] = Class(i)
	}
	return out
}

// EndpointClasses returns the host/NIC-edge classes (the PR 4 set): the
// opportunity points consulted by interconn/pcie/device/coherence and the
// cluster node pipelines. Fault sweeps over testbeds that have no fabric
// iterate these, keeping their tables independent of fabric-class growth.
func EndpointClasses() []Class {
	out := make([]Class, NumEndpointClasses)
	for i := range out {
		out[i] = Class(i)
	}
	return out
}

// Plan is a fault schedule specification: a seed plus a per-opportunity
// injection probability for each class. The zero Plan is unarmed and
// injects nothing.
type Plan struct {
	Seed int64
	Rate [NumClasses]float64
}

// Armed reports whether any class has a nonzero rate.
func (p *Plan) Armed() bool {
	if p == nil {
		return false
	}
	for _, r := range p.Rate {
		if r > 0 {
			return true
		}
	}
	return false
}

// String renders the plan in the canonical spec form accepted by
// ParsePlan: "seed=S,class=rate,..." with classes in declaration order,
// or "none" when unarmed.
func (p *Plan) String() string {
	if !p.Armed() {
		return "none"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", p.Seed)
	for c, r := range p.Rate {
		if r > 0 {
			fmt.Fprintf(&b, ",%s=%g", Class(c), r)
		}
	}
	return b.String()
}

// ParsePlan parses a plan spec of the form
//
//	seed=7,link=0.002,dbdrop=0.01
//
// Recognized keys: "seed", each Class short name, and "all" (sets every
// class). "" and "none" parse to an unarmed plan (nil). Keys may appear
// in any order; later entries override earlier ones.
func ParsePlan(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return nil, nil
	}
	p := &Plan{Seed: 1}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("fault plan: %q is not key=value", field)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if key == "seed" {
			s, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault plan: bad seed %q: %v", val, err)
			}
			p.Seed = s
			continue
		}
		r, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("fault plan: bad rate %q for %q: %v", val, key, err)
		}
		if r != r || r < 0 || r > 1 {
			return nil, fmt.Errorf("fault plan: rate for %q must be in [0,1], got %g", key, r)
		}
		if key == "all" {
			for c := range p.Rate {
				p.Rate[c] = r
			}
			continue
		}
		found := false
		for c, name := range classNames {
			if key == name {
				p.Rate[c] = r
				found = true
				break
			}
		}
		if !found {
			names := make([]string, 0, NumClasses+2)
			for _, n := range classNames {
				names = append(names, n)
			}
			names = append(names, "all", "seed")
			sort.Strings(names)
			return nil, fmt.Errorf("fault plan: unknown class %q (want one of %s)", key, strings.Join(names, ", "))
		}
	}
	if !p.Armed() {
		return nil, nil
	}
	return p, nil
}

// Stats accumulates what was injected and how the software stack coped.
// All methods are nil-receiver-safe so callers can hook them unguarded.
type Stats struct {
	Injected [NumClasses]int64 // faults injected, by class

	Rerings     int64 // doorbell watchdog re-rings (drivers)
	Retransmits int64 // RPC retransmissions (rpcstack)
	Backoffs    int64 // exponential-backoff waits taken
	Retries     int64 // bounded request retries (kvstore, loopback)
	Drops       int64 // degraded-mode drops after retries exhausted
}

// NoteRering records one driver doorbell re-ring.
//
//ccnic:noalloc
func (s *Stats) NoteRering() {
	if s != nil {
		s.Rerings++
	}
}

// NoteRetransmit records one RPC retransmission.
func (s *Stats) NoteRetransmit() {
	if s != nil {
		s.Retransmits++
	}
}

// NoteBackoff records one exponential-backoff wait.
func (s *Stats) NoteBackoff() {
	if s != nil {
		s.Backoffs++
	}
}

// NoteRetry records one bounded request retry.
func (s *Stats) NoteRetry() {
	if s != nil {
		s.Retries++
	}
}

// NoteDrop records one degraded-mode drop.
func (s *Stats) NoteDrop() {
	if s != nil {
		s.Drops++
	}
}

// Total returns the total number of injected faults across all classes.
func (s *Stats) Total() int64 {
	if s == nil {
		return 0
	}
	var t int64
	for _, n := range s.Injected {
		t += n
	}
	return t
}

// Format renders the stats as a stable multi-line report.
func (s *Stats) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "faults injected: %d\n", s.Total())
	if s != nil {
		for c, n := range s.Injected {
			if n > 0 {
				fmt.Fprintf(&b, "  %-8s %d\n", Class(c), n)
			}
		}
		fmt.Fprintf(&b, "recovery: rerings=%d retransmits=%d backoffs=%d retries=%d drops=%d\n",
			s.Rerings, s.Retransmits, s.Backoffs, s.Retries, s.Drops)
	}
	return b.String()
}

// Injector draws the faults of one site: a testbed, a cluster node or a
// switch. Every draw is a splitmix64 hash of (plan seed, site, class,
// sequence) and keeps no stream, so the schedule is a pure function of the
// plan, the site and the opportunities the model offers, never of which
// other classes are armed. A nil *Injector is valid and never injects, so
// hardware layers hold a plain field and call without guarding.
type Injector struct {
	plan  Plan
	key   uint64                     // the plan seed mixed with the site
	seq   [NumEndpointClasses]uint64 // per-class opportunity counters
	stats Stats
}

// NewInjector builds the injector for the plan at one site: 0 for a
// testbed, the node id for a cluster node, and -(v+1) for switch v, so no
// two sites of a model share a schedule and a site's schedule does not
// depend on how the model is partitioned. Returns nil for an unarmed (or
// nil) plan, which disables injection everywhere.
func NewInjector(p *Plan, site int) *Injector {
	if !p.Armed() {
		return nil
	}
	return &Injector{plan: *p, key: mix64(uint64(p.Seed)+0x9E3779B97F4A7C15*uint64(site+1)) >> 1}
}

// Plan returns the plan the injector was built from (zero Plan for nil).
func (f *Injector) Plan() Plan {
	if f == nil {
		return Plan{}
	}
	return f.plan
}

// Stats exposes the accumulated fault + recovery counters. Returns nil
// for a nil injector; Stats methods tolerate that.
//
//ccnic:noalloc
func (f *Injector) Stats() *Stats {
	if f == nil {
		return nil
	}
	return &f.stats
}

// endpointSlot is the source slot of every endpoint-class draw, one no
// host id takes: an endpoint opportunity has no packet identity, so its
// sequence is the class's own opportunity count.
const endpointSlot = -1

// draw decides whether a fault of endpoint class c fires at this
// opportunity, and returns a second hash value for sizing the effect. The
// k-th opportunity of c is the hash draw (c, endpointSlot, k); an unarmed
// class counts no opportunity, so its points leave every schedule as it is.
//
//ccnic:noalloc
func (f *Injector) draw(c Class) (bool, uint64) {
	if f == nil || f.plan.Rate[c] <= 0 {
		return false, 0
	}
	k := f.seq[c]
	f.seq[c]++
	return f.hashDraw(c, endpointSlot, k)
}

// mix64 is the splitmix64 finalizer.
//
//ccnic:noalloc
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// hashDraw decides whether class c fires for opportunity (src, seq) at
// this injector's site and returns a second independent hash value for
// sizing the effect.
//
//ccnic:noalloc
func (f *Injector) hashDraw(c Class, src int, seq uint64) (bool, uint64) {
	if f == nil {
		return false, 0
	}
	r := f.plan.Rate[c]
	if r <= 0 {
		return false, 0
	}
	z := f.key + 0x9E3779B97F4A7C15*uint64(c+1)
	z = mix64(z + 0xD1B54A32D192ED03*uint64(src+1))
	z = mix64(z + seq)
	if float64(z>>11)*(1.0/(1<<53)) >= r {
		return false, 0
	}
	f.stats.Injected[c]++
	return true, mix64(z + 0x8CB92BA72F3D8DD7)
}

// hashSpan sizes a draw's effect: a fired draw's hash value v maps onto
// [lo, hi), and a draw that did not fire to 0.
//
//ccnic:noalloc
func hashSpan(fire bool, v uint64, lo, hi sim.Time) sim.Time {
	if !fire {
		return 0
	}
	return lo + sim.Time(v%uint64(hi-lo))
}

// LinkFault is the interconnect opportunity point, consulted once per
// link transfer. On injection it returns a link-level retry latency
// spike and the length of the transient bandwidth-derating window that
// follows while the retry queue drains; (0, 0) otherwise.
//
//ccnic:noalloc
func (f *Injector) LinkFault() (spike, derate sim.Time) {
	fire, v := f.draw(LinkCorrupt)
	return hashSpan(fire, v, 100*sim.Nanosecond, 300*sim.Nanosecond),
		hashSpan(fire, mix64(v), 200*sim.Nanosecond, 600*sim.Nanosecond)
}

// ReplayDelay is the PCIe opportunity point, consulted once per TLP
// (DMA read/write, MMIO read). On injection it returns the replay
// latency added to the transaction; 0 otherwise.
//
//ccnic:noalloc
func (f *Injector) ReplayDelay() sim.Time {
	fire, v := f.draw(PCIeReplay)
	return hashSpan(fire, v, 300*sim.Nanosecond, 1*sim.Microsecond)
}

// DoorbellDropped reports whether this doorbell write is lost before
// reaching the device. The driver's ring watchdog must re-ring.
//
//ccnic:noalloc
func (f *Injector) DoorbellDropped() bool {
	fire, _ := f.draw(DoorbellDrop)
	return fire
}

// DoorbellDuplicated reports whether this doorbell is delivered twice.
// The duplicate costs the device a spurious (bounded) descriptor fetch.
//
//ccnic:noalloc
func (f *Injector) DoorbellDuplicated() bool {
	fire, _ := f.draw(DoorbellDup)
	return fire
}

// PipelineStall is the device opportunity point, consulted once per
// service iteration. On injection it returns how long the NIC pipeline
// stalls; 0 otherwise.
//
//ccnic:noalloc
func (f *Injector) PipelineStall() sim.Time {
	fire, v := f.draw(PipelineStall)
	return hashSpan(fire, v, 500*sim.Nanosecond, 2*sim.Microsecond)
}

// DMADelay is consulted once per DMA completion. On injection it
// returns extra delay applied to the completion time (data intact, just
// late); 0 otherwise.
//
//ccnic:noalloc
func (f *Injector) DMADelay() sim.Time {
	fire, v := f.draw(DMADelay)
	return hashSpan(fire, v, 200*sim.Nanosecond, 800*sim.Nanosecond)
}

// CachePressure is the coherence opportunity point, consulted on
// coherent access paths. On injection it returns extra latency modeling
// interference misses; 0 otherwise.
//
//ccnic:noalloc
func (f *Injector) CachePressure() sim.Time {
	fire, v := f.draw(CachePressure)
	return hashSpan(fire, v, 20*sim.Nanosecond, 100*sim.Nanosecond)
}

// --- Fabric opportunity points.
//
// Same-instant switch arrivals from different sources execute in a
// partition-dependent order, so a fabric draw cannot be keyed by an
// opportunity count. It is keyed by the packet's (source host, per-source
// arrival sequence) instead: a source's packets arrive at the switch in the
// source's own send order, so the identity, and hence the schedule, is
// invariant under any partition.

// PortDown is the switch ingress opportunity point, consulted once per
// packet arriving from src. On injection it returns the repair time of a
// port flap — the port admits nothing for that long; 0 otherwise.
//
//ccnic:noalloc
func (f *Injector) PortDown(src int, seq uint64) sim.Time {
	fire, v := f.hashDraw(FabricPortDown, src, seq)
	return hashSpan(fire, v, 2*sim.Microsecond, 8*sim.Microsecond)
}

// FabricCorrupt is the switch pipeline opportunity point: whether this
// packet is corrupted in-switch and discarded at the frame check.
//
//ccnic:noalloc
func (f *Injector) FabricCorrupt(src int, seq uint64) bool {
	fire, _ := f.hashDraw(FabricCorrupt, src, seq)
	return fire
}

// Blackhole is the switch routing opportunity point, consulted once per
// routed packet. On injection it returns the length of a window during
// which the packet's destination is blackholed; 0 otherwise.
//
//ccnic:noalloc
func (f *Injector) Blackhole(src int, seq uint64) sim.Time {
	fire, v := f.hashDraw(FabricBlackhole, src, seq)
	return hashSpan(fire, v, 1*sim.Microsecond, 4*sim.Microsecond)
}

// Brownout is the switch egress opportunity point. On injection it returns
// the length of a window during which the packet's egress port serializes
// at a derated rate; 0 otherwise.
//
//ccnic:noalloc
func (f *Injector) Brownout(src int, seq uint64) sim.Time {
	fire, v := f.hashDraw(FabricBrownout, src, seq)
	return hashSpan(fire, v, 1500*sim.Nanosecond, 4*sim.Microsecond)
}
