package cluster

import (
	"fmt"
	"math/rand"

	"ccnic/internal/fabric"
	"ccnic/internal/sim"
	"ccnic/internal/traffic"
)

// FlowSpec describes one aggregated open-loop tenant flow: a population of
// clients (Zipf-distributed tenants) behind each source host, emitting
// packets at a Poisson rate toward one destination. A spec spawns exactly
// one generator process per source — client populations scale without
// per-client processes — and keeps per-packet state only for the sampled
// (tracked) tail, which round-trips a small response for latency
// measurement.
type FlowSpec struct {
	// Name labels the generators (debug and process names).
	Name string
	// Srcs are the source hosts; each gets its own generator process with
	// its own deterministic stream.
	Srcs []int
	// Dst is the destination host.
	Dst int
	// Class is the fabric traffic class of the flow's packets.
	Class fabric.Class
	// Dist selects the packet-size mix: "ads" or "geo" (the paper's
	// production traces, internal/traffic), or "" for a fixed size.
	Dist string
	// Bytes is the fixed packet size when Dist is "" (default 8192).
	Bytes int
	// MeanGap is the mean interarrival per source (exponential; default
	// 1µs — open loop, independent of completions).
	MeanGap sim.Time
	// Tenants is the tenant population size (default 64).
	Tenants int
	// ZipfS is the tenant-popularity skew in (0, 1) (default 0.75, the
	// paper's coefficient).
	ZipfS float64
	// TrackEvery samples every Nth packet for round-trip tracking
	// (0 disables tracking: pure background load).
	TrackEvery int
	// Seed derives all of the spec's streams.
	Seed int64
}

// trackRespBytes is the wire size of a tracked-packet response: a small
// acknowledgment, not a payload echo.
const trackRespBytes = 128

// flowAgg is the receiver-side accounting of one spec. It is written only
// by the destination node's shard, so no synchronization is needed at any
// worker count.
type flowAgg struct {
	delivered int64
	bytes     int64
	tenants   []int64
}

// flowGen is one generator's reliability state (per spec x source, armed
// only under Config.Reliable): the per-tenant circuit breakers fed by
// tracked-packet timeouts. Owned by the source node's shard.
type flowGen struct {
	strikes   []int      // consecutive tracked timeouts per tenant
	openUntil []sim.Time // breaker-open deadline per tenant
}

// startFlows defaults the flow specs (New has validated them) and spawns
// their generators.
func (c *Cluster) startFlows() {
	c.flows = make([]flowAgg, len(c.cfg.Flows))
	for si := range c.cfg.Flows {
		spec := c.cfg.Flows[si] // defaulted copy; the config stays as given
		if spec.MeanGap <= 0 {
			spec.MeanGap = sim.Microsecond
		}
		if spec.Bytes <= 0 {
			spec.Bytes = 8192
		}
		if spec.Tenants <= 0 {
			spec.Tenants = 64
		}
		if spec.ZipfS <= 0 || spec.ZipfS >= 1 {
			spec.ZipfS = 0.75
		}
		c.flows[si].tenants = make([]int64, spec.Tenants)
		for _, src := range spec.Srcs {
			c.startGenerator(si, spec, src)
		}
	}
}

// startGenerator spawns one source's generator process. Every draw —
// interarrival, size, tenant — comes from the generator's own seeded
// streams in emission order, so the packet schedule is a pure function of
// (spec, src) and survives any re-partitioning (see the package comment).
func (c *Cluster) startGenerator(si int, spec FlowSpec, src int) {
	n := c.Nodes[src]
	seed := spec.Seed ^ int64(si+1)*0x5851F42D4C957F2D ^ int64(src+1)*0x2545F4914F6CDD1D
	rng := rand.New(rand.NewSource(seed))
	var dist *traffic.SizeDist
	switch spec.Dist {
	case "ads":
		dist = traffic.Ads(seed + 1)
	case "geo":
		dist = traffic.Geo(seed + 1)
	}
	var zipf *traffic.Zipf
	if spec.Tenants > 1 {
		zipf = traffic.NewZipf(seed+2, spec.Tenants, spec.ZipfS)
	}

	var g *flowGen
	if c.cfg.Reliable {
		g = &flowGen{
			strikes:   make([]int, spec.Tenants),
			openUntil: make([]sim.Time, spec.Tenants),
		}
	}

	n.k.Spawn(fmt.Sprintf("n%d.flow.%s", src, spec.Name), func(p *sim.Proc) {
		// The generator's NIC egress line: a busy-until accumulator, so
		// back-to-back packets queue behind each other's serialization
		// without a blocking process or any shared state.
		var egressFree sim.Time
		for seq := int64(0); ; seq++ {
			p.Sleep(sim.Time(rng.ExpFloat64() * float64(spec.MeanGap)))
			// Every draw is consumed before any shed decision, so the
			// stream's state — and thus every later packet — is identical
			// whether or not this packet is shed (determinism under faults).
			bytes := spec.Bytes
			if dist != nil {
				bytes = dist.Next()
			}
			tenant := 0
			if zipf != nil {
				tenant = zipf.Next()
			}
			if g != nil {
				// SLO-aware shedding: in degraded mode only the bulk class
				// is shed — the latency class keeps the full path. An open
				// tenant breaker sheds that tenant regardless of class. A
				// shed packet never touches the NIC egress line.
				if (spec.Class == fabric.ClassBulk && p.Now() < n.degradedUntil) ||
					p.Now() < g.openUntil[tenant] {
					n.Shed++
					continue
				}
			}
			m := Message{
				From: src, To: spec.Dst, Seq: seq, Flow: si + 1,
				Tenant: tenant, Bytes: bytes, Class: spec.Class,
			}
			if g != nil {
				m.Via = n.routeVia[spec.Dst]
			}
			if spec.TrackEvery > 0 && seq%int64(spec.TrackEvery) == 0 {
				m.Tracked = true
				m.Sent = p.Now()
				if g != nil {
					n.trackFlow(p.Now(), si+1, seq, g, tenant)
				}
			}
			start := p.Now()
			if egressFree > start {
				start = egressFree
			}
			egressFree = start + c.nicSer(bytes)
			c.send(p, src, egressFree-p.Now(), m)
			n.FlowSent++
		}
	})
}

// receiveFlow handles a flow packet — or, on the Resp path, a tracked
// response completing its round trip back at the generator's host.
func (c *Cluster) receiveFlow(p *sim.Proc, n *Node, m Message) {
	if m.Resp {
		if c.cfg.Reliable {
			n.flowResponded(m.Flow, m.Seq)
		}
		n.FlowLat.Record(p.Now() - m.Sent)
		return
	}
	f := &c.flows[m.Flow-1]
	f.delivered++
	f.bytes += int64(m.Bytes)
	if m.Tenant >= 0 && m.Tenant < len(f.tenants) {
		f.tenants[m.Tenant]++
	}
	if m.Tracked {
		// Only the sampled tail gets per-packet service and a response.
		p.Sleep(c.plat.LLCHit)
		resp := Message{
			From: m.To, To: m.From, Seq: m.Seq, Resp: true, Flow: m.Flow,
			Tracked: true, Sent: m.Sent, Bytes: trackRespBytes, Class: fabric.ClassRPC,
		}
		if c.cfg.Reliable {
			resp.Via = n.routeVia[m.From]
		}
		c.send(p, m.To, c.nicSer(trackRespBytes), resp)
	}
}
