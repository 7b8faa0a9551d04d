package cluster

import (
	"container/heap"
	"fmt"
	"math/bits"

	"ccnic/internal/fabric"
	"ccnic/internal/sim"
	"ccnic/internal/stats"
)

// This file is the cluster's end-to-end reliability layer (PR 10): the
// per-RPC retransmission transport, deterministic health probing with
// K-of-N miss detection driving failover/fail-back of the per-destination
// routing table, distress-driven degraded mode, and the no-silent-loss
// delivery ledger.
//
// Everything here is node-local state touched only from the owning node's
// shard, and every decision is a pure function of node-local history and
// message timestamps — so an armed transport is exactly as partition- and
// worker-invariant as the rest of the model, and a disarmed one
// (Config.Reliable == false) leaves the event stream byte-identical to the
// pre-transport model: no processes are spawned, no branches taken.

// The transport's fixed tuning.
const (
	// probeEvery is the per-(node, switch) health-probe cadence. A probe is
	// a self-addressed packet through the switch; it must return before the
	// next tick or it counts as a miss.
	probeEvery = 5 * sim.Microsecond
	// probeWindow and probeMisses set K-of-N miss detection: a switch is
	// declared unhealthy at >= probeMisses misses in the last probeWindow
	// probes, and healthy again only after a clean window (zero misses —
	// the fail-back hysteresis).
	probeWindow, probeMisses = 8, 3
	// breakerTrip is the consecutive tracked-flow timeouts that trip a
	// tenant's circuit breaker; breakerHold is how long it stays open.
	breakerTrip = 2
	breakerHold = 30 * sim.Microsecond
)

// pendRPC is one outstanding reliable RPC on its issuing node.
type pendRPC struct {
	m       Message // the original request, reused verbatim on retransmit
	attempt int     // retransmissions so far
}

// flowTrack is one outstanding tracked flow packet (breaker bookkeeping).
type flowTrack struct {
	gen    *flowGen
	tenant int
}

// retxEntry is one deadline in a node's watchdog heap. Entries are never
// removed eagerly: completion or retransmission makes older entries stale,
// detected by the (pend presence, attempt) match at pop time.
type retxEntry struct {
	at      sim.Time
	seq     int64 // RPC Seq, or the composite flowKey for flow entries
	attempt int
	flow    bool
}

// less orders the watchdog heap: by deadline, with a full tie-break so heap
// contents are a canonical function of the entries themselves.
func (e retxEntry) less(o retxEntry) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.seq != o.seq {
		return e.seq < o.seq
	}
	if e.flow != o.flow {
		return !e.flow
	}
	return e.attempt < o.attempt
}

// retxHeap is a node's deadline min-heap, ordered by retxEntry.less
// (container/heap). The order is total and no two entries are equal, so the
// pop sequence is a function of the entries alone.
type retxHeap []retxEntry

func (h retxHeap) Len() int           { return len(h) }
func (h retxHeap) Less(i, j int) bool { return h[i].less(h[j]) }
func (h retxHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *retxHeap) Push(x any)        { *h = append(*h, x.(retxEntry)) }
func (h *retxHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// flowKey composes a node-unique key for a tracked flow packet.
func flowKey(flow int, seq int64) int64 {
	return int64(flow)<<48 | (seq & (1<<48 - 1))
}

// startTransport arms the node's reliability machinery: state, the
// retransmission watchdog, and (on redundant topologies) the health-probe
// process. A no-op unless Config.Reliable.
func (n *Node) startTransport() {
	c := n.c
	if !c.cfg.Reliable {
		return
	}
	n.pend = make(map[int64]*pendRPC)
	n.flowPend = make(map[int64]*flowTrack)
	n.retxWake = n.k.NewEvent(fmt.Sprintf("n%d.retx", n.id))
	n.routeVia = make([]uint8, c.cfg.Hosts)
	n.dstStrikes = make([]int, c.cfg.Hosts)
	n.swHealthy = make([]bool, c.cfg.Switches)
	for v := range n.swHealthy {
		n.swHealthy[v] = true
	}
	n.probeRing = make([]uint64, c.cfg.Switches)
	n.probeAwait = make([]int64, c.cfg.Switches)
	n.probeGot = make([]bool, c.cfg.Switches)
	for v := range n.probeAwait {
		n.probeAwait[v] = -1
	}

	n.wdog = n.k.SpawnSpin(fmt.Sprintf("n%d.watchdog", n.id), n.watchdog)
	if c.cfg.Switches > 1 {
		n.prober = n.k.SpawnSpin(fmt.Sprintf("n%d.probe", n.id), n.probe)
	}
}

// registerRPC records a newly issued reliable RPC and arms its timeout.
func (n *Node) registerRPC(now sim.Time, m Message) {
	n.pend[m.Seq] = &pendRPC{m: m}
	heap.Push(&n.retx, retxEntry{at: now + n.c.cfg.RTO, seq: m.Seq})
	n.retxWake.Signal()
}

// completeRPC settles a response: true if this response completes an
// outstanding RPC, false for a duplicate or retired one. A completion
// clears the destination's strike count (the path works again).
func (n *Node) completeRPC(m Message) bool {
	if _, ok := n.pend[m.Seq]; !ok {
		return false
	}
	delete(n.pend, m.Seq)
	n.dstStrikes[m.From] = 0
	n.distress = 0
	return true
}

// watchdog is the step of the node's deadline process, a bodiless
// process: at each wake it fires every due RPC timeout (retransmit with
// exponential backoff until the retry budget, then retire as Exhausted)
// and tracked-flow timeout (circuit-breaker strikes), then awaits a
// deadline or sleeps toward the earliest. It sleeps at most one base RTO
// at a time, so a freshly armed deadline — which is always at least one
// base RTO away — is never missed.
func (n *Node) watchdog() (sim.Time, bool) {
	c := n.c
	base := c.cfg.RTO
	for {
		if len(n.retx) == 0 {
			return n.wdog.Await(n.retxWake)
		}
		now := n.k.Now()
		next := n.retx[0].at
		if now < next {
			return min(next-now, base), true
		}
		e := heap.Pop(&n.retx).(retxEntry)
		if e.flow {
			n.flowTimeout(e)
			continue
		}
		pr, ok := n.pend[e.seq]
		if !ok || pr.attempt != e.attempt {
			continue // settled or already retransmitted: stale entry
		}
		n.Timeouts++
		n.noteDistress(now)
		n.strike(pr.m.To)
		if pr.attempt >= c.cfg.RetryBudget {
			// Budget exhausted: retire the RPC. Accounted — the ledger
			// counts it — and the window slot is released.
			delete(n.pend, e.seq)
			n.Exhausted++
			n.inFlight--
			n.winWake.Signal()
			continue
		}
		pr.attempt++
		n.Retransmits++
		// Exponential backoff: the next deadline doubles per attempt.
		rto := base << uint(pr.attempt)
		heap.Push(&n.retx, retxEntry{at: now + rto, seq: e.seq, attempt: pr.attempt})
		// Re-enqueue through the NIC TX pipeline, re-reading the routing
		// table so a retransmission follows any failover that happened
		// since the original attempt.
		m := pr.m
		m.Via = n.routeVia[m.To]
		n.txq = append(n.txq, m)
		n.txWake.Signal()
	}
}

// noteDistress counts consecutive transport timeouts; a burst engages
// degraded mode — bulk-class flow traffic is shed for DegradedWindow while
// the latency class keeps the full path (the SLO policy).
func (n *Node) noteDistress(now sim.Time) {
	n.distress++
	if n.distress < 3 {
		return
	}
	if until := now + n.c.cfg.DegradedWindow; until > n.degradedUntil {
		if now >= n.degradedUntil {
			n.Degraded++ // entering (not extending) degraded mode
		}
		n.degradedUntil = until
	}
}

// strike notes a data-path timeout toward dst; two consecutive strikes
// fail the destination over to the other switch (probe health permitting).
func (n *Node) strike(dst int) {
	if len(n.c.Switches) < 2 {
		return
	}
	n.dstStrikes[dst]++
	if n.dstStrikes[dst] < 2 {
		return
	}
	cur := n.routeVia[dst]
	alt := uint8(1 - cur)
	if n.swHealthy[alt] || !n.swHealthy[cur] {
		n.routeVia[dst] = alt
		n.Failovers++
		n.dstStrikes[dst] = 0
	}
}

// probe is the step of the node's health prober, a bodiless process that
// wakes every probeEvery: it scores the previous round's probe on each
// switch (returned in time, or a miss), updates the K-of-N rings, applies
// health transitions, and launches the next round of self-addressed
// probes. Its first wake, at spawn, only sleeps.
func (n *Node) probe() (sim.Time, bool) {
	c := n.c
	const mask = uint64(1)<<probeWindow - 1
	if n.probing {
		for v := range c.Switches {
			if n.probeAwait[v] >= 0 {
				miss := uint64(0)
				if !n.probeGot[v] {
					miss = 1
					n.ProbesMissed++
				}
				n.probeRing[v] = n.probeRing[v]<<1 | miss
				misses := bits.OnesCount64(n.probeRing[v] & mask)
				if n.swHealthy[v] && misses >= probeMisses {
					n.swHealthy[v] = false
					n.failover(v)
				} else if !n.swHealthy[v] && misses == 0 {
					// Hysteresis: a full clean window readmits the switch.
					n.swHealthy[v] = true
					n.failback()
				}
			}
			n.probeSeq++
			n.probeAwait[v] = n.probeSeq
			n.probeGot[v] = false
			n.ProbesSent++
			m := Message{
				From: n.id, To: n.id, Seq: n.probeSeq, Probe: true,
				Via: uint8(v), Bytes: probeBytes, Class: probeClass,
			}
			c.send(n.prober, n.id, 0, m)
		}
	}
	n.probing = true
	return probeEvery, true
}

// probeBytes is a health probe's wire size: a minimal control frame.
const probeBytes = 64

// probeClass is the traffic class probes ride on: the latency class, so
// probe loss tracks the class whose SLO failover protects.
const probeClass = fabric.ClassRPC

// probeReturned scores a probe that made it back through its switch.
func (n *Node) probeReturned(m Message) {
	v := int(m.Via)
	if v < len(n.probeAwait) && n.probeAwait[v] == m.Seq {
		n.probeGot[v] = true
	}
}

// failover moves every destination currently routed via the failed switch
// onto the other one, if it is healthy (with both switches down there is
// nowhere to go — routes stay and the retry budget bounds the damage).
func (n *Node) failover(failed int) {
	alt := 1 - failed
	if !n.swHealthy[alt] {
		return
	}
	for d := range n.routeVia {
		if d != n.id && int(n.routeVia[d]) == failed {
			n.routeVia[d] = uint8(alt)
			n.Failovers++
		}
	}
}

// failback returns destinations to the primary switch (index 0) once it is
// healthy again.
func (n *Node) failback() {
	if !n.swHealthy[0] {
		return
	}
	for d := range n.routeVia {
		if d != n.id && n.routeVia[d] != 0 {
			n.routeVia[d] = 0
			n.Failbacks++
		}
	}
}

// trackFlow arms the tracked-flow timeout used by the per-tenant circuit
// breaker.
func (n *Node) trackFlow(now sim.Time, flow int, seq int64, g *flowGen, tenant int) {
	key := flowKey(flow, seq)
	n.flowPend[key] = &flowTrack{gen: g, tenant: tenant}
	heap.Push(&n.retx, retxEntry{at: now + n.c.cfg.RTO, seq: key, flow: true})
	n.retxWake.Signal()
}

// flowResponded settles a tracked flow packet and closes its tenant's
// strike streak.
func (n *Node) flowResponded(flow int, seq int64) {
	key := flowKey(flow, seq)
	if ft, ok := n.flowPend[key]; ok {
		delete(n.flowPend, key)
		ft.gen.strikes[ft.tenant] = 0
	}
}

// flowTimeout fires when a tracked flow packet's response never came:
// consecutive timeouts trip the tenant's circuit breaker, shedding that
// tenant's traffic at the generator for breakerHold.
func (n *Node) flowTimeout(e retxEntry) {
	ft, ok := n.flowPend[e.seq]
	if !ok {
		return
	}
	delete(n.flowPend, e.seq)
	n.FlowTimeouts++
	g, tenant := ft.gen, ft.tenant
	g.strikes[tenant]++
	if g.strikes[tenant] >= breakerTrip {
		g.openUntil[tenant] = e.at + breakerHold
		g.strikes[tenant] = 0
		n.BreakerTrips++
	}
}

// phaseRoll advances the node's phase cursor: every record at an instant
// strictly greater than the current mark closes that phase first. Phase
// assignment depends only on the record timestamp, never on same-instant
// execution order.
func (n *Node) phaseRoll(now sim.Time) {
	for n.phaseIdx < len(n.c.cfg.PhaseMarks) && now > n.c.cfg.PhaseMarks[n.phaseIdx] {
		n.Phases = append(n.Phases, n.Lat)
		n.Lat = stats.Histogram{}
		n.phaseIdx++
	}
}

// PhaseLatencies closes all phases as of instant `until` and returns one
// aggregate histogram per phase (len(PhaseMarks)+1: the last phase spans
// the final mark to `until`).
func (c *Cluster) PhaseLatencies(until sim.Time) []stats.Histogram {
	out := make([]stats.Histogram, len(c.cfg.PhaseMarks)+1)
	for _, n := range c.Nodes {
		n.phaseRoll(until)
		for i := range n.Phases {
			out[i].Merge(&n.Phases[i])
		}
		out[len(n.Phases)].Merge(&n.Lat)
	}
	return out
}

// CheckDelivery is the no-silent-loss invariant: every packet the cluster
// admitted is delivered, dropped-and-accounted inside a switch, or retired
// by retry exhaustion. Concretely: switch-internal conservation holds on
// every switch, and (when the transport is armed) each node's RPC ledger
// balances — sent = done + exhausted + pending, the window matches the
// pending set, and no pending RPC's deadline has gone stale past the
// watchdog's service bound.
func (c *Cluster) CheckDelivery() error {
	for _, sw := range c.Switches {
		if err := sw.CheckConservation(); err != nil {
			return err
		}
		for port := 0; port < sw.NumPorts(); port++ {
			if err := sw.CheckPort(port); err != nil {
				return err
			}
		}
	}
	if !c.cfg.Reliable {
		return nil
	}
	for _, n := range c.Nodes {
		pending := int64(len(n.pend))
		if n.Sent != n.Done+n.Exhausted+pending {
			return fmt.Errorf("cluster node %d: RPC ledger broken: sent %d != done %d + exhausted %d + pending %d",
				n.id, n.Sent, n.Done, n.Exhausted, pending)
		}
		if int64(n.inFlight) != pending {
			return fmt.Errorf("cluster node %d: window %d != pending RPCs %d", n.id, n.inFlight, pending)
		}
		// Watchdog liveness: the earliest live deadline may lag by at most
		// one base-RTO sleep step (plus the instant being mid-step).
		now := n.k.Now()
		grace := 2 * c.cfg.RTO
		for _, e := range n.retx {
			if e.flow {
				if _, ok := n.flowPend[e.seq]; ok && e.at+grace < now {
					return fmt.Errorf("cluster node %d: tracked flow deadline stale by %v", n.id, now-e.at)
				}
				continue
			}
			if pr, ok := n.pend[e.seq]; ok && pr.attempt == e.attempt && e.at+grace < now {
				return fmt.Errorf("cluster node %d: RPC %d deadline stale by %v (watchdog wedged)",
					n.id, e.seq, now-e.at)
			}
		}
	}
	return nil
}
