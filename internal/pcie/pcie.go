// Package pcie models the PCIe host-device interface of today's NICs: UC
// and WC memory-mapped I/O on the host side (including the finite
// write-combining buffer pool whose exhaustion the paper measures in Fig 3,
// and the barrier-limited WC streaming path of Fig 2), and the
// device-initiated DMA engine.
//
// Like the coherence package, everything here runs under the simulation
// kernel and charges virtual time; no data is actually moved.
package pcie

import (
	"ccnic/internal/fault"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
)

// Direction of data movement over the PCIe link.
type Direction int

// Link directions: MMIO and device DMA reads move data toward the device;
// device DMA writes move data toward the host.
const (
	ToDevice Direction = 0
	ToHost   Direction = 1
)

// Endpoint models one PCIe slot with a device attached. Host-side methods
// (MMIO*) are called by driver processes; DMA* methods by device processes.
type Endpoint struct {
	pp platform.PCIeParams

	link [2]sim.Resource

	stats Stats

	// flt is the optional fault injector; nil in normal runs. PCIe
	// faults are transaction-layer replays: the TLP eventually gets
	// through, just later. Delivery and ordering are untouched.
	flt *fault.Injector
}

// CoreMMIO is the per-core MMIO issue state: the write-combining buffer
// pool (finite; exhaustion is the Fig 3 knee) and the uncacheable-store
// serialization window. Each host core/queue gets its own via NewCore.
type CoreMMIO struct {
	ep *Endpoint

	// wcOpen is the FIFO of open WC buffer region tags; when all buffers
	// are occupied, a new region's store stalls while the oldest drains.
	wcOpen  []uint64
	wcDrain sim.Resource

	// ucInflight serializes uncacheable MMIO accesses: only one may be
	// in flight between a core and the PCIe root complex (§2.2).
	ucInflight sim.Resource
}

// Stats counts PCIe transactions.
type Stats struct {
	MMIOWrites int64
	DMAReads   int64
	DMAWrites  int64
	DMABytes   [2]int64
	WCFlushes  int64
	WCStalls   int64
}

// UCWriteWindow is the serialization window of an uncacheable MMIO store:
// the time during which no further UC access may issue from the same core.
const UCWriteWindow = 500 * sim.Nanosecond

// ucIssueCost is the core-visible cost of issuing a (posted) UC store when
// the window is clear.
const ucIssueCost = 40 * sim.Nanosecond

// NewEndpoint creates a PCIe endpoint with the platform's slot parameters.
func NewEndpoint(pp platform.PCIeParams) *Endpoint {
	return &Endpoint{pp: pp}
}

// NewCore creates the per-core MMIO issue state for a host core using this
// endpoint.
func (e *Endpoint) NewCore() *CoreMMIO { return &CoreMMIO{ep: e} }

// Params returns the endpoint's PCIe parameters.
func (e *Endpoint) Params() platform.PCIeParams { return e.pp }

// SetFaults arms (or, with nil, disarms) the fault injector on the
// endpoint. Device models also read it via Faults for doorbell and
// pipeline fault classes.
func (e *Endpoint) SetFaults(f *fault.Injector) { e.flt = f }

// Faults returns the armed fault injector, or nil.
func (e *Endpoint) Faults() *fault.Injector { return e.flt }

// replay returns the transaction-layer replay penalty for one TLP, 0
// when unarmed or when no fault fires.
func (e *Endpoint) replay() sim.Time { return e.flt.ReplayDelay() }

// Stats returns a copy of the transaction counters.
func (e *Endpoint) Stats() Stats { return e.stats }

// ResetStats clears counters.
func (e *Endpoint) ResetStats() { e.stats = Stats{} }

// serialize converts bytes to link occupancy in one direction.
func (e *Endpoint) serialize(bytes int) sim.Time {
	return sim.Time(float64(bytes) / e.pp.LinkBandwidth * float64(sim.Nanosecond))
}

// UCWrite performs an uncacheable posted store (a doorbell). The store
// itself is cheap, but only one UC access may be in flight per core, so
// closely spaced doorbells stall (the driver-visible cost the paper's
// batched designs amortize).
func (c *CoreMMIO) UCWrite(p *sim.Proc, bytes int) sim.Time {
	e := c.ep
	e.stats.MMIOWrites++
	stall := c.ucInflight.Acquire(p.Now(), UCWriteWindow)
	e.link[ToDevice].Acquire(p.Now()+stall, e.serialize(bytes))
	cost := stall + ucIssueCost
	p.Sleep(cost)
	return cost
}

// WCStore32 issues one 32-bit store to WC-mapped BAR space in a fresh
// 64B region identified by tag. If the region is already write-combining,
// the store merges for free; if a buffer is free, it opens one; otherwise
// the core stalls while the oldest buffer flushes (Fig 3's knee).
func (c *CoreMMIO) WCStore32(p *sim.Proc, tag uint64, wcBuffers int) sim.Time {
	e := c.ep
	const issue = sim.Nanosecond
	for _, t := range c.wcOpen {
		if t == tag {
			p.Sleep(issue)
			return issue
		}
	}
	cost := sim.Time(issue)
	if len(c.wcOpen) >= wcBuffers {
		// Evict the oldest buffer: its partial-line flush serializes on
		// the drain engine and the core stalls until it completes.
		c.wcOpen = c.wcOpen[1:]
		delay := c.wcDrain.Acquire(p.Now(), e.pp.WCFlushMMIO)
		cost += delay + e.pp.WCFlushMMIO
		e.stats.WCStalls++
		e.stats.WCFlushes++
	}
	c.wcOpen = append(c.wcOpen, tag)
	p.Sleep(cost)
	return cost
}

// WCOpenBuffers returns the number of occupied WC buffers (for tests).
func (c *CoreMMIO) WCOpenBuffers() int { return len(c.wcOpen) }

// WCStreamWrite models a sequential WC store stream of the given size
// followed by a barrier: full 64B buffers drain pipelined at the WC
// streaming rate, and the trailing sfence stalls for a partial-flush time
// (the Fig 2 'WC MMIO' curve). streamBW is the CPU-side WC fill rate.
func (c *CoreMMIO) WCStreamWrite(p *sim.Proc, bytes int, streamBW float64) sim.Time {
	e := c.ep
	fill := sim.Time(float64(bytes) / streamBW * float64(sim.Nanosecond))
	q := e.link[ToDevice].Acquire(p.Now(), e.serialize(bytes))
	cost := fill + q + e.pp.WCFlushMMIO // trailing barrier
	e.stats.MMIOWrites++
	p.Sleep(cost)
	return cost
}

// DMAReadAsync issues a device-initiated read without blocking the caller,
// returning when the data will be available on the device. Used by device
// pipelines that keep multiple DMAs in flight.
func (e *Endpoint) DMAReadAsync(now sim.Time, bytes int) (completeAt sim.Time) {
	e.stats.DMAReads++
	e.stats.DMABytes[ToDevice] += int64(bytes)
	q := e.link[ToDevice].Acquire(now, e.serialize(bytes))
	return now + q + e.pp.DMARoundTrip + e.serialize(bytes) + e.replay()
}

// DMAWriteAsync issues a posted device write without blocking, returning
// when the data becomes visible to the host.
func (e *Endpoint) DMAWriteAsync(now sim.Time, bytes int) (deliveredAt sim.Time) {
	e.stats.DMAWrites++
	e.stats.DMABytes[ToHost] += int64(bytes)
	q := e.link[ToHost].Acquire(now, e.serialize(bytes))
	return now + q + e.serialize(bytes) + e.pp.OneWay + e.replay()
}

// MMIOPropagation is the one-way delay for a posted MMIO write to reach the
// device (doorbell visibility latency).
func (e *Endpoint) MMIOPropagation() sim.Time { return e.pp.OneWay }

// Utilization returns link utilization in a direction over [0, now].
func (e *Endpoint) Utilization(dir Direction, now sim.Time) float64 {
	if now <= 0 {
		return 0
	}
	return float64(e.link[dir].BusyTotal()) / float64(now)
}
