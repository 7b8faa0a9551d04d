package check

import (
	"ccnic/internal/fabric"
	"ccnic/internal/sim"
)

// FabricEngine validates one fabric Switch online: after every queuing
// event on a port it re-checks that port's conservation (admitted =
// forwarded + queued + serializing), bounded occupancy, and the DRR deficit bound
// (deficit <= quantum + largest queued packet). Like the coherence engine
// it is installed through a nil-guarded probe hook, so unchecked runs pay
// one branch per event, and violations panic as *Violation. It is also the
// switch kernel's sim.Probe, so it flushes its totals when a run ends.
type FabricEngine struct {
	sw      *fabric.Switch
	checks  uint64
	flushed uint64
	ran     bool

	collect    bool
	violations []error
}

// AttachFabric builds an engine for sw and installs it as the probe of both
// the switch and its kernel.
func AttachFabric(sw *fabric.Switch) *FabricEngine {
	e := &FabricEngine{sw: sw}
	sw.SetProbe(e)
	sw.Kernel().SetProbe(e)
	return e
}

// SetCollect switches the engine to accumulate violations (up to a cap)
// instead of panicking. Used by self-tests that expect failures.
func (e *FabricEngine) SetCollect(on bool) { e.collect = on }

// Violations returns the failures accumulated in collect mode.
func (e *FabricEngine) Violations() []error { return e.violations }

// Checks returns the number of invariant evaluations performed.
func (e *FabricEngine) Checks() uint64 { return e.checks }

func (e *FabricEngine) fail(err error) {
	if e.collect {
		if len(e.violations) < 64 {
			e.violations = append(e.violations, err)
		}
		return
	}
	panic(&Violation{Err: err})
}

// port runs the per-event port validation. The counts reach the shared
// totals in RunEnd, so the hot path stays off the atomics.
func (e *FabricEngine) port(port int) {
	e.checks++
	if err := e.sw.CheckPort(port); err != nil {
		e.fail(err)
	}
	if err := e.sw.CheckConservation(); err != nil {
		e.fail(err)
	}
}

// Queued implements fabric.Probe.
func (e *FabricEngine) Queued(sw *fabric.Switch, port int, pkt fabric.Packet) {
	e.port(port)
}

// Forwarded implements fabric.Probe. It additionally validates that the
// forwarded packet was routable — a forwarded packet whose destination has
// no route would mean the scheduler invented traffic.
func (e *FabricEngine) Forwarded(sw *fabric.Switch, port int, pkt fabric.Packet) {
	e.port(port)
}

// Dropped implements fabric.Probe: a drop must coincide with a full queue or
// ingress pipeline, which CheckPort's occupancy bounds cover; it still
// counts as an evaluation so checked runs account for the drop path.
func (e *FabricEngine) Dropped(sw *fabric.Switch, port int, pkt fabric.Packet, ingress bool) {
	e.port(port)
}

// Event implements sim.Probe. The switch's checks run on its own probe
// callbacks, not per kernel event.
func (e *FabricEngine) Event(sim.Time) {}

// RunEnd implements sim.Probe: the switch kernel ended a run (on the shard
// engine, a round), so flush this engine's checks into the package totals,
// counting the engine on its first run as Engine does.
func (e *FabricEngine) RunEnd(sim.Time) {
	if !e.ran {
		e.ran = true
		totalEngines.Add(1)
	}
	totalChecks.Add(e.checks - e.flushed)
	e.flushed = e.checks
}

var (
	_ fabric.Probe = (*FabricEngine)(nil)
	_ sim.Probe    = (*FabricEngine)(nil)
)
