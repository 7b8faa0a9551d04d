package check

import (
	"ccnic/internal/fabric"
	"ccnic/internal/sim"
)

// FabricEngine validates one fabric Switch online: after every counter
// change on a port it re-checks that port's conservation (admitted =
// forwarded + queued + serializing), bounded occupancy, and the DRR deficit
// bound (deficit <= quantum + largest queued packet), then the switch-wide
// conservation. Like the coherence engine it is installed through a
// nil-guarded probe hook, so unchecked runs pay one branch per event, and
// violations panic as *Violation. It is also the switch kernel's sim.Probe,
// so it flushes its totals when a run ends.
type FabricEngine struct {
	checks  uint64
	flushed uint64
	ran     bool
}

// AttachFabric builds an engine for sw and installs it as the probe of both
// the switch and its kernel.
func AttachFabric(sw *fabric.Switch) *FabricEngine {
	e := &FabricEngine{}
	sw.SetProbe(e)
	sw.Kernel().SetProbe(e)
	return e
}

// Checks returns the number of invariant evaluations performed.
func (e *FabricEngine) Checks() uint64 { return e.checks }

// PortEvent implements fabric.Probe. The counts reach the shared totals in
// RunEnd, so the hot path stays off the atomics.
func (e *FabricEngine) PortEvent(sw *fabric.Switch, port int) {
	e.checks++
	if err := sw.CheckPort(port); err != nil {
		panic(&Violation{Err: err})
	}
	if err := sw.CheckConservation(); err != nil {
		panic(&Violation{Err: err})
	}
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
