// Package check implements the online invariant engine behind ccbench
// -check: a read-only coherence.Probe + sim.Probe that validates the DESIGN
// §5 invariants after every relevant model event. The model packages never
// import this package — they emit events through the nil-guarded probe hooks
// compiled into coherence, ring, bufpool, sim, and loopback, so the disabled
// path costs one predictable branch per event.
//
// Checks come in two tiers. Cheap per-event checks run on every probe
// callback: the mutated line's directory entry versus the caches it names,
// a ring's cursor and ready-flag invariants, a pool's counter conservation,
// link-busy and simulated-time monotonicity. Expensive whole-model scans
// (stray cached copies unknown to the directory, duplicate buffers across
// free lists) run every fullEvery kernel events and once more when the
// kernel drains, so "reconcile at drain" holds for every run.
package check

import (
	"fmt"
	"sync/atomic"

	"ccnic/internal/bufpool"
	"ccnic/internal/coherence"
	"ccnic/internal/interconn"
	"ccnic/internal/mem"
	"ccnic/internal/ring"
	"ccnic/internal/sim"
)

// interconnDir converts a loop index to a link direction.
func interconnDir(i int) interconn.Direction { return interconn.Direction(i) }

// Package-wide totals, flushed by each engine when its kernel drains.
// Experiments run points on parallel goroutines, one engine per System.
var (
	totalChecks  atomic.Uint64
	totalEngines atomic.Uint64
)

// TotalChecks returns the number of invariant evaluations performed by all
// engines whose runs have completed.
func TotalChecks() uint64 { return totalChecks.Load() }

// TotalEngines returns the number of completed engine runs.
func TotalEngines() uint64 { return totalEngines.Load() }

// Violation is the panic value raised on an invariant failure, so harnesses
// can distinguish model bugs from programming errors.
type Violation struct {
	Err error
}

func (v *Violation) Error() string { return v.Err.Error() }
func (v *Violation) Unwrap() error { return v.Err }

// cursors snapshots a ring's monotone positions between events.
type cursors [4]int

// Engine validates one System. It implements coherence.Probe and sim.Probe.
// Engines are not safe for concurrent use, matching the kernel's
// one-runnable-process guarantee under which all probe callbacks fire.
type Engine struct {
	sys *coherence.System
	k   *sim.Kernel

	// collect accumulates violations instead of panicking (self-tests).
	collect    bool
	violations []error

	checks        uint64
	flushedChecks uint64
	flushed       bool
	fullEvery     uint64
	lastFull      uint64

	lastNow  sim.Time
	lastBusy [2]sim.Time

	// Structures seen via ObjectEvent, re-validated on full passes.
	objs []coherence.Checkable
	seen map[coherence.Checkable]bool
	prev map[coherence.Checkable]cursors
}

// Attach builds an engine for sys and installs it as both the system's and
// the kernel's probe.
func Attach(sys *coherence.System) *Engine {
	e := &Engine{
		sys:       sys,
		k:         sys.Kernel(),
		fullEvery: 1 << 20,
		seen:      make(map[coherence.Checkable]bool),
		prev:      make(map[coherence.Checkable]cursors),
	}
	sys.SetProbe(e)
	e.k.SetProbe(e)
	return e
}

// SetCollect switches the engine to accumulate violations (up to a cap)
// instead of panicking. Used by self-tests that expect failures.
func (e *Engine) SetCollect(on bool) { e.collect = on }

// Violations returns the failures accumulated in collect mode.
func (e *Engine) Violations() []error { return e.violations }

// SetFullEvery overrides the full-scan throttle (kernel events between
// whole-model passes). Tests use small values to scan aggressively.
func (e *Engine) SetFullEvery(n uint64) { e.fullEvery = n }

// Checks returns the number of invariant evaluations this engine performed.
func (e *Engine) Checks() uint64 { return e.checks }

func (e *Engine) fail(err error) {
	err = fmt.Errorf("invariant violated at t=%v: %w", e.k.Now(), err)
	if e.collect {
		if len(e.violations) < 64 {
			e.violations = append(e.violations, err)
		}
		return
	}
	panic(&Violation{Err: err})
}

// step runs the per-event global checks: link busy-time monotonicity and the
// throttled full pass.
func (e *Engine) step() {
	link := e.sys.Link()
	for dir := 0; dir < 2; dir++ {
		b := link.BusyUntil(interconnDir(dir))
		if b < e.lastBusy[dir] {
			e.fail(fmt.Errorf("link direction %d busy-until moved backwards: %v -> %v",
				dir, e.lastBusy[dir], b))
		}
		e.lastBusy[dir] = b
	}
	if ev := e.k.Events(); ev-e.lastFull >= e.fullEvery {
		e.lastFull = ev
		e.fullPass()
	}
}

// fullPass runs the expensive whole-model scans.
func (e *Engine) fullPass() {
	e.checks++
	if err := e.sys.CheckInvariants(); err != nil {
		e.fail(err)
	}
	for _, obj := range e.objs {
		e.checks++
		var err error
		if pl, ok := obj.(*bufpool.Pool); ok {
			err = pl.CheckConservation()
		} else {
			err = obj.CheckInvariants()
		}
		if err != nil {
			e.fail(fmt.Errorf("%s: %w", obj.CheckDesc(), err))
		}
	}
}

// LineEvent implements coherence.Probe: re-validate the mutated line's
// directory entry against the caches it names.
func (e *Engine) LineEvent(line mem.Addr) {
	e.checks++
	e.step()
	if err := e.sys.CheckLine(line); err != nil {
		e.fail(err)
	}
}

// Fail implements coherence.Probe.
func (e *Engine) Fail(err error) {
	e.checks++
	e.fail(err)
}

// ObjectEvent implements coherence.Probe.
func (e *Engine) ObjectEvent(obj coherence.Checkable) {
	e.checks++
	e.step()
	if !e.seen[obj] {
		e.seen[obj] = true
		e.objs = append(e.objs, obj)
	}
	if err := obj.CheckInvariants(); err != nil {
		e.fail(fmt.Errorf("%s: %w", obj.CheckDesc(), err))
	}
	// Cursor monotonicity for ring types.
	var cur cursors
	var track bool
	switch r := obj.(type) {
	case *ring.Inline:
		prod, cons, reclaim, _ := r.Cursors()
		cur, track = cursors{prod, cons, reclaim}, true
	case *ring.Reg:
		cur, track = cursors{r.TailIdx, r.HeadIdx}, true
	}
	if track {
		if p, ok := e.prev[obj]; ok {
			for i := range cur {
				if cur[i] < p[i] {
					e.fail(fmt.Errorf("%s: cursor %d moved backwards: %d -> %d",
						obj.CheckDesc(), i, p[i], cur[i]))
				}
			}
		}
		e.prev[obj] = cur
	}
}

// Event implements sim.Probe: simulated time must never move backwards.
func (e *Engine) Event(now sim.Time) {
	e.checks++
	if now < e.lastNow {
		e.fail(fmt.Errorf("simulated time moved backwards: %v -> %v", e.lastNow, now))
	}
	e.lastNow = now
}

// RunEnd implements sim.Probe: the kernel drained (or hit its deadline), so
// reconcile the whole model and flush this run's totals.
func (e *Engine) RunEnd(now sim.Time) {
	e.Event(now)
	e.fullPass()
	if !e.flushed {
		e.flushed = true
		totalEngines.Add(1)
	}
	totalChecks.Add(e.checks - e.flushedChecks)
	e.flushedChecks = e.checks
}
