package sim

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"strings"
)

// Never is an instant that no clock reaches.
const Never = Time(math.MaxInt64)

// ErrDeadlock is returned by Run when processes remain blocked on events but
// no process is runnable, so virtual time can no longer advance. Run wraps it
// with the names of the blocked processes and the events they wait on; test
// with errors.Is.
var ErrDeadlock = errors.New("sim: deadlock: processes blocked with empty run queue")

// procState tracks where a process is in its lifecycle.
type procState uint8

const (
	procNew procState = iota
	procRunnable
	procRunning
	procWaiting // blocked on an Event
	procPooled  // function returned; coroutine parked for reuse by Spawn
	procDone
)

// abortSignal is panicked into a process coroutine to unwind it when the
// kernel shuts down mid-simulation.
type abortSignal struct{}

// Probe observes kernel scheduling for online model validation
// (internal/check). Event fires when an event is selected from the run
// queue, whether it resumes a coroutine or runs a spin step inline (see
// Proc.Spin). The run-next fast path, where the parking process (or a
// spinner) is itself strictly next, advances the clock by construction
// (wake = now + non-negative delta), so it needs no monotonicity check and
// stays free of probe branches. RunEnd fires when Run or RunUntil returns,
// giving checkers a quiescent point for full validation passes.
type Probe interface {
	Event(now Time)
	RunEnd(now Time)
}

// ParkProbe observes the parks that switch a process out: Park runs on the
// parking process's own coroutine just before it hands execution back to
// the run loop, so the probe can read the park site off its stack (a park
// ledger, for tests and profiling). Each such park is followed by a
// coroutine switch into another process, or the run's end; a park the
// run-next fast path absorbs switches nothing and is not reported.
type ParkProbe interface {
	Park(p *Proc)
}

// Proc is a simulated process. A Proc's function runs on its own coroutine
// (an iter.Pull-backed goroutine resumed by direct coroutine switches, never
// through the Go scheduler), and the kernel guarantees that at most one
// process executes at any moment, so processes may freely share model state
// without synchronization.
//
// All Proc methods must be called from the process's own coroutine while it
// is running. A bodiless process (see SpawnSpin) has no coroutine: its steps
// may call Now and Kernel, pass the Proc to calls that only read them, and
// block on an event by returning Await's result.
type Proc struct {
	k     *Kernel
	name  string
	id    int
	state procState

	wake Time // scheduled resume time while runnable
	seq  uint64
	fn   func(*Proc) // current body; rebound when a pooled proc is respawned

	// spin is the step the scheduler calls at each wake while the process
	// is parked in Spin; nil otherwise.
	spin func() (Time, bool)

	// Coroutine control, all nil for a bodiless process. resume transfers
	// execution into the process and returns when it parks (true) or its
	// function returns (false); yield transfers execution back to the
	// kernel's run loop and returns false when the process is being aborted;
	// cancel unwinds a parked process.
	// Each pair of transfers is a runtime coroutine switch — roughly half
	// the cost of a blocking channel handoff, and free of scheduler state.
	resume func() (struct{}, bool)
	cancel func()
	yield  func(struct{}) bool
}

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Sleep advances virtual time for this process by d, yielding to any other
// process scheduled earlier. Negative durations are treated as zero.
//
//ccnic:noalloc
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.wake = p.k.now + d
	p.park(procRunnable)
}

// Spin sleeps d, then hands the process's wakes to step: at each one the
// scheduler calls step inline, on whichever coroutine or run loop is
// selecting the next event, without switching to this process. A step
// that returns (d, true) sleeps the process d more; (_, false) resumes it,
// and Spin returns in that same event. Each step call is one event, and
// the clock, the Events count, the probe and the run-queue order all see
// exactly what a Sleep loop running the same code would have made them
// see — but no coroutine switch.
//
// A step runs outside every process, so it must not block: it may not call
// Sleep, Wait or anything built on them, and doing so panics; it waits for
// an event by returning p.Await(ev) instead. Bind step once, outside the
// loop that spins: a method value made per call allocates.
//
//ccnic:noalloc
func (p *Proc) Spin(d Time, step func() (Time, bool)) {
	p.spin = step
	p.Sleep(d)
}

// Wait blocks until ev is signaled. Waiters resume in FIFO order at the
// virtual time of the Signal call.
//
//ccnic:noalloc
func (p *Proc) Wait(ev *Event) {
	ev.enlist(p)
	p.park(procWaiting)
}

// Await is Wait for a spin step: a step of p, bodiless (SpawnSpin) or
// spinning (Spin), returns p.Await(ev) to block p until ev is signaled.
// It does Wait's bookkeeping — p joins ev's waiters in FIFO order and the
// kernel counts it blocked — and the scheduler then selects the next event
// without re-pushing p, as Wait's park does. Signal pushes p with a fresh
// seq exactly as it pushes a waiting body, and p's step runs in the event
// where Wait would have returned; so the clock, the Events count, the probe
// and the run-queue order see what Wait would have made them see, with no
// coroutine switch. Call it only from p's own step, as its return value.
//
//ccnic:noalloc
func (p *Proc) Await(ev *Event) (Time, bool) {
	k := p.k
	if k.stepping != p {
		panic("sim: Await outside the process's own spin step")
	}
	ev.enlist(p)
	p.state = procWaiting
	k.waiting++
	return 0, true
}

// park picks the next runnable process and hands the execution baton back to
// the kernel's run loop, which resumes that process. This is the kernel's
// hot path: scheduling runs inline on the parking coroutine, so a
// park-resume cycle costs one coroutine round trip through the run loop —
// and no switch at all when the parking process is itself the next to run.
//
//ccnic:noalloc
func (p *Proc) park(s procState) {
	k := p.k
	if k.stepping != nil {
		panic(fmt.Sprintf("sim: spin step of %q blocked", k.stepping.name))
	}
	p.state = s
	if s == procRunnable {
		if p.spin == nil && k.runsNext(p) {
			// Run-next fast path (see reschedule), kept inline here:
			// it is most of a lone sleeper's events.
			if p.wake > k.now {
				k.now = p.wake
			}
			k.events++
			p.state = procRunning
			return
		}
		q := k.reschedule(p)
		if q == p {
			p.state = procRunning
			return
		}
		k.hand = q
	} else {
		k.waiting++
		k.hand = k.reschedule(nil)
	}
	if pp := k.parkProbe; pp != nil {
		pp.Park(p)
	}
	if !p.yield(struct{}{}) {
		panic(abortSignal{})
	}
	p.state = procRunning
}

// reschedule queues runnable p at p.wake, or nothing when p is nil, and
// selects the next event, running spin steps inline for as long as the
// selected process keeps spinning, leaving a step that awaited an event to
// its Signal, and ending bodiless processes whose last step ran. It returns
// the process to resume (p itself when p is next), or nil when the run
// ends (stop, deadline reached, completion, or deadlock — the caller
// classifies from kernel state).
//
//ccnic:noalloc
func (k *Kernel) reschedule(p *Proc) *Proc {
	for {
		if p != nil && k.runsNext(p) {
			// Run-next fast path: skip the heap entirely.
			if p.wake > k.now {
				k.now = p.wake
			}
			k.events++
		} else {
			var q *Proc
			if p == nil {
				if k.stopped {
					return nil
				}
				if q = k.heap.pop(); q == nil {
					if k.waiting > 0 && k.deadline >= 0 && k.now < k.deadline {
						// Event waiters are legitimately idle under a
						// deadline: a later Run may still signal them.
						k.now = k.deadline
					}
					return nil
				}
			} else {
				k.seq++
				p.seq = k.seq
				if k.stopped {
					k.heap.push(p) // Shutdown will abort p from the heap
					return nil
				}
				// One sift instead of a push and a pop.
				q = k.heap.pushpop(p)
			}
			if k.deadline >= 0 && q.wake > k.deadline {
				k.push(q) // reschedule for a future Run
				if k.now < k.deadline {
					k.now = k.deadline
				}
				return nil
			}
			if q.wake > k.now {
				k.now = q.wake
			}
			k.events++
			if k.probe != nil {
				k.probe.Event(k.now)
			}
			p = q
		}
		if p.spin == nil {
			return p
		}
		if k.step(p) {
			if p.state == procWaiting {
				p = nil // the step awaited an event, whose Signal pushes p
			}
			continue
		}
		if p.resume != nil {
			return p // p leaves Spin: resume its coroutine
		}
		// A bodiless process ends in the event of its last step.
		k.live--
		p.state = procDone
		k.spare = append(k.spare, p)
		p = nil
	}
}

// runsNext reports whether runnable p wakes strictly before every scheduled
// process, within the run: it would be popped right back, so the heap can
// be skipped. Strict inequality preserves FIFO ordering at equal instants
// (a re-pushed proc would sort behind its peers).
//
//ccnic:noalloc
func (k *Kernel) runsNext(p *Proc) bool {
	top := k.heap.peek()
	return (top == nil || p.wake < top.wake) && !k.stopped && (k.deadline < 0 || p.wake <= k.deadline)
}

// step runs spinning p's step for the event just selected. It reports
// whether p keeps spinning, with p.wake set to its next wake or p blocked
// by Await; otherwise p leaves Spin and must be resumed.
//
//ccnic:noalloc
func (k *Kernel) step(p *Proc) bool {
	k.stepping = p
	d, more := p.spin()
	k.stepping = nil
	if !more {
		p.spin = nil
		return false
	}
	if d < 0 {
		d = 0
	}
	p.wake = k.now + d
	return true
}

// Kernel is a discrete-event simulation kernel. Create one with New, add
// processes with Spawn or SpawnSpin, then call Run or RunUntil.
//
// A Kernel and all its processes run on whichever goroutine calls Run: the
// processes are coroutines, resumed by direct switches. That makes a kernel
// single-threaded by construction and lets a multi-shard runtime (see
// internal/sim/shard) drive one kernel per worker goroutine with no locking
// inside the simulation itself.
type Kernel struct {
	now      Time
	heap     procHeap
	seq      uint64
	nextID   int
	live     int // spawned and not yet done
	waiting  int // procs blocked on events
	running  bool
	stopped  bool
	deadline Time // active RunUntil deadline, or -1
	events   uint64
	resumes  uint64

	// stepping is the spinner whose step is running, so a step that
	// blocks can be caught; nil outside steps.
	stepping *Proc

	// hand is the process a parking coroutine selected for the run loop to
	// resume next; nil ends the run (stop, deadline, completion, deadlock).
	hand *Proc

	// waitEvents holds events that currently have waiters (conservatively:
	// drained events linger until compaction), for Shutdown and deadlock
	// reporting. Compaction keeps it within 2x the live waited-on set.
	waitEvents []*Event
	compactAt  int

	// pool holds finished processes whose coroutines are parked for reuse
	// by Spawn (see Spawn). Bounded by the high-water mark of live procs,
	// and released when a run ends with none live.
	pool []*Proc

	// spare holds ended bodiless processes for reuse by SpawnSpin: plain
	// structs, bounded by the high-water mark of live bodiless processes.
	spare []*Proc

	// probe is the optional scheduling observer, and parkProbe the
	// optional park observer; nil in normal runs.
	probe     Probe
	parkProbe ParkProbe
}

// SetProbe installs (or removes, with nil) the kernel's scheduling probe.
func (k *Kernel) SetProbe(p Probe) { k.probe = p }

// SetParkProbe installs (or removes, with nil) the kernel's park probe.
// Like a scheduling probe, it only observes: the run is the same with or
// without it.
func (k *Kernel) SetParkProbe(pp ParkProbe) { k.parkProbe = pp }

// New creates an empty kernel at time zero.
func New() *Kernel {
	return &Kernel{
		deadline:  -1,
		compactAt: 64,
	}
}

// Now returns the current virtual time.
//
//ccnic:noalloc
func (k *Kernel) Now() Time { return k.now }

// Live returns the number of spawned processes that have not finished.
func (k *Kernel) Live() int { return k.live }

// Events returns the number of simulation events (process resumptions and
// spin steps) the kernel has executed.
func (k *Kernel) Events() uint64 { return k.events }

// Resumes returns the number of coroutine switches into a process: the
// events that neither the run-next fast path nor a spin step absorbed.
func (k *Kernel) Resumes() uint64 { return k.resumes }

// NextWake returns the virtual time of the earliest scheduled process and
// true, or (0, false) when no process is runnable (the kernel is idle until
// an external signal or injected process arrives). Shard runtimes use this
// as the kernel's event-horizon floor when computing safe advance windows.
func (k *Kernel) NextWake() (Time, bool) {
	if top := k.heap.peek(); top != nil {
		return top.wake, true
	}
	return 0, false
}

// Spawn creates a process that will first run at the current virtual time.
// It may be called before Run or from a running process.
//
// Finished processes park their coroutine in a per-kernel pool, and Spawn
// reuses one when available: the dominant spawn costs (a fresh goroutine,
// its stack, and the iter.Pull plumbing) are then paid only for the
// high-water mark of concurrently live processes, not per spawn. Workloads
// that spawn a short-lived process per message run almost entirely on warm,
// recycled coroutines. A run that ends with no process live releases the
// pool. Reuse is LIFO and single-threaded, so it cannot perturb scheduling
// order: a spawned process is identified by its fresh heap position
// (wake, seq), never by which coroutine executes it.
func (k *Kernel) Spawn(name string, fn func(*Proc)) *Proc {
	if n := len(k.pool); n > 0 {
		p := k.pool[n-1]
		k.pool[n-1] = nil
		k.pool = k.pool[:n-1]
		p.name = name
		p.fn = fn
		p.state = procNew
		p.wake = k.now
		k.live++
		k.push(p)
		return p
	}
	p := &Proc{
		k:     k,
		name:  name,
		id:    k.nextID,
		state: procNew,
		wake:  k.now,
		fn:    fn,
	}
	k.nextID++
	k.live++
	p.resume, p.cancel = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(abortSignal); !ok {
					panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
				}
			}
		}()
		for {
			p.fn(p)
			if !p.retire() {
				return
			}
		}
	})
	k.push(p)
	return p
}

// SpawnSpin creates a bodiless process: one whose whole life is spin steps
// (see Spin), so it never gets a coroutine. It is scheduled exactly as Spawn
// schedules a process, at the current virtual time, and at each of its wakes
// the scheduler calls step inline, where Spawn's process would be resumed.
// A step that returns (d, true) sleeps the process d more; (_, false) ends
// it in that same event. So the clock, the Events count, the probe and the
// run-queue order see exactly what a process sleeping the same delays
// between the same code would have made them see, with no coroutine switch.
//
// The returned Proc is the process's handle for its steps. It is recycled
// once the last step returns, so it must not be kept past it. A step must
// not block — it waits for an event by returning Await's result — and
// should be bound once, as Spin's is.
func (k *Kernel) SpawnSpin(name string, step func() (Time, bool)) *Proc {
	return k.SpawnSpinAt(name, 0, step)
}

// SpawnSpinAt is SpawnSpin with the first step d after the current virtual
// time: the process is pushed at now + d, taking its seq from this call, so
// at equal wakes it runs behind every entry pushed before it and ahead of
// every later push. A negative d counts as zero. Spawned while no heap
// entry wakes at now, a batch of them takes the (wake, seq) places that
// SpawnSpin processes sleeping d in their first steps would take, without
// those events.
func (k *Kernel) SpawnSpinAt(name string, d Time, step func() (Time, bool)) *Proc {
	if d < 0 {
		d = 0
	}
	var p *Proc
	if n := len(k.spare); n > 0 {
		p = k.spare[n-1]
		k.spare[n-1] = nil
		k.spare = k.spare[:n-1]
	} else {
		p = &Proc{k: k, id: k.nextID}
		k.nextID++
	}
	p.name = name
	p.state = procNew
	p.wake = k.now + d
	p.spin = step
	k.live++
	k.push(p)
	return p
}

// retire parks a finished process's coroutine in the kernel pool and hands
// the run loop its successor. It returns true when the coroutine has been
// respawned with a new body, false when the kernel cancelled it (Shutdown
// draining the pool) and the coroutine must exit.
func (p *Proc) retire() bool {
	k := p.k
	k.live--
	p.state = procPooled
	p.fn = nil
	k.pool = append(k.pool, p)
	k.hand = k.reschedule(nil)
	if !p.yield(struct{}{}) {
		return false
	}
	p.state = procRunning
	return true
}

// Stop requests that Run return after the current process parks; remaining
// processes are then aborted. Call from a running process or before Run.
func (k *Kernel) Stop() { k.stopped = true }

// push schedules p on the run queue at p.wake.
//
//ccnic:noalloc
func (k *Kernel) push(p *Proc) {
	k.seq++
	p.seq = k.seq
	k.heap.push(p)
}

// Run executes processes in virtual-time order until all have finished, Stop
// is called, or deadlock is detected. It returns an error wrapping
// ErrDeadlock if processes remain blocked on events that nothing can signal.
func (k *Kernel) Run() error { return k.run(-1) }

// RunUntil executes like Run but also returns (with nil error) once the next
// scheduled process would run strictly after deadline; the clock is then set
// to deadline. Processes left parked remain resumable by a later Run or
// RunUntil call, and can be discarded with Shutdown.
func (k *Kernel) RunUntil(deadline Time) error { return k.run(deadline) }

func (k *Kernel) run(deadline Time) error {
	if k.running {
		return errors.New("sim: kernel already running")
	}
	k.running = true
	k.deadline = deadline
	defer func() {
		k.running = false
		k.deadline = -1
		// A drained kernel has nothing left to respawn into its pooled
		// coroutines; release them, or each parked goroutine pins the
		// kernel and everything its probe reaches. Across RunUntil cuts
		// with live processes the pool stays warm.
		if k.live == 0 {
			k.releasePool()
		}
	}()
	// The run loop: resume the next process; when it parks it has already
	// selected its successor (k.hand), and when its function returns the
	// loop retires it and pops the heap directly.
	for p := k.reschedule(nil); p != nil; {
		k.hand = nil
		k.resumes++
		if _, parked := p.resume(); !parked {
			p.state = procDone
			k.live--
			p = k.reschedule(nil)
			continue
		}
		p = k.hand
	}
	if k.probe != nil {
		k.probe.RunEnd(k.now)
	}
	if k.stopped {
		k.stopped = false
		k.Shutdown()
		return nil
	}
	if deadline < 0 && k.waiting > 0 {
		return k.deadlockError()
	}
	return nil
}

// deadlockError describes which processes are blocked and on what.
func (k *Kernel) deadlockError() error {
	const maxListed = 16
	var b strings.Builder
	n := 0
	for _, ev := range k.waitEvents {
		for _, p := range ev.waiters {
			if n == maxListed {
				break
			}
			if n > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%q on event %q", p.name, ev.name)
			n++
		}
	}
	if b.Len() == 0 {
		return ErrDeadlock
	}
	if k.waiting > n {
		fmt.Fprintf(&b, ", ... (%d blocked total)", k.waiting)
	}
	return fmt.Errorf("%w: %s", ErrDeadlock, b.String())
}

// Shutdown aborts every live process, unwinding its coroutine. The kernel
// must not be running. After Shutdown the kernel can still Spawn and Run new
// processes, though typically a fresh kernel is created instead.
func (k *Kernel) Shutdown() {
	for {
		p := k.heap.pop()
		if p == nil {
			break
		}
		k.abort(p)
	}
	for _, ev := range k.waitEvents {
		for _, p := range ev.waiters {
			k.waiting--
			k.abort(p)
		}
		ev.waiters = nil
		ev.reg = false
	}
	k.waitEvents = k.waitEvents[:0]
	k.releasePool()
}

// releasePool drains the reuse pool: cancelling a pooled coroutine makes its
// pending yield return false, so it exits its respawn loop. Pooled procs
// already left the live count when they retired.
func (k *Kernel) releasePool() {
	for i, p := range k.pool {
		p.cancel()
		p.state = procDone
		k.pool[i] = nil
	}
	k.pool = k.pool[:0]
}

// abort unwinds a parked (or never-started) process synchronously: cancel
// makes the process's pending yield return false, which panics abortSignal
// through its function; a process that never ran simply never starts, and
// a bodiless one has nothing to unwind.
func (k *Kernel) abort(p *Proc) {
	if p.state == procDone {
		return
	}
	p.spin = nil
	if p.cancel != nil {
		p.cancel()
	}
	p.state = procDone
	k.live--
}

// compactWaitEvents drops events that no longer have waiters and doubles the
// next compaction threshold, bounding the tracked set to 2x the live one.
//
//ccnic:noalloc
func (k *Kernel) compactWaitEvents() {
	kept := k.waitEvents[:0]
	for _, ev := range k.waitEvents {
		if len(ev.waiters) > 0 {
			kept = append(kept, ev)
		} else {
			ev.reg = false
		}
	}
	for i := len(kept); i < len(k.waitEvents); i++ {
		k.waitEvents[i] = nil
	}
	k.waitEvents = kept
	k.compactAt = 2 * len(kept)
	if k.compactAt < 64 {
		k.compactAt = 64
	}
}

// Event is a broadcast wakeup primitive. Processes block on it with
// Proc.Wait; Signal wakes every current waiter at the current virtual time.
type Event struct {
	k       *Kernel
	name    string
	waiters []*Proc
	reg     bool // tracked in k.waitEvents
}

// NewEvent creates an event attached to the kernel. Events cost the kernel
// nothing until a process waits on them.
func (k *Kernel) NewEvent(name string) *Event {
	return &Event{k: k, name: name}
}

// Signal wakes all processes currently waiting on the event. They resume at
// the current virtual time, in the order they began waiting. Safe to call
// when there are no waiters.
//
//ccnic:noalloc
func (ev *Event) Signal() {
	for _, p := range ev.waiters {
		p.wake = ev.k.now
		p.state = procRunnable
		ev.k.waiting--
		ev.k.push(p)
	}
	ev.waiters = ev.waiters[:0]
}

// enlist appends p to the event's waiters at the current instant.
//
//ccnic:noalloc
func (ev *Event) enlist(p *Proc) {
	k := ev.k
	ev.waiters = append(ev.waiters, p)
	if !ev.reg {
		// Registration-on-wait: the kernel tracks only events that have
		// waiters (plus recently-drained ones until the next compaction),
		// so long-lived kernels do not accumulate every event ever made.
		ev.reg = true
		k.waitEvents = append(k.waitEvents, ev)
		if len(k.waitEvents) >= k.compactAt {
			k.compactWaitEvents()
		}
	}
	p.wake = k.now
}

// Waiters returns the number of processes blocked on the event.
func (ev *Event) Waiters() int { return len(ev.waiters) }
