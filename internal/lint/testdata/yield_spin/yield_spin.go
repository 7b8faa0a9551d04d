// Package yieldspin passes Proc.Spin steps that yield, in each form a step
// takes (a buffer-pool walker's step bound off a free list among them),
// beside steps that only read state, and does the same with the
// steps of bodiless processes: Kernel.SpawnSpin's (one that waits on an
// event by returning Await's result, one that calls Wait),
// Kernel.SpawnSpinAt's, the delivery handlers Engine.Connect and
// Switch.Attach take, and a bodiless NIC core's: one that runs a ring
// operation in step form, one that calls its body form. yieldlint must
// flag the first kind and accept the second.
package yieldspin

// Time is simulated time (the fixture's sim.Time).
type Time int64

// Proc stands in for sim.Proc.
type Proc struct{ now Time }

// Sleep stands in for sim.Proc.Sleep, the kernel's blocking primitive.
//
//ccnic:yields
func (p *Proc) Sleep(d Time) { p.now += d }

// Event stands in for sim.Event.
type Event struct{ waiters []*Proc }

// Wait stands in for sim.Proc.Wait, which blocks the process.
//
//ccnic:yields
func (p *Proc) Wait(ev *Event) { ev.waiters = append(ev.waiters, p) }

// Await stands in for sim.Proc.Await: a step returns its result to block
// its process on ev, and nothing yields.
func (p *Proc) Await(ev *Event) (Time, bool) {
	ev.waiters = append(ev.waiters, p)
	return 0, true
}

// Spin stands in for sim.Proc.Spin: the scheduler calls step at each wake.
func (p *Proc) Spin(d Time, step func() (Time, bool)) {
	p.Sleep(d)
	step()
}

type engine struct {
	p     *Proc
	ready bool
}

// charge yields transitively, which the call-graph walk must discover.
func (e *engine) charge() { e.p.Sleep(1) }

// idle only reads state: a valid step.
func (e *engine) idle() (Time, bool) { return 5, !e.ready }

// busy charges time from inside the scheduler.
func (e *engine) busy() (Time, bool) {
	e.charge()
	return 5, true
}

// poll blocks, as a plain function.
func poll() (Time, bool) {
	var p Proc
	p.Sleep(1)
	return 5, true
}

func (e *engine) run() {
	e.p.Spin(5, e.idle)
	e.p.Spin(5, e.busy) // want "spin step busy yields \(busy -> charge -> Sleep\)"
	e.p.Spin(5, poll)   // want "spin step poll yields"

	// Bound once, as the engines do.
	step, bad := e.idle, e.busy
	e.p.Spin(5, step)
	e.p.Spin(5, bad) // want "spin step busy yields"
	var declared = poll
	e.p.Spin(5, declared) // want "spin step poll yields"

	e.p.Spin(5, func() (Time, bool) { return 5, !e.ready })
	e.p.Spin(5, func() (Time, bool) { // want "spin step calls yielding function charge"
		e.charge()
		return 5, true
	})
}

// walker binds its steps once, to fields, as a step reused across many
// spins must be: assigned, or keyed in a composite literal.
type walker struct {
	e                *engine
	step, bad, worse func() (Time, bool)
}

func newWalker(e *engine) *walker {
	w := &walker{e: e, step: e.idle, bad: e.busy}
	w.worse = poll
	return w
}

func (w *walker) run() {
	w.e.p.Spin(5, w.step)
	w.e.p.Spin(5, w.bad)   // want "spin step busy yields"
	w.e.p.Spin(5, w.worse) // want "spin step poll yields"
}

// Agent stands in for coherence.Agent, whose Exec charges CPU time by
// sleeping the calling process.
type Agent struct{ p *Proc }

// Exec stands in for coherence.Agent.Exec.
func (a *Agent) Exec(d Time) { a.p.Sleep(d) }

// bufWalk stands in for a buffer-pool burst walker: it comes off its port's
// free list with its steps bound once, and each step completes one charge
// of the burst and starts the next operation.
type bufWalk struct {
	a           *Agent
	step, fused func() (Time, bool)
	next        *bufWalk
}

// bufPort stands in for a buffer-pool port.
type bufPort struct {
	a     *Agent
	walks *bufWalk
}

func (pt *bufPort) walker() *bufWalk {
	w := pt.walks
	if w == nil {
		w = &bufWalk{a: pt.a}
		w.step = w.advance
		w.fused = w.charged
	} else {
		pt.walks = w.next
	}
	return w
}

// advance returns the next operation's charge: a valid step.
func (w *bufWalk) advance() (Time, bool) { return 2, w.next != nil }

// charged charges the next operation itself, as the per-buffer Free did.
func (w *bufWalk) charged() (Time, bool) {
	w.a.Exec(2)
	return 0, w.next != nil
}

func (pt *bufPort) burst(p *Proc) {
	w := pt.walker()
	p.Spin(2, w.step)
	p.Spin(2, w.fused) // want "spin step charged yields \(charged -> Exec -> Sleep\)"
}

// Kernel stands in for sim.Kernel.
type Kernel struct{}

// SpawnSpin stands in for sim.Kernel.SpawnSpin: a process made of steps.
func (k *Kernel) SpawnSpin(name string, step func() (Time, bool)) { step() }

// SpawnSpinAt stands in for sim.Kernel.SpawnSpinAt: a process made of
// steps, the first d from now.
func (k *Kernel) SpawnSpinAt(name string, d Time, step func() (Time, bool)) { step() }

// Delivery stands in for shard.Delivery.
type Delivery struct{ Step int }

// Engine stands in for shard.Engine.
type Engine struct{}

// Connect stands in for shard.Engine.Connect: deliver runs in steps.
func (e *Engine) Connect(minLat Time, deliver func(d *Delivery) (Time, bool)) {
	deliver(&Delivery{})
}

// Switch stands in for fabric.Switch.
type Switch struct{}

// Attach stands in for fabric.Switch.Attach: deliver runs in steps.
func (sw *Switch) Attach(e *Engine, deliver func(d *Delivery, bytes int) (Time, bool)) {
	deliver(&Delivery{}, 64)
}

// receive charges its cost by returning it: a valid handler.
func (e *engine) receive(d *Delivery) (Time, bool) { return 5, d.Step == 0 }

// receiveSleeping charges its cost by sleeping.
func (e *engine) receiveSleeping(d *Delivery) (Time, bool) {
	e.charge()
	return 0, false
}

func (e *engine) bodiless(k *Kernel, eng *Engine, sw *Switch) {
	k.SpawnSpin("idle", e.idle)
	k.SpawnSpin("busy", e.busy)              // want "spin step busy yields"
	k.SpawnSpin("lit", func() (Time, bool) { // want "spin step calls yielding function charge"
		e.charge()
		return 5, true
	})

	// A step blocks on an event by returning Await's result, never by
	// calling Wait.
	ev := &Event{}
	var waiter *Proc
	k.SpawnSpin("await", func() (Time, bool) { return waiter.Await(ev) })
	k.SpawnSpin("wait", func() (Time, bool) { // want "spin step calls yielding function Wait"
		waiter.Wait(ev)
		return 0, true
	})
	k.SpawnSpinAt("idle-at", 5, e.idle)
	k.SpawnSpinAt("busy-at", 5, e.busy) // want "spin step busy yields"

	eng.Connect(5, e.receive)
	eng.Connect(5, e.receiveSleeping) // want "spin step receiveSleeping yields"
	handler := e.receiveSleeping
	eng.Connect(5, handler) // want "spin step receiveSleeping yields"

	sw.Attach(eng, func(d *Delivery, bytes int) (Time, bool) { return Time(bytes), d.Step == 0 })
	sw.Attach(eng, func(d *Delivery, bytes int) (Time, bool) { // want "spin step calls yielding function receiveSleeping"
		return e.receiveSleeping(d)
	})
}

// Ring stands in for ring.Inline: Consume is the process-side operation,
// which charges the process it runs on.
type Ring struct{ a *Agent }

// Consume stands in for ring.Inline.Consume, a body-form call.
func (r *Ring) Consume(p *Proc, out []int) int {
	r.a.Exec(3)
	return len(out)
}

// RingWalk stands in for ring.Walk: the same operation in step form, each
// charge returned to the step that runs it.
type RingWalk struct{ n int }

// Consume starts the step form and returns its first charge.
func (w *RingWalk) Consume(r *Ring, out []int) (Time, bool) {
	w.n = len(out)
	return 3, w.n > 0
}

// Advance completes the charge in flight.
func (w *RingWalk) Advance() (Time, bool) { return 0, false }

// nicCore stands in for a bodiless NIC core, whose step runs its service
// iteration's ring operations.
type nicCore struct {
	p    *Proc
	r    *Ring
	walk RingWalk
	out  []int
	busy bool
}

// serve runs the ring operation in step form: a valid step.
func (c *nicCore) serve() (Time, bool) {
	if c.busy {
		return c.walk.Advance()
	}
	c.busy = true
	return c.walk.Consume(c.r, c.out)
}

// serveBody calls the body-form operation from the step.
func (c *nicCore) serveBody() (Time, bool) {
	return Time(c.r.Consume(c.p, c.out)), true
}

func (c *nicCore) start(k *Kernel) {
	k.SpawnSpin("nic", c.serve)
	k.SpawnSpin("nic-body", c.serveBody) // want "spin step serveBody yields \(serveBody -> Consume -> Exec -> Sleep\)"
}
