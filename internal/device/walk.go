package device

import (
	"ccnic/internal/bufpool"
	"ccnic/internal/coherence"
	"ccnic/internal/ring"
	"ccnic/internal/sim"
)

// A coherent queue's NIC service iteration (nicWalk) and its host driver
// calls (driverWalk) run as walks: state machines whose every charge is a
// step-form coherent access (coherence.Access), ring operation (ring.Walk)
// or buffer-pool burst (bufpool.Burst), or a plain CPU charge, and which
// run on to their next charge in the event the one before completes. A
// walk is the body it replaces cut at its sleeps: each stage is the code
// between two charges, so every mutation, draw and probe notification
// stays in the event where the body made it, and the clock, the event
// count, the probe and the run-queue order see exactly what the body would
// have made them see. Only the coroutine switches go: a bodiless NIC core
// has none, and a driver call resumes its caller once.

// charge is the step-form operation a walk waits on: at most one of its
// operations is in flight, and with none a plain CPU charge is.
type charge struct {
	acc   coherence.Access
	ring  ring.Walk
	burst bufpool.Burst
}

// advance completes the charge in flight, or its part in flight, and
// returns the operation's next charge, or reports false once it has ended.
// An ended burst stays for burstEnd.
//
//ccnic:noalloc
func (c *charge) advance() (sim.Time, bool) {
	switch {
	case c.acc.Live():
		return c.acc.Advance()
	case c.ring.Live():
		return c.ring.Advance()
	case c.burst != (bufpool.Burst{}):
		return c.burst.Advance()
	}
	return 0, false // a plain charge has elapsed
}

// startBurst holds a burst a Start method began, returning its first
// charge; an ended burst waits for burstEnd.
//
//ccnic:noalloc
func (c *charge) startBurst(b bufpool.Burst, d sim.Time, ok bool) (sim.Time, bool) {
	c.burst = b
	return d, ok
}

// burstEnd ends the held burst and returns how many operations it
// completed.
//
//ccnic:noalloc
func (c *charge) burstEnd() int {
	n := c.burst.End()
	c.burst = bufpool.Burst{}
	return n
}
