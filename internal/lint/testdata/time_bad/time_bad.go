// Package timebad breaks the simulated-time discipline in all three ways:
// wall-clock conversions in both directions, bare-literal durations, and a
// stale pre-yield snapshot compared for equality against the current time,
// once bare and once under a comment that is not a suppression key.
package timebad

import "time"

// Time is simulated time in picoseconds (the fixture's sim.Time).
type Time int64

// Picosecond is the base unit; durations are spelled from constants like it.
const Picosecond Time = 1

// Nanosecond is a thousand picoseconds.
const Nanosecond = 1000 * Picosecond

// Clock models the kernel clock.
type Clock struct{ now Time }

// Now returns the current simulated time.
func (c *Clock) Now() Time { return c.now }

// wait models a blocking primitive.
//
//ccnic:yields
func (c *Clock) wait() {}

// fromWall launders the host clock into simulated time through an int64.
func fromWall() Time {
	return Time(time.Now().UnixNano()) // want "conversion from wall-clock time to sim.Time"
}

// toWall converts simulated time back out to the host representation.
func toWall(t Time) time.Duration {
	return time.Duration(t) // want "conversion from sim.Time to a wall-clock type"
}

// magic offsets and compares with bare integer literals instead of the
// named unit constants.
func magic(c *Clock) bool {
	deadline := c.Now() + 500 // want "bare literal"
	return deadline > 1000000 // want "bare literal"
}

// stale captures the clock, yields, and then expects the snapshot to still
// equal the current time.
func stale(c *Clock) bool {
	start := c.Now()
	c.wait()
	return start == c.Now() // want "captured before a yielding call"
}

// replay carries a rationale in the form of an annotation, but timelint has
// no suppression key: the stale equality is still reported.
func replay(c *Clock) bool {
	start := c.Now()
	c.wait()
	return start == c.Now() //ccnic:time-ok equality means the charge was zero // want "captured before a yielding call"
}
