// Package timeclean shows the accepted simulated-time idioms: unit-constant
// scaling, zero comparisons, fresh and re-captured snapshots, and ordered
// deadline comparisons across yields.
package timeclean

// Time is simulated time in picoseconds.
type Time int64

// Picosecond is the base unit.
const Picosecond Time = 1

// Nanosecond is a thousand picoseconds.
const Nanosecond = 1000 * Picosecond

// Microsecond is a thousand nanoseconds.
const Microsecond = 1000 * Nanosecond

// Clock models the kernel clock.
type Clock struct{ now Time }

// Now returns the current simulated time.
func (c *Clock) Now() Time { return c.now }

// wait models a blocking primitive.
//
//ccnic:yields
func (c *Clock) wait() {}

// scale spells the duration from unit constants and compares against zero,
// both allowed.
func scale(c *Clock) bool {
	deadline := c.Now() + 5*Microsecond
	return deadline != 0
}

// freshCompare reads the clock only after the yield, so the equality is
// between two fresh values.
func freshCompare(c *Clock) bool {
	c.wait()
	start := c.Now()
	return start == c.Now()
}

// recapture refreshes the snapshot after the yield before comparing; the
// mutation self-test deletes the refresh and the analyzer must flag the
// comparison as stale.
func recapture(c *Clock) bool {
	start := c.Now()
	c.wait()
	start = c.Now()
	return start == c.Now()
}

// deadline holds an ordered comparison across the yield — that is the whole
// point of a deadline, and only equality goes stale.
func deadline(c *Clock) bool {
	end := c.Now() + 5*Microsecond
	c.wait()
	return c.Now() < end
}
