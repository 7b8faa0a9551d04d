// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel schedules cooperative processes (coroutines, or bodiless step
// functions) so that exactly one process runs at a time, in strict
// virtual-time order. Model code therefore needs no locks, and every run with
// the same inputs produces identical results: there is no wall-clock or
// scheduler nondeterminism. Partitioned models with several kernels advancing
// in parallel are the job of the sim/shard subpackage.
//
// Virtual time is measured in picoseconds so that sub-nanosecond costs (for
// example per-byte link serialization) accumulate without rounding error.
package sim

import "fmt"

// Time is a virtual time instant or duration in picoseconds.
type Time int64

// Convenient duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanoseconds returns t as a floating point number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds returns t as a floating point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds returns t as a floating point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// FromNanos converts a floating point number of nanoseconds to a Time.
func FromNanos(ns float64) Time { return Time(ns * float64(Nanosecond)) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.2fns", t.Nanoseconds())
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", t.Microseconds())
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.4fs", t.Seconds())
	}
}
