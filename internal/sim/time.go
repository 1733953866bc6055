// Package sim implements the discrete-event simulation engine at the heart
// of the reproduction: a virtual clock, a ladder event queue with stable
// FIFO ordering for simultaneous events, cancellable timers, and cursor
// entries that carry a whole sequence of calls (a transmission's
// carrier-sense fan) in one queue entry.
//
// This substitutes for ns-2's scheduler (see DESIGN.md §2). Protocol code
// never sees wall-clock time; everything is driven by Simulator callbacks.
package sim

import "fmt"

// Time is a virtual timestamp in nanoseconds since the start of the run.
// int64 nanoseconds give exact arithmetic (no float drift) and a range of
// ~292 years, vastly more than any run needs.
type Time int64

// Duration constants, mirroring the time package but for virtual time.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds converts a float64 second count to a Time, rounding to the
// nearest nanosecond.
func Seconds(s float64) Time {
	if s >= 0 {
		return Time(s*float64(Second) + 0.5)
	}
	return Time(s*float64(Second) - 0.5)
}

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis returns t expressed in milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String formats t with an adaptive unit for logs and traces.
func (t Time) String() string {
	switch {
	case t == 0:
		return "0s"
	case t%Second == 0:
		return fmt.Sprintf("%ds", t/Second)
	case t >= Millisecond || t <= -Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	case t >= Microsecond || t <= -Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Never is a sentinel meaning "no deadline".
const Never Time = 1<<63 - 1
