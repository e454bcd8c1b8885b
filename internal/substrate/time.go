package substrate

import (
	"fmt"
	"time"
)

// Time is a point in (or duration of) substrate time, in nanoseconds.
//
// On the simulator backend this is virtual time, completely decoupled from
// the host clock: computation, message transmission, and synchronization
// advance it according to the configured cost model. On the real-time
// backend it is scaled monotonic wall-clock time measured from machine
// start.
type Time int64

// Common durations, mirroring time.Duration's constants.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders the time in seconds with millisecond resolution.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// Duration converts the time to a time.Duration (both are nanoseconds).
func (t Time) Duration() time.Duration { return time.Duration(t) }

// FromDuration converts a wall-clock duration to substrate time.
func FromDuration(d time.Duration) Time { return Time(d) }

// Scale multiplies the duration by a dimensionless factor, rounding toward
// zero. It is the canonical way to derive work-unit durations from abstract
// computational weights.
func Scale(t Time, f float64) Time { return Time(float64(t) * f) }
