package substrate

import "math"

// Never is a time no run reaches. It is PollSpec.WakeBy's "no deadline".
const Never = Time(math.MaxInt64)

// PollSpec describes the polling thread that interrupts a polled advance:
// it wakes after every Interval of computation, burns Cost, and checks the
// inbox for a message carrying Tag (any message when AnyTag).
type PollSpec struct {
	// Interval is the computation between two polls (> 0).
	Interval Time
	// Cost is the CPU time of one poll, charged to CatPollThread.
	Cost Time
	// Tag is the traffic class the caller's poll drains; AnyTag widens the
	// match to every message (dmcs reliable mode drains them all).
	Tag    int
	AnyTag bool
	// WakeBy bounds the quiet stretch from outside: the advance returns no
	// later than the first poll whose inbox check is at or after WakeBy,
	// whatever the inbox holds. Never disables the bound; the zero value —
	// any time not after now — returns after every poll.
	WakeBy Time
}

// PolledAdvancer is the optional endpoint method behind AdvancePolled:
// "compute for d, interrupted every Interval by a poll, and come back at
// the first poll that has something to do". Endpoint itself does not
// declare it, so a decorator that embeds Endpoint hides it and the stack
// above falls back to stepping.
//
// With K = ceil(d/Interval)-1 polls, poll j begins at
// b_j = t0 + j*Interval + (j-1)*Cost and checks the inbox at c_j = b_j+Cost.
//
//  1. Returning (done, polls) leaves the clock and the Account (CatCompute
//     += done, CatPollThread += polls*Cost) exactly as polls iterations of
//     StepPolled would: done = polls*Interval, or all of d with polls = K.
//     d <= Interval is Advance(d, CatCompute). Every recorded span follows
//     from the pair: trace.Endpoint replays the elided polls into the
//     internal/trace stream from what the call returns.
//  2. Returning early, after any poll, is always legal — the caller then
//     performs the real poll, as it would after a step. Returning late is
//     never legal: the call must come back no later than the first c_j at
//     which a message matching ps is queued (queued at entry, or arrived at
//     or before c_j) or c_j >= ps.WakeBy.
type PolledAdvancer interface {
	AdvancePolled(d Time, ps PollSpec) (done Time, polls int)
}

// AdvancePolled runs one quiet stretch of a polled computation on ep and
// returns how much of d was computed and how many polls woke. When compute
// remains (done < d) the caller owes the poll that ended the stretch; it
// loops until d is used up. Endpoints that cannot look ahead take one
// StepPolled slice per call.
func AdvancePolled(ep Endpoint, d Time, ps PollSpec) (done Time, polls int) {
	if pa, ok := ep.(PolledAdvancer); ok {
		return pa.AdvancePolled(d, ps)
	}
	return StepPolled(ep, d, ps)
}

// StepPolled is the literal polling thread: one slice of computation and,
// if compute remains, one poll wake-up. It is the reference PolledAdvancer
// implementations are exact against, and what decorators call on themselves
// when the endpoint beneath them cannot elide. The poll's Advance is made
// even at zero Cost: a tracing decorator records the wake-up from it.
func StepPolled(ep Endpoint, d Time, ps PollSpec) (done Time, polls int) {
	slice := ps.Interval
	if slice <= 0 || slice >= d {
		ep.Advance(d, CatCompute)
		return d, 0
	}
	ep.Advance(slice, CatCompute)
	ep.Advance(ps.Cost, CatPollThread)
	return slice, 1
}
