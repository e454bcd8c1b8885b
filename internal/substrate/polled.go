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

// The polled-advance contract. Endpoint.AdvancePolled(d, ps) means
// "compute for d, interrupted every Interval by a poll, and come back at the
// first poll that has something to do". An endpoint that cannot skip a poll
// declines: it returns (0, 0) having done nothing, and the caller steps
// through its own Advance (StepPolled), so every slice and poll crosses the
// whole stack above the endpoint that declined.
//
// With K = ceil(d/Interval)-1 polls, poll j begins at
// b_j = t0 + j*Interval + (j-1)*Cost and checks the inbox at c_j = b_j+Cost.
// An advance that does not decline obeys:
//
//  1. Returning (done, polls) leaves the clock and the Account (CatCompute
//     += done, CatPollThread += polls*Cost) exactly as polls iterations of
//     StepPolled would: done = polls*Interval, or all of d with polls = K.
//     Every recorded span follows from the pair: trace.Endpoint replays the
//     elided polls into the internal/trace stream from what the call
//     returns.
//  2. Returning early, after any poll, is always legal — the caller then
//     performs the real poll, as it would after a step. Returning late is
//     never legal: the call must come back no later than the first c_j at
//     which a message matching ps is queued (queued at entry, or arrived at
//     or before c_j) or c_j >= ps.WakeBy.
//
// A decorator that embeds Endpoint and changes Advance or a receive must
// define AdvancePolled itself, declining or narrowing the call; one that
// changes neither lets the embedded method through.

// Elides reports whether a polled advance of d entered at now has polls to
// skip: more than one slice, and no WakeBy already due. Otherwise the
// endpoint declines.
func (ps PollSpec) Elides(d, now Time) bool {
	return ps.Interval > 0 && d > ps.Interval && ps.WakeBy > now
}

// Matches reports whether a poll under ps would find m: it carries Tag, or
// AnyTag is set.
func (ps PollSpec) Matches(m *Msg) bool { return ps.AnyTag || m.Tag == ps.Tag }

// PollGrid is the arithmetic of the contract above for one advance, shared
// by every endpoint that elides: entered at T0 with D of compute, its poll j
// (1..Last, Last = K) checks the inbox at c_j = T0 + j*Period, and it ends at
// End = T0 + D + K*Cost.
type PollGrid struct {
	Spec   PollSpec
	T0, D  Time
	Period Time // Spec.Interval + Spec.Cost
	Last   int
	End    Time
}

// NewPollGrid lays out an advance of d entered at t0; ps must Elide it.
func NewPollGrid(t0, d Time, ps PollSpec) PollGrid {
	last := int((d - 1) / ps.Interval)
	return PollGrid{Spec: ps, T0: t0, D: d, Period: ps.Interval + ps.Cost, Last: last, End: t0 + d + Time(last)*ps.Cost}
}

// AtOrAfter returns the first c_j >= t, or End when no poll is that late.
func (g *PollGrid) AtOrAfter(t Time) Time {
	if t >= g.End {
		return g.End
	}
	j := max(1, int((t-g.T0+g.Period-1)/g.Period))
	if j > g.Last {
		return g.End
	}
	return g.T0 + Time(j)*g.Period
}

// Due returns when the advance must come back (case 2 of the contract): the
// first c_j at or after the earlier of Spec.WakeBy and arrival — the arrival
// time of the earliest queued message that matches, Never for none — or End.
func (g *PollGrid) Due(arrival Time) Time { return g.AtOrAfter(min(g.Spec.WakeBy, arrival)) }

// Settle returns what an advance that has run to t completed (case 1 of the
// contract): every slice and poll behind t. At a poll boundary that is
// (j*Interval, j); at or past End it is (D, Last). Only an advance cut short
// off the grid (a processor torn down) sees anything else, and is credited
// what it finished.
func (g *PollGrid) Settle(t Time) (done Time, polls int) {
	if t >= g.End {
		return g.D, g.Last
	}
	polls = int((t - g.T0) / g.Period)
	done = Time(polls) * g.Spec.Interval
	if t-g.T0-Time(polls)*g.Period >= g.Spec.Interval {
		done += g.Spec.Interval // between a slice's end and its poll's
	}
	return done, polls
}

// StepPolled is the literal polling thread: one slice of computation and,
// if compute remains, one poll wake-up. It is the reference every eliding
// AdvancePolled is exact against, and what the caller runs on the top of
// its stack when the call declines. The poll's Advance is made even at zero
// Cost: a tracing decorator records the wake-up from it.
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
