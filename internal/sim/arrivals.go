package sim

import "slices"

// arrivals is the sorted arrival times of the deliveries to one processor
// that sit in its shard's heap — Proc.skipTo's run-ahead bound. Deliveries
// join it where they enter the heap (shard.post, the window exchange) and
// leave it as they fire (shard.deliver); the heap fires a processor's
// deliveries in time order, so the one leaving is always the first. The
// slice keeps its backing array, so the steady state allocates nothing.
//
// first mirrors t[0] so that skipTo, inlined into every Advance, reads the
// bound in one load. Spawn sets it to maxTime; a zero first would only
// forbid run-ahead.
type arrivals struct {
	t     []Time
	first Time // t[0], or maxTime when t is empty
}

// push queues an arrival at time at. Most pushes find the queue empty or
// land last (three in four find it empty on wide_fine), so they append.
func (a *arrivals) push(at Time) {
	if n := len(a.t); n == 0 || at >= a.t[n-1] {
		a.t = append(a.t, at)
	} else {
		i, _ := slices.BinarySearch(a.t, at)
		a.t = slices.Insert(a.t, i, at)
	}
	a.first = a.t[0]
}

// pop removes the earliest queued arrival.
func (a *arrivals) pop() {
	a.t = a.t[:copy(a.t, a.t[1:])]
	a.first = maxTime
	if len(a.t) > 0 {
		a.first = a.t[0]
	}
}
