package sim

import "slices"

// arrivals is the sorted arrival times of the deliveries to one processor
// that sit in its shard's ring — Proc.skipTo's run-ahead bound. Deliveries
// join it where they enter the ring (shard.enqueue) and leave it as they
// fire (shard.deliver); the ring fires a processor's deliveries in time
// order, so the one leaving is always the first. The queue is t[h:]: a pop
// moves the head offset instead of copying the rest, and a push that finds
// the slice full slides the queue back to the front first, so the backing
// array is kept and the steady state allocates nothing.
//
// first mirrors t[h] so that skipTo, inlined into every Advance, reads the
// bound in one load. Spawn sets it to maxTime; a zero first would only
// forbid run-ahead.
type arrivals struct {
	t     []Time
	h     int  // index of the earliest queued arrival
	first Time // t[h], or maxTime when the queue is empty
}

// push queues an arrival at time at. Most pushes find the queue empty or
// land last (three in four find it empty on wide_fine), so they append.
func (a *arrivals) push(at Time) {
	if a.h > 0 && len(a.t) == cap(a.t) {
		a.t = a.t[:copy(a.t, a.t[a.h:])]
		a.h = 0
	}
	if n := len(a.t); n == a.h || at >= a.t[n-1] {
		a.t = append(a.t, at)
	} else {
		i, _ := slices.BinarySearch(a.t[a.h:], at)
		a.t = slices.Insert(a.t, a.h+i, at)
	}
	a.first = a.t[a.h]
}

// pop removes the earliest queued arrival.
func (a *arrivals) pop() {
	a.h++
	if a.h == len(a.t) {
		a.t, a.h, a.first = a.t[:0], 0, maxTime
		return
	}
	a.first = a.t[a.h]
}
