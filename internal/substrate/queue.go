package substrate

import (
	"math/bits"
	"unsafe"
)

// Queue is one endpoint's receive queue, kept by every backend and
// decorator that buffers messages. A message in it is deliverable or held
// until a release time. The deliverable ones are what a receive sees, by key
// and among equal keys in the order they became deliverable, and Queue
// states the receive contract of Endpoint once: Len counts them (InboxLen),
// Pop takes the oldest (TryRecv), and PopTag takes the oldest with a tag and
// keeps the rest in order (TryRecvTag). Release files the held messages that
// are due, by release time and among equal ones in Hold order.
//
// The zero value is empty and allocates nothing until a message arrives;
// held storage is made at the first Hold. With K = Arrival a deliverable
// message takes one pointer.
type Queue[K Key[K]] struct {
	ready ring[slot[K]]
	held  *ring[heldSlot[K]]
}

// Key orders a Queue's deliverable messages: k.Before(o) reports whether a
// message keyed k is taken ahead of one keyed o. A key of size zero orders
// nothing: its messages go last, and Before is never called.
type Key[K any] interface{ Before(o K) bool }

// Arrival keys a queue taken in the order its messages become deliverable.
type Arrival struct{}

// Before implements Key: no arrival overtakes another.
func (Arrival) Before(Arrival) bool { return false }

type slot[K Key[K]] struct {
	k K
	m *Msg
}

func (s slot[K]) before(o *slot[K]) bool { return s.k.Before(o.k) }

type heldSlot[K Key[K]] struct {
	release Time
	slot[K]
}

func (h heldSlot[K]) before(o *heldSlot[K]) bool { return h.release < o.release }

// Len returns the number of deliverable messages.
func (q *Queue[K]) Len() int { return int(q.ready.n) }

// Push files m, keyed k, as deliverable.
func (q *Queue[K]) Push(k K, m *Msg) {
	if unsafe.Sizeof(k) == 0 {
		q.ready.push(slot[K]{k, m})
	} else {
		q.ready.insert(slot[K]{k, m})
	}
}

// Pop removes and returns the oldest deliverable message, or nil.
func (q *Queue[K]) Pop() *Msg {
	if q.ready.n == 0 {
		return nil
	}
	return q.ready.pop().m
}

// PopTag removes and returns the oldest deliverable message with the given
// tag, or nil.
func (q *Queue[K]) PopTag(tag int) *Msg { return q.scan(tag, false, true) }

// Peek returns the oldest deliverable message that a poll under ps would
// find, or nil.
func (q *Queue[K]) Peek(ps PollSpec) *Msg { return q.scan(ps.Tag, ps.AnyTag, false) }

// scan returns the oldest deliverable message with the tag (any tag when
// anyTag), removing it when take is set.
func (q *Queue[K]) scan(tag int, anyTag, take bool) *Msg {
	for i := range q.Len() {
		if m := q.ready.at(i).m; anyTag || m.Tag == tag {
			if take {
				q.ready.removeAt(i)
			}
			return m
		}
	}
	return nil
}

// Held returns the number of held messages.
func (q *Queue[K]) Held() int {
	if q.held == nil {
		return 0
	}
	return int(q.held.n)
}

// Hold queues m, keyed k, to become deliverable at release.
func (q *Queue[K]) Hold(release Time, k K, m *Msg) {
	if q.held == nil {
		q.held = new(ring[heldSlot[K]])
	}
	q.held.insert(heldSlot[K]{release, slot[K]{k, m}})
}

// Release makes every held message whose release is not after now
// deliverable.
func (q *Queue[K]) Release(now Time) {
	for h := q.held; h != nil && h.n > 0 && h.at(0).release <= now; {
		x := h.pop()
		q.Push(x.k, x.m)
	}
}

// NextRelease returns the earliest release of a held message that a poll
// under ps would find, or Never.
func (q *Queue[K]) NextRelease(ps PollSpec) Time {
	for i := 0; q.held != nil && i < int(q.held.n); i++ {
		if h := q.held.at(i); ps.Matches(h.m) {
			return h.release
		}
	}
	return Never
}

// ring is a growable ring buffer of entries in order. An insert goes behind
// every entry it is not before, shifting later ones towards the tail, so
// entries that come in order append; the front is removed in O(1). The
// first backing array holds ringBytes, sixteen pointers, and each growth
// doubles it.
type ring[E interface{ before(*E) bool }] struct {
	buf  []E // length 0 or a power of two
	head int32
	n    int32
}

const ringBytes = 128

func (r *ring[E]) at(i int) *E { return &r.buf[(int(r.head)+i)&(len(r.buf)-1)] }

// push appends e behind every entry.
func (r *ring[E]) push(e E) {
	if int(r.n) == len(r.buf) {
		r.grow()
	}
	*r.at(int(r.n)) = e
	r.n++
}

func (r *ring[E]) insert(e E) {
	r.push(e)
	for i := int(r.n) - 1; i > 0 && e.before(r.at(i-1)); i-- {
		*r.at(i), *r.at(i - 1) = *r.at(i - 1), e
	}
}

func (r *ring[E]) grow() {
	c := 2 * len(r.buf)
	if c == 0 {
		var e E
		c = 1 << (bits.Len(uint(max(ringBytes/unsafe.Sizeof(e), 1))) - 1)
	}
	nb := make([]E, c)
	for i := range int(r.n) {
		nb[i] = *r.at(i)
	}
	r.buf, r.head = nb, 0
}

// pop removes and returns the front entry.
func (r *ring[E]) pop() E {
	var zero E
	e := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = int32((int(r.head) + 1) & (len(r.buf) - 1))
	r.n--
	return e
}

// removeAt removes and returns the i-th entry, shifting whichever side of
// the ring is shorter.
func (r *ring[E]) removeAt(i int) E {
	e, n := *r.at(i), int(r.n)
	if i <= n-1-i {
		for ; i > 0; i-- {
			*r.at(i) = *r.at(i - 1)
		}
		r.pop()
		return e
	}
	for ; i < n-1; i++ {
		*r.at(i) = *r.at(i + 1)
	}
	var zero E
	*r.at(n - 1) = zero
	r.n--
	return e
}
