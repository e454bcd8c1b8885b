package substrate

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// The receive queue is held to the plain lists it replaced, one per way it
// is keyed: the simulator's and DMCS's arrival-order inbox (a slice that
// appends and deletes), the fault injector's queue (a slice scanned for the
// lowest order among released messages, ties by position) and the
// wall-clock machine's inbox (a slice kept sorted by arrival time, of which
// the arrived prefix is visible). A random script of pushes, holds, clock
// steps, pops, tagged pops and peeks must give the same answers from both.

// injectorKey is the fault injector's key: an order that a reordering bumps
// by an even amount, which may equal a later message's, then the arrival at
// the injector.
type injectorKey struct{ order, ord uint64 }

func (k injectorKey) Before(o injectorKey) bool {
	return k.order < o.order || k.order == o.order && k.ord < o.ord
}

// arrivalKey is the wall-clock inbox's key: the arrival time.
type arrivalKey Time

func (k arrivalKey) Before(o arrivalKey) bool { return k < o }

// script draws the operations of one property run.
type script struct {
	rng  *rand.Rand
	msgs []Msg
	now  Time
}

func newScript(seed int64) *script {
	return &script{rng: rand.New(rand.NewSource(seed)), msgs: make([]Msg, 0, 1<<12)}
}

// msg returns a fresh message of a random tag among three.
func (s *script) msg() *Msg {
	s.msgs = append(s.msgs, Msg{Tag: s.rng.Intn(3), Kind: len(s.msgs)})
	return &s.msgs[len(s.msgs)-1]
}

func (s *script) spec() PollSpec {
	return PollSpec{Tag: s.rng.Intn(3), AnyTag: s.rng.Intn(4) == 0}
}

// take is the receive a poll under ps makes.
func take[K Key[K]](q *Queue[K], ps PollSpec) *Msg {
	if ps.AnyTag {
		return q.Pop()
	}
	return q.PopTag(ps.Tag)
}

func firstMatch(ms []*Msg, ps PollSpec) int {
	return slices.IndexFunc(ms, ps.Matches)
}

func TestQueueMatchesReference(t *testing.T) {
	// Runs in which a push grew the ring while its head was not at slot 0.
	wrapped := 0
	wrap := func(head int32, n, c int) {
		if head != 0 && n == c {
			wrapped++
		}
	}
	t.Run("arrival", func(t *testing.T) {
		f := func(ops [200]uint8, seed int64) bool {
			s := newScript(seed)
			var q Queue[Arrival]
			var ref []*Msg
			for _, op := range ops {
				switch op % 4 {
				case 0, 1:
					m := s.msg()
					wrap(q.ready.head, q.Len(), len(q.ready.buf))
					q.Push(Arrival{}, m)
					ref = append(ref, m)
				case 2:
					ps := s.spec()
					var want *Msg
					if i := firstMatch(ref, ps); i >= 0 {
						want = ref[i]
						ref = slices.Delete(ref, i, i+1)
					}
					if take(&q, ps) != want {
						return false
					}
				case 3:
					ps := s.spec()
					i := firstMatch(ref, ps)
					if m := q.Peek(ps); i < 0 && m != nil || i >= 0 && m != ref[i] {
						return false
					}
				}
				if q.Len() != len(ref) || !q.wellFormed() {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatal(err)
		}
	})

	// The injector pushes what it releases at once and holds a delayed
	// message until now+1+delay; the old queue kept both in one slice.
	t.Run("injector", func(t *testing.T) {
		type held struct {
			m       *Msg
			release Time
			order   uint64
		}
		f := func(ops [200]uint8, seed int64) bool {
			s := newScript(seed)
			var q Queue[injectorKey]
			var ref []held
			var nextOrd uint64
			pick := func(ps PollSpec) int { // lowest order among released, ties by position
				best := -1
				for i, h := range ref {
					if h.release <= s.now && ps.Matches(h.m) && (best < 0 || h.order < ref[best].order) {
						best = i
					}
				}
				return best
			}
			for _, op := range ops {
				q.Release(s.now)
				switch op % 6 {
				case 0, 1:
					m := s.msg()
					var release Time
					if s.rng.Intn(3) == 0 {
						release = s.now + 1 + Time(s.rng.Intn(4)) // equal releases are common
					}
					var bump uint64
					if s.rng.Intn(3) == 0 {
						bump = uint64(1+s.rng.Intn(3)) * 2 // lands on a later message's order
					}
					k := injectorKey{order: nextOrd + bump, ord: nextOrd}
					ref = append(ref, held{m, release, k.order})
					nextOrd += 2
					if release == 0 {
						wrap(q.ready.head, q.Len(), len(q.ready.buf))
						q.Push(k, m)
					} else {
						q.Hold(release, k, m)
					}
				case 2:
					s.now += Time(s.rng.Intn(3))
				case 3:
					ps := s.spec()
					var want *Msg
					if i := pick(ps); i >= 0 {
						want = ref[i].m
						ref = slices.Delete(ref, i, i+1)
					}
					if take(&q, ps) != want {
						return false
					}
				case 4, 5:
					// What the injector's polled advance and wait read: is a
					// match deliverable, and when is the next release.
					ps := s.spec()
					wake, n := Never, 0
					for _, h := range ref {
						if h.release <= s.now {
							n++
						} else if ps.Matches(h.m) {
							wake = min(wake, h.release)
						}
					}
					if (q.Peek(ps) != nil) != (pick(ps) >= 0) || q.NextRelease(ps) != wake || q.Len() != n {
						return false
					}
				}
				if !q.wellFormed() {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatal(err)
		}
	})

	// The wall-clock inbox holds every message until its arrival time. A
	// message fed late, stamped before one already visible, goes ahead of it.
	t.Run("wall-clock", func(t *testing.T) {
		f := func(ops [200]uint8, seed int64) bool {
			s := newScript(seed)
			var q Queue[arrivalKey]
			var ref []*Msg // by arrival time, ties in feed order
			visible := func() int { return sort.Search(len(ref), func(i int) bool { return ref[i].ArrivedAt > s.now }) }
			for _, op := range ops {
				q.Release(s.now)
				switch op % 6 {
				case 0, 1:
					m := s.msg()
					m.ArrivedAt = max(0, s.now+Time(s.rng.Intn(6))-2) // up to two behind the clock
					i := len(ref)
					for i > 0 && ref[i-1].ArrivedAt > m.ArrivedAt {
						i--
					}
					ref = slices.Insert(ref, i, m)
					q.Hold(m.ArrivedAt, arrivalKey(m.ArrivedAt), m)
				case 2:
					s.now += Time(s.rng.Intn(3))
				case 3:
					ps := s.spec()
					var want *Msg
					if i := firstMatch(ref[:visible()], ps); i >= 0 {
						want = ref[i]
						ref = slices.Delete(ref, i, i+1)
					}
					if take(&q, ps) != want {
						return false
					}
				case 4, 5:
					// The polled advance's first match by arrival, visible or
					// not, and the wait's next arrival.
					ps := s.spec()
					first := q.NextRelease(ps)
					if m := q.Peek(ps); m != nil {
						first = m.ArrivedAt
					}
					want := Never
					if i := firstMatch(ref, ps); i >= 0 {
						want = ref[i].ArrivedAt
					}
					next := Never
					if v := visible(); v < len(ref) {
						next = ref[v].ArrivedAt
					}
					if first != want || q.NextRelease(PollSpec{AnyTag: true}) != next || q.Len() != visible() {
						return false
					}
				}
				if !q.wellFormed() {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatal(err)
		}
	})
	if wrapped == 0 {
		t.Error("no push grew a ring from a wrapped state")
	}
}

// wellFormed checks the invariants the ring's index arithmetic relies on.
func (q *Queue[K]) wellFormed() bool {
	c := len(q.ready.buf)
	return c&(c-1) == 0 && q.Len() <= c && (c == 0 || int(q.ready.head) < c)
}

// TestQueueFIFO: Push and Pop are FIFO across many wrap-arounds and growth.
func TestQueueFIFO(t *testing.T) {
	var q Queue[Arrival]
	msgs := make([]Msg, 1000)
	in, out := 0, 0
	rng := rand.New(rand.NewSource(3))
	for out < len(msgs) {
		if in < len(msgs) && (rng.Intn(2) == 0 || q.Len() == 0) {
			msgs[in].Kind = in
			q.Push(Arrival{}, &msgs[in])
			in++
		} else {
			if m := q.Pop(); m.Kind != out {
				t.Fatalf("popped %d, want %d", m.Kind, out)
			}
			out++
		}
	}
	if q.Len() != 0 || q.Pop() != nil {
		t.Fatalf("len = %d after draining", q.Len())
	}
}

// TestQueuePopTagKeepsOrder: taking the oldest message of a tag from any
// position keeps the rest in order, across wrapped states, whichever side of
// the ring the removal shifts.
func TestQueuePopTagKeepsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var q Queue[Arrival]
	var ref []*Msg
	msgs := make([]Msg, 4096)
	next := 0
	// Pre-rotate so head is mid-buffer and removals cross the wrap point.
	for i := 0; i < 24; i++ {
		msgs[next].Tag = next
		q.Push(Arrival{}, &msgs[next])
		next++
	}
	for i := 0; i < 20; i++ {
		q.Pop()
	}
	for i := 0; i < 4; i++ {
		ref = append(ref, q.ready.at(i).m)
	}
	for step := 0; step < 2000; step++ {
		switch {
		case q.Len() == 0 || (next < len(msgs) && rng.Intn(3) > 0):
			msgs[next].Tag = next // every tag unique: PopTag removes one position
			q.Push(Arrival{}, &msgs[next])
			ref = append(ref, &msgs[next])
			next++
		default:
			i := rng.Intn(q.Len())
			want := ref[i]
			ref = slices.Delete(ref, i, i+1)
			if got := q.PopTag(want.Tag); got != want {
				t.Fatalf("step %d: PopTag took tag %d, want tag %d", step, got.Tag, want.Tag)
			}
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: len %d vs ref %d", step, q.Len(), len(ref))
		}
		for i := range ref {
			if q.ready.at(i).m != ref[i] {
				t.Fatalf("step %d: slot %d holds tag %d, want tag %d", step, i, q.ready.at(i).m.Tag, ref[i].Tag)
			}
		}
	}
}

// TestQueueReusesBacking: draining and refilling within capacity, held
// messages included, allocates nothing, and a queue allocates nothing until
// a message arrives.
func TestQueueReusesBacking(t *testing.T) {
	var q Queue[arrivalKey]
	if q.ready.buf != nil || q.held != nil {
		t.Fatal("a new queue has storage")
	}
	msgs := make([]Msg, 16)
	cycle := func() {
		for i := range msgs {
			q.Hold(Time(i), arrivalKey(i), &msgs[i])
		}
		q.Release(Time(len(msgs)))
		for q.Pop() != nil {
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("drain/refill allocates %v, want 0", n)
	}
}
