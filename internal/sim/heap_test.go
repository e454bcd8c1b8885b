package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"prema/internal/substrate"
)

// wakers returns n processors with no wake, for heap tests that need
// distinct wake keys.
func wakers(n int) []*Proc {
	ps := make([]*Proc, n)
	for i := range ps {
		ps[i] = &Proc{id: i, hidx: -1}
	}
	return ps
}

// tryPop pops the earliest wake; ok is false if the heap is empty.
func tryPop(h *eventHeap) (top heapEntry, ok bool) {
	if len(h.e) == 0 {
		return heapEntry{}, false
	}
	top = h.e[0]
	h.Remove(0)
	return top, true
}

// TestHeapOrderingProperty: popping all wakes from a heap built from any
// sequence of wake times yields a sequence sorted by (time, ord).
func TestHeapOrderingProperty(t *testing.T) {
	f := func(times []int16) bool {
		var h eventHeap
		for i, p := range wakers(len(times)) {
			tm := Time(times[i])
			if tm < 0 {
				tm = -tm
			}
			h.Push(tm, p)
		}
		var prev heapEntry
		var any bool
		for {
			e, ok := tryPop(&h)
			if !ok {
				break
			}
			if any && e.before(prev) || e.p.hidx != -1 {
				return false
			}
			prev, any = e, true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapInterleavedPushPop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h eventHeap
	idle := wakers(256) // processors without a wake
	var popped []Time
	var lastPopped Time = -1
	for i := 0; i < 5000; i++ {
		if len(h.e) == 0 || len(idle) > 0 && rng.Intn(3) != 0 {
			// Never schedule in the past relative to the last pop: mimics the
			// engine's invariant.
			at := lastPopped + Time(rng.Intn(100))
			h.Push(at, idle[len(idle)-1])
			idle = idle[:len(idle)-1]
		} else {
			e, _ := tryPop(&h)
			if e.at < lastPopped {
				t.Fatalf("pop went backwards: %v after %v", e.at, lastPopped)
			}
			lastPopped = e.at
			popped = append(popped, e.at)
			idle = append(idle, e.p)
		}
	}
	for len(h.e) > 0 {
		e, _ := tryPop(&h)
		popped = append(popped, e.at)
	}
	if !sort.SliceIsSorted(popped, func(i, j int) bool { return popped[i] < popped[j] }) {
		t.Fatal("popped sequence not sorted")
	}
}

// loopRig drives one shard's event loop over processors that never run a
// body: each switch into one records the event that caused it, so a test
// reads the (at, ord) order in which the loop fires deliveries and wakes.
// Sinks take deliveries (each is parked in a wait, so every delivery
// switches into it) and never have a wake; wakers take wakes; remote
// processors live on a second shard, whose outbox the exchange moves onto
// the driven shard's ring.
type loopRig struct {
	e                     *Engine
	s                     *shard // shard 0, the one driven
	sinks, wakers, remote []*Proc
	seq                   map[int]uint64 // per-source send counter
	ords                  map[*Msg]uint64
	fired                 []firing
}

type firing struct {
	at  Time
	ord uint64
}

func newLoopRig(sinks, wakers, remote int) *loopRig {
	r := &loopRig{seq: map[int]uint64{}, ords: map[*Msg]uint64{}}
	local := sinks + wakers
	r.e = NewEngine(Config{Shards: 2, Partition: func(id, _ int) int {
		if id < local {
			return 0
		}
		return 1
	}})
	r.s = r.e.shards[0]
	for i := 0; i < local+remote; i++ {
		p := r.e.Spawn("p", func(*Proc) {})
		p.next = func() (struct{}, bool) {
			ord := wakeOrd(p.id)
			if p.inbox.Len() > 0 {
				ord = r.ords[p.inbox.Pop()]
			}
			r.fired = append(r.fired, firing{p.now, ord})
			return struct{}{}, true
		}
		switch {
		case i < sinks:
			p.waitingMsg = true
			r.sinks = append(r.sinks, p)
		case i < local:
			r.wakers = append(r.wakers, p)
		default:
			r.remote = append(r.remote, p)
		}
	}
	for _, s := range r.e.shards { // drop the start wakes
		for len(s.heap.e) > 0 {
			s.heap.Remove(0)
		}
	}
	return r
}

// post sends a delivery from src to dst, arriving at at, through shard s,
// and returns its ordering key.
func (r *loopRig) post(s *shard, src int, dst *Proc, at Time) uint64 {
	r.seq[src]++
	m := &Msg{Src: src, Dst: dst.id}
	r.ords[m] = deliverOrd(src, r.seq[src])
	s.post(m, at, r.seq[src])
	return r.ords[m]
}

// TestHeapBandOrdering: at equal timestamps the loop fires every delivery
// before every wake, deliveries by (src, sendSeq) and wakes by processor ID,
// whichever queue holds them and in whatever order they were pushed.
func TestHeapBandOrdering(t *testing.T) {
	r := newLoopRig(1, 2, 0)
	defer r.e.teardown()
	sink, w0, w1 := r.s.eng.procs[0], r.wakers[0], r.wakers[1]
	r.seq[0] = 6
	var want []firing
	for _, src := range []int{4096, 0, 0} {
		r.post(r.s, src, sink, 10)
	}
	r.s.atWake(10, w1)
	r.s.atWake(10, w0)
	r.post(r.s, 0, sink, 10)
	for _, ord := range []uint64{deliverOrd(0, 7), deliverOrd(0, 8), deliverOrd(0, 9), deliverOrd(4096, 1), wakeOrd(w0.id), wakeOrd(w1.id)} {
		want = append(want, firing{10, ord})
	}
	r.s.runWindow(maxTime)
	if !slices.Equal(r.fired, want) {
		t.Fatalf("fired %v, want %v", r.fired, want)
	}
}

// TestTwoQueueLoopMatchesReference: a random script of deliveries (out of
// order and at equal times, from many sources, local and across the shard
// exchange), wake pushes, removes and Earlier moves, interleaved with
// windows of the loop, fires events in the order of one reference list
// sorted by (at, ord) holding the same keys.
func TestTwoQueueLoopMatchesReference(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := newLoopRig(4, 6, 3)
		defer r.e.teardown()
		s := r.s
		var ref, remote []firing // pending on shard 0; waiting in shard 1's outbox
		before := func(a, b firing) int {
			if a.at != b.at {
				return int(a.at - b.at)
			}
			if a.ord < b.ord {
				return -1
			}
			return 1
		}
		insert := func(x firing) {
			i, _ := slices.BinarySearchFunc(ref, x, before)
			ref = slices.Insert(ref, i, x)
		}
		remove := func(x firing) { ref = slices.DeleteFunc(ref, func(y firing) bool { return y == x }) }
		window := func(end Time) bool {
			r.fired = r.fired[:0]
			s.runWindow(end)
			n := 0
			for n < len(ref) && ref[n].at < end {
				n++
			}
			ok := slices.Equal(r.fired, ref[:n])
			ref = ref[n:]
			return ok
		}
		for _, op := range ops {
			at := s.now + Time(op>>4%6)
			sink := r.sinks[rng.Intn(len(r.sinks))]
			switch op % 6 {
			case 0, 1:
				insert(firing{at, r.post(s, rng.Intn(40), sink, at)})
			case 2:
				src := r.remote[rng.Intn(len(r.remote))]
				remote = append(remote, firing{at, r.post(src.sh, src.id, sink, at)})
			case 3:
				r.e.exchange()
				for _, x := range remote {
					insert(x)
				}
				remote = remote[:0]
			case 4:
				w := r.wakers[rng.Intn(len(r.wakers))]
				if w.hidx < 0 {
					s.atWake(at, w)
					insert(firing{at, wakeOrd(w.id)})
					break
				}
				cur := s.heap.e[w.hidx]
				remove(firing{cur.at, cur.ord})
				if rng.Intn(2) == 0 || cur.at == s.now {
					s.heap.Remove(int(w.hidx))
					break
				}
				// Earlier, as pollArrival moves a polled advance's wake.
				at = s.now + Time(rng.Int63n(int64(cur.at-s.now)))
				s.heap.Earlier(int(w.hidx), at)
				insert(firing{at, cur.ord})
			case 5:
				// A cross-shard delivery never lands inside a window.
				end := s.now + Time(rng.Intn(8)) + 1
				for _, x := range remote {
					end = min(end, x.at)
				}
				if !window(end) {
					return false
				}
			}
			for _, p := range r.wakers {
				if p.hidx >= 0 && s.heap.e[p.hidx].p != p {
					return false
				}
			}
		}
		r.e.exchange()
		for _, x := range remote {
			insert(x)
		}
		return window(maxTime) && len(ref) == 0 && s.ring.n == 0 && len(s.heap.e) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// binaryHeap is the pre-optimization 2-ary event heap, kept here as the
// reference implementation: because (at, ord) is a total order, any correct
// min-heap must pop the exact same sequence, so the 4-ary production heap is
// property-tested against it below.
type binaryHeap struct {
	e []heapEntry
}

func (h *binaryHeap) Push(at Time, ord uint64) {
	h.e = append(h.e, heapEntry{at: at, ord: ord})
	i := len(h.e) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.e[i].before(h.e[parent]) {
			break
		}
		h.e[i], h.e[parent] = h.e[parent], h.e[i]
		i = parent
	}
}
func (h *binaryHeap) Pop() (heapEntry, bool) {
	n := len(h.e)
	if n == 0 {
		return heapEntry{}, false
	}
	top := h.e[0]
	h.e[0] = h.e[n-1]
	h.e = h.e[:n-1]
	i := 0
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < len(h.e) && h.e[left].before(h.e[smallest]) {
			smallest = left
		}
		if right < len(h.e) && h.e[right].before(h.e[smallest]) {
			smallest = right
		}
		if smallest == i {
			return top, true
		}
		h.e[i], h.e[smallest] = h.e[smallest], h.e[i]
		i = smallest
	}
}

// TestQuaternaryMatchesBinaryHeap: on random inputs — with deliberately many
// duplicate timestamps, and interleaved pushes and pops — the 4-ary heap
// pops wakes in exactly the (at, ord) order of the reference binary heap.
func TestQuaternaryMatchesBinaryHeap(t *testing.T) {
	f := func(times []int16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var quad eventHeap
		var bin binaryHeap
		idle := wakers(len(times))
		push := func(raw int16) {
			tm := Time(raw % 64) // force heavy timestamp collisions
			if tm < 0 {
				tm = -tm
			}
			p := idle[len(idle)-1]
			idle = idle[:len(idle)-1]
			quad.Push(tm, p)
			bin.Push(tm, wakeOrd(p.id))
		}
		checkPop := func() bool {
			q, qok := tryPop(&quad)
			b, bok := bin.Pop()
			if qok {
				idle = append(idle, q.p)
			}
			if qok != bok {
				return false
			}
			return q.at == b.at && q.ord == b.ord
		}
		for _, raw := range times {
			push(raw)
			if rng.Intn(3) == 0 {
				if !checkPop() {
					return false
				}
			}
		}
		for len(quad.e) > 0 || len(bin.e) > 0 {
			if !checkPop() {
				return false
			}
		}
		return checkPop() // both empty
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// checkSlots reports whether every entry's processor records its own slot,
// every entry sorts after its parent, and every processor not in the heap
// records none.
func checkSlots(h *eventHeap, ps []*Proc) bool {
	for i, x := range h.e {
		if int(x.p.hidx) != i || i > 0 && x.before(h.e[(i-1)/heapArity]) {
			return false
		}
	}
	for _, p := range ps {
		if p.hidx >= 0 && (int(p.hidx) >= len(h.e) || h.e[p.hidx].p != p) {
			return false
		}
	}
	return true
}

// TestHeapOpsMatchSortedReference: any interleaving of Push, Pop, and
// Remove and Earlier at a random slot pops in the order of a sorted
// reference list holding the same keys, and after every operation each
// entry's processor records the slot the entry occupies — the index Remove
// and Earlier trust when a delivery takes a wait timeout out of the heap or
// moves a polled advance's wake.
func TestHeapOpsMatchSortedReference(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h eventHeap
		var ref []heapEntry // the same keys, kept sorted
		ps := wakers(32)
		insert := func(x heapEntry) {
			i, _ := slices.BinarySearchFunc(ref, x, func(a, b heapEntry) int {
				if a.before(b) {
					return -1
				}
				return 1
			})
			ref = slices.Insert(ref, i, x)
		}
		for _, op := range ops {
			switch op % 4 {
			case 0:
				p := ps[rng.Intn(len(ps))]
				if p.hidx >= 0 {
					continue
				}
				x := heapEntry{at: Time(op >> 2 % 64), ord: wakeOrd(p.id), p: p} // heavy timestamp collisions
				h.Push(x.at, p)
				insert(x)
			case 1:
				if len(h.e) == 0 {
					continue
				}
				if got, _ := tryPop(&h); got != ref[0] || got.p.hidx != -1 {
					return false
				}
				ref = ref[1:]
			case 2:
				if len(h.e) == 0 {
					continue
				}
				x := h.e[rng.Intn(len(h.e))]
				h.Remove(int(x.p.hidx))
				ref = slices.DeleteFunc(ref, func(y heapEntry) bool { return y == x })
			case 3:
				if len(h.e) == 0 {
					continue
				}
				x := h.e[rng.Intn(len(h.e))]
				if x.at == 0 {
					continue
				}
				y := heapEntry{at: Time(rng.Int63n(int64(x.at))), ord: x.ord, p: x.p}
				h.Earlier(int(x.p.hidx), y.at)
				ref = slices.DeleteFunc(ref, func(z heapEntry) bool { return z == x })
				insert(y)
			}
			if len(h.e) != len(ref) || !checkSlots(&h, ps) {
				return false
			}
		}
		for len(ref) > 0 {
			if got, _ := tryPop(&h); got != ref[0] || !checkSlots(&h, ps) {
				return false
			}
			ref = ref[1:]
		}
		return len(h.e) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestHeapPeek: each queue's next, and the shard's, is the earliest time it
// holds, or maxTime when it holds nothing.
func TestHeapPeek(t *testing.T) {
	var s shard
	if s.heap.next() != maxTime || s.ring.next() != maxTime || s.next() != maxTime {
		t.Fatal("empty queues should have no next time")
	}
	ps := wakers(2)
	s.heap.Push(5, ps[0])
	s.heap.Push(3, ps[1])
	s.ring.push(delivery{at: 4})
	if got := s.heap.next(); got != 3 {
		t.Fatalf("heap next = %v", got)
	}
	if got := s.next(); got != 3 {
		t.Fatalf("shard next = %v", got)
	}
	s.heap.Remove(int(ps[1].hidx))
	if got := s.next(); got != 4 || len(s.heap.e) != 1 {
		t.Fatalf("shard next = %v with %d wakes", got, len(s.heap.e))
	}
}

func TestNetworkFIFOProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		e := NewEngine(Config{})
		src := e.Spawn("src", func(*Proc) {})
		e.Spawn("dst", func(*Proc) {})
		net := substrate.DefaultNetwork()
		last := Time(-1)
		for _, s := range sizes {
			at := src.arrival(1, int(s))
			if at <= last || at < src.now+net.Latency+Time(s)*net.PerByte {
				return false
			}
			last = at
			src.now += Time(s) // sender moves forward a bit
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFIFOFirstArrivalAtZero: on a zero-latency network two empty messages
// sent at time 0 arrive at 0 and 1. The sender's "nothing sent yet" state
// must not read as an arrival at 0, nor a real arrival at 0 as nothing.
func TestFIFOFirstArrivalAtZero(t *testing.T) {
	e := NewEngine(Config{Network: &substrate.Network{}})
	var got []Time
	e.Spawn("rx", func(p *Proc) {
		for len(got) < 3 {
			p.WaitMsg(CatIdle)
			got = append(got, p.TryRecv(CatMessaging).ArrivedAt)
		}
	})
	e.Spawn("tx", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Send(&Msg{Dst: 0}, CatMessaging)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []Time{0, 1, 2}) {
		t.Errorf("arrivals %v, want [0 1 2]", got)
	}
}

func TestTimeHelpers(t *testing.T) {
	if (2 * Second).Seconds() != 2.0 {
		t.Fatal("Seconds")
	}
	if Scale(10*Second, 0.5) != 5*Second {
		t.Fatal("Scale")
	}
	if (1234 * Millisecond).String() != "1.234s" {
		t.Fatalf("String = %s", (1234 * Millisecond).String())
	}
	if CatCompute.String() != "Computation" || Category(99).String() != "Unknown" {
		t.Fatal("category names")
	}
}
