package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"prema/internal/substrate"
)

// tryPop pops the earliest entry; ok is false if the heap is empty.
func tryPop(h *eventHeap) (top heapEntry, ok bool) {
	if len(h.e) == 0 {
		return heapEntry{}, false
	}
	return h.Pop(), true
}

// TestHeapOrderingProperty: popping all entries from a heap built from any
// sequence of push times yields a sequence sorted by (time, ord).
func TestHeapOrderingProperty(t *testing.T) {
	f := func(times []int16) bool {
		var h eventHeap
		var ord uint64
		for _, raw := range times {
			ord++
			tm := Time(raw)
			if tm < 0 {
				tm = -tm
			}
			h.Push(tm, ord, &event{})
		}
		var prev heapEntry
		var any bool
		for {
			e, ok := tryPop(&h)
			if !ok {
				break
			}
			if any && e.before(prev) {
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
	var ord uint64
	var popped []Time
	var lastPopped Time = -1
	for i := 0; i < 5000; i++ {
		if rng.Intn(3) != 0 || len(h.e) == 0 {
			ord++
			// Never schedule in the past relative to the last pop: mimics the
			// engine's invariant.
			at := lastPopped + Time(rng.Intn(100))
			h.Push(at, ord, &event{})
		} else {
			e := h.Pop()
			if e.at < lastPopped {
				t.Fatalf("pop went backwards: %v after %v", e.at, lastPopped)
			}
			lastPopped = e.at
			popped = append(popped, e.at)
		}
	}
	for len(h.e) > 0 {
		e := h.Pop()
		popped = append(popped, e.at)
	}
	if !sort.SliceIsSorted(popped, func(i, j int) bool { return popped[i] < popped[j] }) {
		t.Fatal("popped sequence not sorted")
	}
}

// TestHeapBandOrdering: at equal timestamps every delivery key sorts before
// every local-band key, deliveries sort by (src, sendSeq), and the local
// band bit survives the largest allocation counters.
func TestHeapBandOrdering(t *testing.T) {
	var h eventHeap
	h.Push(10, deliverOrd(4096, 1), &event{})
	h.Push(10, ordLocalBand|1, &event{}) // local event, earliest counter
	h.Push(10, deliverOrd(0, 7), &event{})
	h.Push(10, deliverOrd(0, 2), &event{})
	want := []uint64{deliverOrd(0, 2), deliverOrd(0, 7), deliverOrd(4096, 1), ordLocalBand | 1}
	for i, w := range want {
		e, ok := tryPop(&h)
		if !ok || e.ord != w {
			t.Fatalf("pop %d: got ord %#x, want %#x", i, e.ord, w)
		}
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
// pops entries in exactly the (at, ord) order of the reference binary heap.
func TestQuaternaryMatchesBinaryHeap(t *testing.T) {
	f := func(times []int16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var quad eventHeap
		var bin binaryHeap
		var ord uint64
		push := func(raw int16) {
			ord++
			tm := Time(raw % 64) // force heavy timestamp collisions
			if tm < 0 {
				tm = -tm
			}
			quad.Push(tm, ord, &event{})
			bin.Push(tm, ord)
		}
		checkPop := func() bool {
			q, qok := tryPop(&quad)
			b, bok := bin.Pop()
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

// TestPushAllMatchesSequentialPushes: bulk-inserting any batch of entries
// pops in exactly the order N sequential pushes would have produced, for any
// prior heap contents and any batch size — including batches big enough to
// take the full-heapify path and batches into an empty heap. This is the
// property the barrier exchange relies on when it drains a window's
// cross-shard mailboxes with one PushAll per destination.
func TestPushAllMatchesSequentialPushes(t *testing.T) {
	f := func(pre, batch []int16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var bulk, seq eventHeap
		var ord uint64
		key := func(raw int16) Time {
			tm := Time(raw % 64) // force heavy timestamp collisions
			if tm < 0 {
				tm = -tm
			}
			return tm
		}
		for _, raw := range pre {
			ord++
			bulk.Push(key(raw), ord, &event{})
			seq.Push(key(raw), ord, &event{})
		}
		// Occasionally pre-drain some entries so the two heaps' internal
		// arrangements diverge before the bulk insert.
		for len(bulk.e) > 0 && rng.Intn(4) == 0 {
			bulk.Pop()
			seq.Pop()
		}
		entries := make([]heapEntry, 0, len(batch))
		for _, raw := range batch {
			ord++
			entries = append(entries, heapEntry{at: key(raw), ord: ord, ev: &event{}})
			seq.Push(key(raw), ord, &event{})
		}
		bulk.PushAll(entries)
		for {
			b, bok := tryPop(&bulk)
			s, sok := tryPop(&seq)
			if bok != sok {
				return false
			}
			if !bok {
				return true
			}
			if b.at != s.at || b.ord != s.ord {
				return false
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// checkSlots reports whether every entry's event records its own slot and
// every entry sorts after its parent.
func checkSlots(h *eventHeap) bool {
	for i, x := range h.e {
		if int(x.ev.idx) != i || i > 0 && x.before(h.e[(i-1)/heapArity]) {
			return false
		}
	}
	return true
}

// TestHeapOpsMatchSortedReference: any interleaving of Push, Pop, PushAll,
// and Remove and Earlier at a random slot pops in the order of a sorted
// reference list holding the same keys, and after every operation each
// entry's event records the slot the entry occupies — the index Remove and
// Earlier trust when a delivery takes a wait timeout out of the heap or
// moves a polled advance's wake.
func TestHeapOpsMatchSortedReference(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h eventHeap
		var ref []heapEntry // the same keys, kept sorted
		var ord uint64
		entry := func(raw uint16) heapEntry {
			ord++
			return heapEntry{at: Time(raw % 64), ord: ord, ev: &event{}} // heavy timestamp collisions
		}
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
			switch op % 5 {
			case 0:
				x := entry(op >> 2)
				h.Push(x.at, x.ord, x.ev)
				insert(x)
			case 1:
				if len(h.e) == 0 {
					continue
				}
				if got := h.Pop(); got != ref[0] {
					return false
				}
				ref = ref[1:]
			case 2:
				batch := make([]heapEntry, rng.Intn(len(h.e)+2))
				for i := range batch {
					batch[i] = entry(uint16(rng.Intn(1 << 16)))
					insert(batch[i])
				}
				h.PushAll(batch)
			case 3:
				if len(h.e) == 0 {
					continue
				}
				x := h.e[rng.Intn(len(h.e))]
				h.Remove(int(x.ev.idx))
				ref = slices.DeleteFunc(ref, func(y heapEntry) bool { return y == x })
			case 4:
				if len(h.e) == 0 {
					continue
				}
				x := h.e[rng.Intn(len(h.e))]
				if x.at == 0 {
					continue
				}
				// A fresh ord is the largest yet, so only an earlier time
				// makes the key earlier, as in pollArrival.
				ord++
				y := heapEntry{at: Time(rng.Int63n(int64(x.at))), ord: ord, ev: x.ev}
				h.Earlier(int(x.ev.idx), y.at, y.ord)
				ref = slices.DeleteFunc(ref, func(z heapEntry) bool { return z == x })
				insert(y)
			}
			if len(h.e) != len(ref) || !checkSlots(&h) {
				return false
			}
		}
		for len(ref) > 0 {
			if h.Pop() != ref[0] || !checkSlots(&h) {
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

// TestPushAllZeroAllocs: once the heap's backing array is warm, a bulk
// insert-and-drain cycle allocates nothing — PushAll must stay off the
// allocator just like Push, since it runs once per (destination, round) on
// the barrier path.
func TestPushAllZeroAllocs(t *testing.T) {
	var h eventHeap
	events := make([]*event, 64)
	for i := range events {
		events[i] = &event{}
	}
	batch := make([]heapEntry, len(events))
	var ord uint64
	cycle := func() {
		for i := range batch {
			ord++
			batch[i] = heapEntry{at: Time(ord % 17), ord: ord, ev: events[i]}
		}
		h.PushAll(batch)
		for len(h.e) > 0 {
			h.Pop()
		}
	}
	cycle() // warm the backing array
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("PushAll cycle allocates %.1f per run, want 0", avg)
	}
}

func TestHeapPeek(t *testing.T) {
	var h eventHeap
	if _, ok := h.PeekTime(); ok {
		t.Fatal("empty heap should have no peek time")
	}
	h.Push(5, 1, &event{})
	h.Push(3, 2, &event{})
	if at, ok := h.PeekTime(); !ok || at != 3 {
		t.Fatalf("peek = %v, %v", at, ok)
	}
	if len(h.e) != 2 {
		t.Fatalf("len = %d", len(h.e))
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
