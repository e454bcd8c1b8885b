package sim

// event is a scheduled occurrence in virtual time.
//
// The engine schedules one event per work unit advance, per message delivery
// and per processor handoff, so this is the simulator's hottest allocation
// site. Three measures keep the hot path cheap:
//
//   - every occurrence (processor wake-up, message delivery, control
//     transfer, end of a polled advance) is encoded as a kind tag plus typed
//     operands instead of a fresh closure per event;
//   - fired events are recycled through the owning shard's intrusive free
//     list (each shard's event loop is single-threaded, so no sync.Pool is
//     needed);
//   - the ordering key (timestamp + ord, see below) lives inline in the
//     heap's entry array, not behind the event pointer, so heap sifts touch
//     one contiguous array instead of chasing a pointer per comparison. The
//     event struct itself is 40 bytes — under a cache line.
type event struct {
	proc *Proc  // evWake, evTransfer, evPollEnd: target processor
	msg  *Msg   // evDeliver: message to deliver
	next *event // shard free list link (nil while scheduled)
	gen  uint64 // evWake: wait generation to test
	kind eventKind
}

// eventKind says which operands an event carries and what firing it does.
type eventKind uint8

const (
	evWake     eventKind = iota // wake proc if still in generation gen
	evDeliver                   // deliver msg to its destination inbox
	evTransfer                  // hand control to proc
	evPollEnd                   // end of proc's polled advance (polled.go)
)

// Event ordering
//
// Events fire in (at, ord) order. Before the engine was sharded, ord was a
// single global allocation counter; that order is unreconstructible once
// processors are partitioned across shards (no shard can know where its
// counter values interleave with another's). Instead ord encodes a
// *partition-invariant* total order in two bands:
//
//   - deliveries (the only events that cross shards) carry the sending
//     processor's ID and its per-processor send sequence number. Both are
//     properties of the sender's own execution, identical under any
//     partitioning.
//   - local events (wakes, transfers, poll ends) carry a per-shard
//     allocation counter with the top bit set. These events are only ever
//     created by their own shard's execution, so the shard-local counter
//     induces the same relative order the global counter did — for any
//     shard count, including one.
//
// Deliveries sort before local events at equal timestamps: when a delivery
// ties with a local wake to the nanosecond, the delivery fires first, under
// every shard count. (That is also what the old allocation-order tie-break
// did in practice: a delivery is scheduled a full network latency before it
// fires, so its counter value predated any same-instant wake's.) Cross-band
// and cross-source ties at equal (at, ord) are impossible by construction,
// so (at, ord) is a total order and every shard fires an identical event
// sequence whether it runs alone (serial engine) or next to S-1 siblings —
// the byte-identity guarantee the drivers and tests rely on.
const (
	ordLocalBand = uint64(1) << 63
	ordSrcShift  = 40 // deliver ord: src<<40 | sendSeq (sendSeq < 2^40)
)

// deliverOrd builds the delivery-band ordering key for a message delivery.
func deliverOrd(src int, sendSeq uint64) uint64 {
	return uint64(src)<<ordSrcShift | sendSeq&(1<<ordSrcShift-1)
}

// heapArity is the fan-out of the event heap. A 4-ary heap halves the tree
// depth of a binary heap, trading slightly more comparisons per level for
// far fewer levels (and cache misses) per sift — a net win at the event
// queue sizes the full-scale sweep reaches. The pop order is identical to
// any other min-heap because (at, ord) is a total order.
const heapArity = 4

// heapEntry is one heap slot: the ordering key inline plus the event
// pointer. 24 bytes, so a sift-down's comparisons stay within a few cache
// lines of the backing array.
type heapEntry struct {
	at  Time
	ord uint64
	ev  *event
}

func (a heapEntry) before(b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.ord < b.ord
}

// eventHeap is a d-ary min-heap ordered by (at, ord). It is implemented
// directly rather than through container/heap to avoid interface boxing on
// the simulator's hottest path.
type eventHeap struct {
	e []heapEntry
}

// Push inserts an event with its ordering key.
func (h *eventHeap) Push(at Time, ord uint64, ev *event) {
	h.e = append(h.e, heapEntry{at: at, ord: ord, ev: ev})
	i := len(h.e) - 1
	x := h.e[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if !x.before(h.e[parent]) {
			break
		}
		h.e[i] = h.e[parent]
		i = parent
	}
	h.e[i] = x
}

// PushAll inserts a batch of prebuilt entries in one operation — the bulk
// path the window-barrier mailbox exchange uses instead of N individual
// pushes. Because (at, ord) is a total order, the pop sequence of any
// correct min-heap is unique, so PushAll is observationally identical to
// pushing the entries one at a time (property-tested in heap_test.go); only
// the sift work differs. Small batches sift each entry up (k·log_4 n);
// batches comparable to the heap size switch to a full bottom-up Floyd
// heapify, which is O(n) — cheaper than k sift-ups once k rivals the heap.
func (h *eventHeap) PushAll(entries []heapEntry) {
	k := len(entries)
	if k == 0 {
		return
	}
	was := len(h.e)
	h.e = append(h.e, entries...)
	n := len(h.e)
	if was == 0 || k >= was/2 {
		// Rebuild from the last parent down: every subtree rooted at or
		// above the first appended index gets re-heapified.
		for i := (n - 2) / heapArity; i >= 0; i-- {
			h.siftDown(i)
		}
		return
	}
	for i := was; i < n; i++ {
		x := h.e[i]
		j := i
		for j > 0 {
			parent := (j - 1) / heapArity
			if !x.before(h.e[parent]) {
				break
			}
			h.e[j] = h.e[parent]
			j = parent
		}
		h.e[j] = x
	}
}

// Pop removes and returns the earliest entry; ok is false if the heap is
// empty.
func (h *eventHeap) Pop() (top heapEntry, ok bool) {
	n := len(h.e)
	if n == 0 {
		return heapEntry{}, false
	}
	top = h.e[0]
	h.e[0] = h.e[n-1]
	h.e[n-1] = heapEntry{}
	h.e = h.e[:n-1]
	h.siftDown(0)
	return top, true
}

func (h *eventHeap) siftDown(i int) {
	n := len(h.e)
	for {
		first := heapArity*i + 1
		if first >= n {
			return
		}
		smallest := i
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first; c < last; c++ {
			if h.e[c].before(h.e[smallest]) {
				smallest = c
			}
		}
		if smallest == i {
			return
		}
		h.e[i], h.e[smallest] = h.e[smallest], h.e[i]
		i = smallest
	}
}

// PeekTime returns the earliest entry's timestamp; ok is false if the heap
// is empty.
func (h *eventHeap) PeekTime() (at Time, ok bool) {
	if len(h.e) == 0 {
		return 0, false
	}
	return h.e[0].at, true
}
