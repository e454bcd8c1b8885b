package sim

// event is a scheduled occurrence in virtual time.
//
// The engine schedules one event per work unit advance, per message delivery
// and per processor start, so this is the simulator's hottest allocation
// site. Three measures keep the hot path cheap:
//
//   - every occurrence (a processor's wake-up, a message delivery) is
//     encoded as a kind tag plus typed operands instead of a fresh closure
//     per event;
//   - fired events are recycled through the owning shard's intrusive free
//     list (each shard's event loop is single-threaded, so no sync.Pool is
//     needed);
//   - the ordering key (timestamp + ord, see below) lives inline in the
//     heap's entry array, not behind the event pointer, so heap sifts
//     compare within one contiguous array and follow the pointer only to
//     record an entry's new slot (idx). The event struct is 32 bytes —
//     half a cache line; idx fits in the padding after kind.
//
// Every event in a heap is live: it fires, or is removed before it would
// (eventHeap.Remove). A processor's wake is its one event in the heap while
// it is parked or not yet started (Proc.wake), and a delivery that changes
// when the processor is due back removes or moves it (shard.deliver).
type event struct {
	proc *Proc  // evWake: processor to resume
	msg  *Msg   // evDeliver: message to deliver
	next *event // shard free list link (nil while scheduled)
	kind eventKind
	idx  int32 // slot in the shard's heap while scheduled (eventHeap.Remove)
}

// eventKind says which operands an event carries and what firing it does.
type eventKind uint8

const (
	evWake    eventKind = iota // switch into proc, which is parked on this event
	evDeliver                  // deliver msg to its destination inbox
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
//   - local events (wakes) carry their processor's ID with the top bit set.
//     A processor has at most one wake in the heap (Proc.wake), so the key
//     is unique, and same-instant wakes fire in processor-ID order whenever
//     each was pushed. That matters where processors share host memory
//     (-recover's stable store, read in lockstep): a polled advance pushes
//     one wake per quiet stretch where the stepped loop pushes one per
//     poll, and an order drawn at push time would let the two runs tick
//     the store in different orders at a tie.
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

// wakeOrd builds the local-band ordering key for processor id's wake.
func wakeOrd(id int) uint64 { return ordLocalBand | uint64(id) }

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
//
// Every scheduled event records its slot in ev.idx, kept current by every
// operation that moves an entry, so Remove can take a known event out in
// O(log n): a message that beats a wait timeout removes the timeout, and one
// that pulls a polled advance's wake-up forward moves the wake (Earlier),
// instead of leaving either to fire dead (shard.deliver).
type eventHeap struct {
	e []heapEntry
}

// set stores x in slot i and records the slot in its event.
func (h *eventHeap) set(i int, x heapEntry) {
	h.e[i] = x
	x.ev.idx = int32(i)
}

// Push inserts an event with its ordering key.
func (h *eventHeap) Push(at Time, ord uint64, ev *event) {
	h.e = append(h.e, heapEntry{at: at, ord: ord, ev: ev})
	h.siftUp(len(h.e) - 1)
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
		for i := was; i < n; i++ {
			h.e[i].ev.idx = int32(i)
		}
		// Rebuild from the last parent down: every subtree rooted at or
		// above the first appended index gets re-heapified.
		for i := (n - 2) / heapArity; i >= 0; i-- {
			h.siftDown(i)
		}
		return
	}
	for i := was; i < n; i++ {
		h.siftUp(i)
	}
}

// Pop removes and returns the earliest entry. The heap must not be empty.
// It is one call to Remove, small enough to inline into the event loop
// (shard.drain).
func (h *eventHeap) Pop() heapEntry {
	top := h.e[0]
	h.Remove(0)
	return top
}

// Earlier gives the entry in slot i a key before its current one and sifts
// it up: the pop order a Remove and a Push with that key would give, for
// one sift.
func (h *eventHeap) Earlier(i int, at Time, ord uint64) {
	h.e[i].at, h.e[i].ord = at, ord
	h.siftUp(i)
}

// Remove deletes the entry in slot i, moving the last entry into the hole
// and sifting it whichever way restores the heap order.
func (h *eventHeap) Remove(i int) {
	n := len(h.e) - 1
	x := h.e[n]
	h.e[n] = heapEntry{}
	h.e = h.e[:n]
	if i == n {
		return
	}
	h.e[i] = x
	if i > 0 && x.before(h.e[(i-1)/heapArity]) {
		h.siftUp(i)
	} else {
		h.siftDown(i)
	}
}

// siftUp moves the entry in slot i towards the root until its parent is
// earlier, recording the final slot of every entry it moves.
func (h *eventHeap) siftUp(i int) {
	x := h.e[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if !x.before(h.e[parent]) {
			break
		}
		h.set(i, h.e[parent])
		i = parent
	}
	h.set(i, x)
}

// siftDown moves the entry in slot i towards the leaves until no child is
// earlier, recording the final slot of every entry it moves.
func (h *eventHeap) siftDown(i int) {
	n := len(h.e)
	x := h.e[i]
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		smallest := first
		last := min(first+heapArity, n)
		for c := first + 1; c < last; c++ {
			if h.e[c].before(h.e[smallest]) {
				smallest = c
			}
		}
		if !h.e[smallest].before(x) {
			break
		}
		h.set(i, h.e[smallest])
		i = smallest
	}
	h.set(i, x)
}

// PeekTime returns the earliest entry's timestamp; ok is false if the heap
// is empty.
func (h *eventHeap) PeekTime() (at Time, ok bool) {
	if len(h.e) == 0 {
		return 0, false
	}
	return h.e[0].at, true
}
