package sim

// A shard's pending events live in two queues, one per kind of event:
//
//   - a delivery ring (deliveryRing) of every message in flight to the
//     shard's processors, sorted by (at, ord). A delivery lands one network
//     latency after a sender clock that is within one latency of the
//     shard's, so deliveries arrive almost in order: a push shifts the few
//     later entries from the tail, and a pop takes the head.
//   - a wake heap (eventHeap) of processor wakes. A processor has at most
//     one, and records its slot in Proc.hidx (-1 = none), so a delivery
//     that beats a wait's timeout removes the wake from the middle of the
//     heap and one that pulls a polled advance's wake-up forward moves it
//     (shard.deliver).
//
// The event loop fires whichever head is earlier by (at, ord) (shard.drain),
// so the two queues pop the one (at, ord) sequence a single queue over both
// would. Every queued event is live: it fires, or is removed before it would.
// Entries carry their ordering key inline, so neither queue follows a pointer
// to compare, and nothing is allocated per event once the backing arrays
// have grown.

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
//     A processor has at most one wake in the heap (Proc.hidx), so the key
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

// delivery is one message in flight: its arrival time and delivery-band
// ordering key, and the message. It is an entry of a shard's delivery ring
// and of a cross-shard mailbox.
type delivery struct {
	at  Time
	ord uint64
	m   *Msg
}

func (a *delivery) before(b *delivery) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.ord < b.ord
}

// deliveryRing is a growable ring buffer of deliveries sorted by (at, ord).
// Capacity is always a power of two so index wrapping is a mask.
type deliveryRing struct {
	buf  []delivery
	head int // index of the earliest delivery
	n    int // number of queued deliveries
}

// next returns the earliest delivery's time, or maxTime when the ring is
// empty.
func (r *deliveryRing) next() Time {
	if r.n == 0 {
		return maxTime
	}
	return r.buf[r.head].at
}

// push inserts x in (at, ord) order, shifting every later delivery one slot
// towards the tail.
func (r *deliveryRing) push(x delivery) {
	if r.n == len(r.buf) {
		r.grow()
	}
	mask := len(r.buf) - 1
	i := r.head + r.n
	for ; i > r.head && x.before(&r.buf[(i-1)&mask]); i-- {
		r.buf[i&mask] = r.buf[(i-1)&mask]
	}
	r.buf[i&mask] = x
	r.n++
}

// pop removes the earliest delivery and returns its message. The ring must
// not be empty.
func (r *deliveryRing) pop() *Msg {
	m := r.buf[r.head].m
	r.buf[r.head].m = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return m
}

func (r *deliveryRing) grow() {
	nb := make([]delivery, max(2*len(r.buf), 16))
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = nb
	r.head = 0
}

// heapArity is the fan-out of the wake heap. A 4-ary heap halves the tree
// depth of a binary heap, trading slightly more comparisons per level for
// far fewer levels (and cache misses) per sift. The pop order is identical
// to any other min-heap because (at, ord) is a total order.
const heapArity = 4

// heapEntry is one wake heap slot: the ordering key inline plus the
// processor to resume. 24 bytes, so a sift-down's comparisons stay within a
// few cache lines of the backing array.
type heapEntry struct {
	at  Time
	ord uint64
	p   *Proc
}

func (a heapEntry) before(b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.ord < b.ord
}

// eventHeap is the d-ary min-heap of a shard's wakes, ordered by (at, ord).
// It is implemented directly rather than through container/heap to avoid
// interface boxing on the simulator's hottest path.
//
// Every queued processor records its slot in p.hidx, kept current by every
// operation that moves an entry, so Remove can take a known wake out in
// O(log n).
type eventHeap struct {
	e []heapEntry
}

// next returns the earliest wake's time, or maxTime when the heap is empty.
func (h *eventHeap) next() Time {
	if len(h.e) == 0 {
		return maxTime
	}
	return h.e[0].at
}

// set stores x in slot i and records the slot in its processor.
func (h *eventHeap) set(i int, x heapEntry) {
	h.e[i] = x
	x.p.hidx = int32(i)
}

// Push inserts p's wake at time at.
func (h *eventHeap) Push(at Time, p *Proc) {
	h.e = append(h.e, heapEntry{at: at, ord: wakeOrd(p.id), p: p})
	h.siftUp(len(h.e) - 1)
}

// Earlier moves the wake in slot i to at, before its current time, and sifts
// it up: the pop order a Remove and a Push would give, for one sift.
func (h *eventHeap) Earlier(i int, at Time) {
	h.e[i].at = at
	h.siftUp(i)
}

// Remove deletes the wake in slot i, clearing its processor's slot, moving
// the last entry into the hole and sifting it whichever way restores the
// heap order.
func (h *eventHeap) Remove(i int) {
	h.e[i].p.hidx = -1
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
