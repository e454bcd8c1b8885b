// Package trace is PREMA's low-overhead event tracing and metrics subsystem.
// It sits at the substrate seam — the same decorator position internal/faulty
// occupies — so the whole stack (dmcs, mol, ilb, core) emits one logical
// event stream on both backends: on the deterministic simulator the stream is
// virtual-time-stamped and byte-identical for a given seed; on the
// real-concurrency machine it is wall-clock-stamped.
//
// The design keeps the hot path allocation-free: every endpoint owns a
// ring retaining a power-of-two number of events (oldest events are dropped
// once the ring is full; the drop count is surfaced in the metrics
// registry). The ring is a log of records a few bytes each, delta- and
// varint-encoded into fixed chunks that are reused once the window has
// passed them, and a quiet stretch of polls is folded into one record that
// is expanded on read, so memory follows what the ring holds rather than
// its capacity. Recording is a few stores and one encode — cheap enough to
// leave on during production runs, which is the property the paper's "<1%
// runtime overhead" claim (§5) is about.
//
// Two exporters read a Collector after the run: a Chrome trace_event JSON
// writer (chrome.go, loadable in Perfetto / chrome://tracing for
// per-processor compute/idle/messaging timelines with migration arrows) and
// an aggregated metrics registry (metrics.go: counters plus fixed-bucket
// histograms with P50/P95/P99).
package trace

import (
	"encoding/binary"
	"iter"

	"prema/internal/substrate"
)

// Kind discriminates trace event types.
type Kind uint8

// Event kinds. The A/B/C argument meanings are per kind; see the constants.
const (
	// EvSpan is a contiguous interval of processor time attributed to one
	// accounting category. A = substrate.Category, T = span end, Dur = span
	// length. Adjacent same-category spans are coalesced at record time.
	EvSpan Kind = iota
	// EvSend is a message leaving this processor. A=dst, B=tag, C=bytes.
	EvSend
	// EvRecv is a message consumed by this processor. A=src, B=tag, C=bytes.
	EvRecv
	// EvForward is a mol envelope relayed toward an object's current host.
	// A=next hop, B=hops so far, C=bytes.
	EvForward
	// EvMigrateOut is a mobile object leaving this processor.
	// A=dst, B=object key (ObjKey), C=bytes.
	EvMigrateOut
	// EvMigrateIn is a mobile object installed on this processor.
	// A=src, B=object key (ObjKey), C=bytes.
	EvMigrateIn
	// EvUnitBegin marks a work-unit handler starting.
	// A=object key, B=origin processor, C=per-(origin,object) sequence.
	EvUnitBegin
	// EvUnitEnd marks a work-unit handler finishing; Dur is the unit's
	// elapsed substrate time. A/B/C as EvUnitBegin.
	EvUnitEnd
	// EvPolicy is a load balancing policy decision point firing.
	// A = policy decision code (PolLowLoad, PolIdle, PolPollWake).
	EvPolicy
	// EvRetransmit is a reliable-mode data retransmission.
	// A=peer, B=tag, C=sequence number.
	EvRetransmit
	// EvStop is the termination broadcast being sent. A = peers notified.
	EvStop
	// EvCheckpoint is one crash-recovery checkpoint round completing on this
	// processor. A=objects snapshotted, B=bytes.
	EvCheckpoint
	// EvSuspect is a failure-detector down verdict surfacing on this
	// processor. A=suspected processor, B=1 if this processor is the
	// recovery coordinator for the verdict, else 0.
	EvSuspect
	// EvRepair is an orphaned object re-installed from its checkpoint.
	// A=object key (ObjKey), B=previous (dead) host, C=bytes.
	EvRepair
	// EvReplay is a logged envelope re-sent by the recovery coordinator.
	// A=object key (ObjKey), B=origin processor, C=sequence number.
	EvReplay

	// NumKinds is the number of event kinds.
	NumKinds
)

var kindNames = [NumKinds]string{
	"span", "send", "recv", "forward", "migrate-out", "migrate-in",
	"unit-begin", "unit-end", "policy", "retransmit", "stop-broadcast",
	"checkpoint", "suspect", "repair", "replay",
}

// String returns the kind's wire name (also used in Chrome trace output).
func (k Kind) String() string {
	if k >= NumKinds {
		return "unknown"
	}
	return kindNames[k]
}

// Policy decision codes carried in EvPolicy's A argument.
const (
	// PolLowLoad: the load crossed below the water-mark (explicit mode) or
	// the processor started its last queued unit (implicit mode).
	PolLowLoad int64 = iota
	// PolIdle: the processor ran out of local work entirely.
	PolIdle
	// PolPollWake: one wake-up of the implicit-mode polling thread.
	PolPollWake
)

// PolicyName renders a policy decision code.
func PolicyName(code int64) string {
	switch code {
	case PolLowLoad:
		return "low-load"
	case PolIdle:
		return "idle"
	case PolPollWake:
		return "poll-wake"
	default:
		return "unknown"
	}
}

// Event is one recorded trace event. It is a fixed-size value type so the
// ring buffer stores it without indirection and the hot path never
// allocates. Argument meanings depend on Kind.
type Event struct {
	// T is the event timestamp (span end for EvSpan/EvUnitEnd).
	T substrate.Time
	// Dur is the interval length for span-like events, 0 for instants.
	Dur substrate.Time
	// A, B, C are kind-specific arguments.
	A, B, C int64
	// Kind discriminates the event type.
	Kind Kind
}

// ObjKey packs a mobile pointer (home, index) into one int64 trace argument.
func ObjKey(home, index int) int64 {
	return int64(home)<<32 | int64(uint32(index))
}

// KeyHome extracts the home processor from an ObjKey.
func KeyHome(key int64) int { return int(key >> 32) }

// KeyIndex extracts the home-local index from an ObjKey.
func KeyIndex(key int64) int { return int(uint32(key)) }

// Recorder is one processor's event sink: a ring retaining the last
// capacity events plus a running total. All recording methods are safe on a
// nil receiver (a no-op), which is how untraced runs pay nothing at the call
// sites — layers obtain their recorder once via Of and call unconditionally.
//
// The ring holds records, not events. A record is one event, or a folded
// stretch of polls (see polls) that Events expands on read, so the
// capacity, Total, Len, Dropped and Events all count logical events. The
// newest record is kept decoded, so a span can still be extended and a
// stretch folded in place; once the next record is pushed it is appended
// to a byte log (see appendRecord), whose chunks are reused once every
// event they hold has left the window. Memory follows the bytes the window
// takes, never the capacity.
//
// A Recorder is owned by its processor's execution context; it is not safe
// for cross-processor sharing. Read it only after the machine's Run returns.
type Recorder struct {
	chunks []chunk        // the log, oldest first
	tail   *chunk         // the last of chunks, which records are appended to
	free   [][]byte       // chunks whose events all left the window, for reuse
	last   record         // the newest record, not yet in the log
	lastEv uint64         // event number of last's first event
	logT   substrate.Time // t of the newest record in the log
	mask   uint64         // capacity - 1
	nrec   uint64         // records pushed since creation
	head   uint64         // events recorded since creation
	proc   int
}

// record is one ring record, decoded: an event's fields, or, when folded,
// b polls of a stretch whose first compute slice starts at t, with dur =
// the poll interval and a = the poll cost.
type record struct {
	t, dur  substrate.Time
	a, b, c int64
	kind    Kind
	folded  bool
}

// A record is encoded as a tag byte, the zigzag varint of t minus the
// previous record's t, and then, as zigzag varints, those of dur, a, b and
// c that are not zero. The tag's low four bits are the kind, or tagFolded
// for a folded stretch; its high four say which fields follow. A kind of
// tagFolded or more (none that a layer records) is written as tagFolded
// with the c bit set, its kind byte after the timestamp, and c always
// present. A typical record takes ~6 bytes; one with every field at 64-bit
// magnitude takes 51.
const (
	tagFolded                     = 15
	tagDur, tagA, tagB, tagC byte = 1 << 4, 1 << 5, 1 << 6, 1 << 7
	maxRecordBytes                = 2 + 5*binary.MaxVarintLen64
	chunkBytes                    = 4 << 10
)

// chunk is one piece of the log: whole records, never one split across
// two chunks, so a chunk decodes on its own from the numbers it carries.
type chunk struct {
	buf []byte
	ev  uint64         // event number of its first record's first event
	t   substrate.Time // t of the record before its first
}

// newRecorder builds a recorder with a power-of-two capacity.
func newRecorder(proc, capacity int) *Recorder {
	return &Recorder{mask: uint64(capacity - 1), proc: proc}
}

// push logs the newest record and makes room for the next, which holds n
// events; the caller fills it in.
func (r *Recorder) push(n uint64) *record {
	if r.nrec > 0 {
		r.appendRecord(&r.last)
	}
	r.nrec++
	r.lastEv = r.head
	r.head += n
	return &r.last
}

// appendRecord encodes f, the record whose first event is r.lastEv, at the
// end of the log.
func (r *Recorder) appendRecord(f *record) {
	if r.tail == nil || cap(r.tail.buf)-len(r.tail.buf) < maxRecordBytes {
		r.grow()
	}
	b, at := r.tail.buf[:cap(r.tail.buf)], len(r.tail.buf)
	n := putVarint(b, at+1, int64(f.t-r.logT))
	tag := byte(f.kind)
	if f.folded {
		tag = tagFolded
	} else if f.kind >= tagFolded {
		tag = tagFolded | tagC
		b[n] = byte(f.kind)
		n++
	}
	if f.dur != 0 {
		tag |= tagDur
		n = putVarint(b, n, int64(f.dur))
	}
	if f.a != 0 {
		tag |= tagA
		n = putVarint(b, n, f.a)
	}
	if f.b != 0 {
		tag |= tagB
		n = putVarint(b, n, f.b)
	}
	if f.c != 0 || tag&tagC != 0 {
		tag |= tagC
		n = putVarint(b, n, f.c)
	}
	b[at] = tag
	r.tail.buf = b[:n]
	r.logT = f.t
}

// putVarint writes v at b[n:] as binary.PutVarint does and returns the
// offset past it.
func putVarint(b []byte, n int, v int64) int {
	u := uint64(v<<1) ^ uint64(v>>63)
	for ; u >= 0x80; u >>= 7 {
		b[n] = byte(u) | 0x80
		n++
	}
	b[n] = byte(u)
	return n + 1
}

// grow starts a chunk for the record about to be logged. First it moves the
// chunks whose events all lie before the window onto the free list; the new
// chunk comes off that list when it can.
func (r *Recorder) grow() {
	w, k := r.Dropped(), 0
	for k < len(r.chunks) && r.chunkEv(k+1) <= w {
		r.free = append(r.free, r.chunks[k].buf[:0])
		k++
	}
	r.chunks = r.chunks[:copy(r.chunks, r.chunks[k:])]
	var buf []byte
	if n := len(r.free); n > 0 {
		buf, r.free = r.free[n-1], r.free[:n-1]
	} else {
		buf = make([]byte, 0, chunkBytes)
	}
	r.chunks = append(r.chunks, chunk{buf: buf, ev: r.lastEv, t: r.logT})
	r.tail = &r.chunks[len(r.chunks)-1]
}

// chunkEv returns the event number chunk i starts at; i = len(r.chunks)
// stands for the newest record, which follows the log.
func (r *Recorder) chunkEv(i int) uint64 {
	if i == len(r.chunks) {
		return r.lastEv
	}
	return r.chunks[i].ev
}

// A cursor reads the ring forward, record by record: chunk ci from byte
// off, then, at ci = len(chunks), the newest record. t is the previous
// record's t.
type cursor struct {
	ci, off int
	t       substrate.Time
}

// next decodes the record at c into f and moves c past it; it returns false
// when c is past the newest record.
func (r *Recorder) next(c *cursor, f *record) bool {
	for c.ci < len(r.chunks) && c.off == len(r.chunks[c.ci].buf) {
		c.ci, c.off = c.ci+1, 0
	}
	switch {
	case c.ci < len(r.chunks):
		// Every field is stored into f where it lies, not built in a
		// record value and copied over f.
		buf, off := r.chunks[c.ci].buf, c.off
		tag := buf[off]
		d, off := varint(buf, off+1)
		f.t, f.kind, f.folded = c.t+substrate.Time(d), Kind(tag&15), false
		if f.kind == tagFolded {
			if tag&tagC != 0 {
				f.kind = Kind(buf[off])
				off++
			} else {
				f.kind, f.folded = EvSpan, true
			}
		}
		f.dur, f.a, f.b, f.c = 0, 0, 0, 0
		if tag&tagDur != 0 {
			d, off = varint(buf, off)
			f.dur = substrate.Time(d)
		}
		if tag&tagA != 0 {
			f.a, off = varint(buf, off)
		}
		if tag&tagB != 0 {
			f.b, off = varint(buf, off)
		}
		if tag&tagC != 0 {
			f.c, off = varint(buf, off)
		}
		c.off = off
	case c.ci == len(r.chunks) && r.nrec > 0:
		*f = r.last
		c.ci++
	default:
		return false
	}
	c.t = f.t
	return true
}

// varint decodes the zigzag varint at buf[off:], as binary.Varint does,
// and returns it with the offset past it. A one-byte varint, most of a
// record's deltas and fields, skips the loop.
func varint(buf []byte, off int) (int64, int) {
	u := uint64(buf[off])
	off++
	if u >= 0x80 {
		u &= 0x7f
		for s := 7; ; s += 7 {
			b := buf[off]
			off++
			u |= uint64(b&0x7f) << s
			if b < 0x80 {
				break
			}
		}
	}
	return int64(u>>1) ^ -int64(u&1), off
}

// NewRecorder builds a standalone recorder retaining ringCap events (rounded
// up to a power of two; <= 0 selects DefaultRingCap). Normal tracing goes
// through Collector + Wrap; this entry point exists for benchmarks and tests
// that exercise the hot path directly.
func NewRecorder(proc, ringCap int) *Recorder {
	return newRecorder(proc, ringSize(ringCap))
}

// ringSize is the capacity a ring asked for ringCap events gets: ringCap
// rounded up to a power of two, DefaultRingCap when ringCap <= 0.
func ringSize(ringCap int) int {
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	p := 1
	for p < ringCap {
		p <<= 1
	}
	return p
}

// Span records a contiguous interval attributed to cat. Zero-length spans
// are dropped; an interval contiguous with the previous recorded event (same
// category, no gap) extends it in place instead of pushing a new event.
func (r *Recorder) Span(cat substrate.Category, start, end substrate.Time) {
	if r == nil || end <= start {
		return
	}
	if last := &r.last; r.nrec > 0 && last.kind == EvSpan && !last.folded && last.a == int64(cat) && last.t == start {
		last.t = end
		last.dur += end - start
		return
	}
	*r.push(1) = record{t: end, dur: end - start, a: int64(cat), kind: EvSpan}
}

// Instant records a zero-duration event.
func (r *Recorder) Instant(k Kind, t substrate.Time, a, b, c int64) {
	if r == nil {
		return
	}
	*r.push(1) = record{t: t, a: a, b: b, c: c, kind: k}
}

// Interval records an event spanning [start, end] (work units).
func (r *Recorder) Interval(k Kind, start, end substrate.Time, a, b, c int64) {
	if r == nil {
		return
	}
	*r.push(1) = record{t: end, dur: end - start, a: a, b: b, c: c, kind: k}
}

// polls records n wake-ups of a polling thread whose first compute slice
// starts at t, each the three events a stepped poll records through
// Endpoint.Advance: a CatCompute span of interval, a PolPollWake instant and
// a CatPollThread span of cost (dropped at zero cost, as Span drops it).
// The first poll is recorded plainly, because its compute span may extend
// the span before it; so is the last, because the next span may extend its
// poll span. The polls between are one folded record: none of their events
// can coalesce with a neighbour, so expanding it on read gives exactly the
// events n Span/Instant/Span triples would have.
func (r *Recorder) polls(t substrate.Time, n int, interval, cost substrate.Time) {
	if r == nil {
		return
	}
	period := interval + cost
	poll := func(t substrate.Time) {
		r.Span(substrate.CatCompute, t, t+interval)
		r.Instant(EvPolicy, t+interval, PolPollWake, 0, 0)
		r.Span(substrate.CatPollThread, t+interval, t+period)
	}
	if n < 3 {
		for j := 0; j < n; j++ {
			poll(t + substrate.Time(j)*period)
		}
		return
	}
	poll(t)
	f := record{t: t + period, dur: interval, a: int64(cost), b: int64(n - 2), folded: true}
	*r.push(f.size()) = f
	poll(t + substrate.Time(n-1)*period)
}

// firstPoll returns the events of folded record f's first poll, of which
// [lo, hi) are recorded: the compute span only at a positive interval, the
// poll span only at a positive cost. Poll p's are these, p periods later.
func (f *record) firstPoll() (evs [3]Event, lo, hi int) {
	interval, cost := f.dur, substrate.Time(f.a)
	wake := f.t + interval
	evs = [3]Event{
		{T: wake, Dur: interval, A: int64(substrate.CatCompute), Kind: EvSpan},
		{T: wake, A: PolPollWake, Kind: EvPolicy},
		{T: wake + cost, Dur: cost, A: int64(substrate.CatPollThread), Kind: EvSpan},
	}
	lo, hi = 0, 3
	if interval <= 0 {
		lo = 1
	}
	if cost <= 0 {
		hi = 2
	}
	return evs, lo, hi
}

// size returns how many events the record holds.
func (f *record) size() uint64 {
	if !f.folded {
		return 1
	}
	_, lo, hi := f.firstPoll()
	return uint64(f.b) * uint64(hi-lo)
}

// A run is evs followed by n-1 copies of them, each period later than the
// one before: a plain event, or what is left of a poll when the window
// starts inside one, is a run of one; the whole polls of a folded record
// after it are one run, whose events are a poll's spans and poll-wake
// instant (firstPoll).
type run struct {
	evs    []Event
	n      uint64
	period substrate.Time
}

// runs yields the retained events, oldest first, a run at a time, read in
// place from the ring: a folded record is never expanded. A run's evs are
// valid until the next yield.
func (r *Recorder) runs() iter.Seq[run] {
	return func(yield func(run) bool) {
		if r == nil {
			return
		}
		var evs [3]Event
		var f record
		c, skip := r.window()
		for r.next(&c, &f) {
			if !f.folded {
				e := &evs[0]
				e.T, e.Dur, e.A, e.B, e.C, e.Kind = f.t, f.dur, f.a, f.b, f.c, f.kind
				if !yield(run{evs[:1], 1, 0}) {
					return
				}
				continue
			}
			var lo, hi int
			evs, lo, hi = f.firstPoll()
			polls, period := uint64(f.b), f.dur+substrate.Time(f.a)
			if skip > 0 { // the window starts inside this record, at event k of poll p
				perPoll := uint64(hi - lo)
				p, k := skip/perPoll, lo+int(skip%perPoll)
				for j := range evs {
					evs[j].T += substrate.Time(p) * period
				}
				polls -= p
				if k > lo {
					if !yield(run{evs[k:hi], 1, 0}) {
						return
					}
					for j := range evs {
						evs[j].T += period
					}
					polls--
				}
				skip = 0
			}
			if polls > 0 && !yield(run{evs[lo:hi], polls, period}) {
				return
			}
		}
	}
}

// Total returns the number of events recorded over the recorder's lifetime,
// including any that have since been overwritten.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.head
}

// Len returns the number of events currently retained.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return int(min(r.head, r.mask+1))
}

// Dropped returns how many events were overwritten by ring overflow
// (oldest-first). It is surfaced by the metrics registry so a truncated
// trace is never mistaken for a complete one.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.head - uint64(r.Len())
}

// Events yields the retained events, oldest first, read in place from the
// ring (no copy); range over it after the run. slices.Collect(r.Events())
// gives them as a slice. A folded record is expanded poll by poll; when the
// window starts inside one, its events before the window are trimmed. A nil
// recorder yields nothing.
func (r *Recorder) Events() iter.Seq[Event] {
	return func(yield func(Event) bool) {
		for ru := range r.runs() {
			for p := range ru.n {
				for _, e := range ru.evs {
					e.T += substrate.Time(p) * ru.period
					if !yield(e) {
						return
					}
				}
			}
		}
	}
}

// window returns a cursor at the oldest record holding a retained event
// and how many of its events are older than the window. It starts from the
// last chunk that begins at or before the window.
func (r *Recorder) window() (c cursor, skip uint64) {
	w, i := r.Dropped(), 0
	for i < len(r.chunks) && r.chunkEv(i+1) <= w {
		i++
	}
	c = cursor{ci: i}
	if i < len(r.chunks) {
		c.t = r.chunks[i].t
	}
	for ev := r.chunkEv(i); ; {
		at := c
		var f record
		if !r.next(&c, &f) || ev+f.size() > w {
			return at, w - ev
		}
		ev += f.size()
	}
}

// DefaultRingCap is the per-processor ring capacity (events) used when a
// Collector is built with capacity <= 0. A record takes ~6 bytes typically
// and 51 at worst, so a full ring holds ~0.4 MiB per processor, and 3.2 MiB
// if every record had every field at 64-bit magnitude; that is the ceiling,
// not the cost: storage grows in 4 KiB chunks with the records held, a
// folded poll stretch is one record, and a wrapped ring reuses its chunks.
const DefaultRingCap = 1 << 16

// Collector owns the per-processor recorders of one traced machine. Build
// one with NewCollector, wrap the machine with Wrap, run, then export with
// WriteChrome / Summarize.
type Collector struct {
	ringCap int
	recs    []*Recorder
}

// NewCollector builds a collector whose endpoints each get a ring retaining
// ringCap events (rounded up to a power of two; <= 0 selects
// DefaultRingCap).
func NewCollector(ringCap int) *Collector {
	return &Collector{ringCap: ringSize(ringCap)}
}

// attach creates the recorder for the next spawned processor.
func (c *Collector) attach(proc int) *Recorder {
	r := newRecorder(proc, c.ringCap)
	c.recs = append(c.recs, r)
	return r
}

// NumProcs returns the number of attached processors.
func (c *Collector) NumProcs() int { return len(c.recs) }

// Recorder returns processor i's recorder. Read it only after Run.
func (c *Collector) Recorder(i int) *Recorder { return c.recs[i] }

// Total returns the machine-wide number of events recorded (including
// overwritten ones).
func (c *Collector) Total() uint64 {
	var n uint64
	for _, r := range c.recs {
		n += r.Total()
	}
	return n
}

// Dropped returns the machine-wide ring-overflow drop count.
func (c *Collector) Dropped() uint64 {
	var n uint64
	for _, r := range c.recs {
		n += r.Dropped()
	}
	return n
}

// hasRecorder is how layers discover the recorder behind an arbitrary
// substrate.Endpoint without depending on the decorator type.
type hasRecorder interface {
	TraceRecorder() *Recorder
}

// Of returns the trace recorder behind p, or nil when p is not traced (the
// nil recorder's methods are no-ops, so call sites need no guards). Layers
// call Of once at construction and keep the result.
func Of(p substrate.Endpoint) *Recorder {
	if h, ok := p.(hasRecorder); ok {
		return h.TraceRecorder()
	}
	return nil
}
