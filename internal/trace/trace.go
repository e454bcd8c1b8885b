// Package trace is PREMA's low-overhead event tracing and metrics subsystem.
// It sits at the substrate seam — the same decorator position internal/faulty
// occupies — so the whole stack (dmcs, mol, ilb, core) emits one logical
// event stream on both backends: on the deterministic simulator the stream is
// virtual-time-stamped and byte-identical for a given seed; on the
// real-concurrency machine it is wall-clock-stamped.
//
// The design keeps the hot path allocation-free: every endpoint owns a
// fixed-capacity power-of-two ring of value-typed Events, written in place
// (oldest events are overwritten once the ring is full; the drop count is
// surfaced in the metrics registry). Recording is a couple of stores — cheap
// enough to leave on during production runs, which is the property the
// paper's "<1% runtime overhead" claim (§5) is about.
//
// Two exporters read a Collector after the run: a Chrome trace_event JSON
// writer (chrome.go, loadable in Perfetto / chrome://tracing for
// per-processor compute/idle/messaging timelines with migration arrows) and
// an aggregated metrics registry (metrics.go: counters plus fixed-bucket
// histograms with P50/P95/P99).
package trace

import (
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

// Recorder is one processor's event sink: a fixed-capacity ring of events
// plus a running total. All recording methods are safe on a nil receiver (a
// no-op), which is how untraced runs pay nothing at the call sites — layers
// obtain their recorder once via Of and call unconditionally.
//
// A Recorder is owned by its processor's execution context; it is not safe
// for cross-processor sharing. Read it only after the machine's Run returns.
type Recorder struct {
	buf  []Event
	mask uint64
	head uint64 // total events pushed since creation
	proc int
}

// newRecorder builds a recorder with a power-of-two capacity.
func newRecorder(proc, capacity int) *Recorder {
	return &Recorder{buf: make([]Event, capacity), mask: uint64(capacity - 1), proc: proc}
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
	if r.head > 0 {
		last := &r.buf[(r.head-1)&r.mask]
		if last.Kind == EvSpan && last.A == int64(cat) && last.T == start {
			last.T = end
			last.Dur += end - start
			return
		}
	}
	r.buf[r.head&r.mask] = Event{T: end, Dur: end - start, A: int64(cat), Kind: EvSpan}
	r.head++
}

// Instant records a zero-duration event.
func (r *Recorder) Instant(k Kind, t substrate.Time, a, b, c int64) {
	if r == nil {
		return
	}
	r.buf[r.head&r.mask] = Event{T: t, A: a, B: b, C: c, Kind: k}
	r.head++
}

// Interval records an event spanning [start, end] (work units).
func (r *Recorder) Interval(k Kind, start, end substrate.Time, a, b, c int64) {
	if r == nil {
		return
	}
	r.buf[r.head&r.mask] = Event{T: end, Dur: end - start, A: a, B: b, C: c, Kind: k}
	r.head++
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
	if r.head < uint64(len(r.buf)) {
		return int(r.head)
	}
	return len(r.buf)
}

// Dropped returns how many events were overwritten by ring overflow
// (oldest-first). It is surfaced by the metrics registry so a truncated
// trace is never mistaken for a complete one.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	if retained := uint64(len(r.buf)); r.head > retained {
		return r.head - retained
	}
	return 0
}

// Events yields the retained events, oldest first, read in place from the
// ring (no copy); range over it after the run. slices.Collect(r.Events())
// gives them as a slice.
func (r *Recorder) Events() iter.Seq[Event] {
	return func(yield func(Event) bool) {
		for i := r.head - uint64(r.Len()); i < r.head; i++ {
			if !yield(r.buf[i&r.mask]) {
				return
			}
		}
	}
}

// DefaultRingCap is the per-processor ring capacity (events) used when a
// Collector is built with capacity <= 0. At 48 bytes per event this retains
// the last ~3 MiB of activity per processor.
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
