// Package sim is a deterministic, process-oriented discrete-event simulator
// of a distributed-memory cluster. It is the substrate on which this
// repository reproduces the PREMA runtime and its baselines (ParMETIS-style
// stop-and-repartition and a Charm++-style chare runtime).
//
// Each simulated processor is a goroutine, but processors only execute when
// their owning *shard* hands them control over unbuffered channels. With one
// shard (the default) the simulation is fully sequential, exactly as it was
// before the engine was parallelized. With S > 1 shards the processors are
// partitioned across S shard event loops (round-robin by default, or any
// Config.Partition map) that run on their own goroutines and advance in
// bounded-lag windows. The window bound is conservative lookahead: a message
// from shard s cannot arrive at shard d earlier than s's next event plus the
// cheapest (src in s, dst in d) link latency, so every event a shard fires
// below that bound is safe. The engine derives a per-(shard,shard) minimum-
// latency matrix from the NetworkConfig and, each coordination round, solves
// for the widest per-shard windows the matrix permits (see runSharded) —
// shards that only talk over expensive links, or not at all, advance many
// minimum-latency widths per barrier. Cross-shard deliveries wait in
// per-(shard,shard) mailboxes and are batch-exchanged at the window barrier.
//
// Sharding is a performance knob, not a semantics knob: shards share no
// mutable state and the event ordering key is partition-invariant (see
// event.go), so a simulation's output — makespans, accounts, spans, message
// timings, per-processor RNG streams — is byte-identical for every shard
// count. Virtual time advances only through the cost model: computation
// (Proc.Advance), message send/receive CPU overheads, and network
// latency/bandwidth. This lets the harness reproduce the paper's
// per-processor time breakdowns (idle, messaging, scheduling, callback,
// polling-thread, partition-calculation, synchronization) on a laptop.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
)

// Config parameterizes an Engine.
type Config struct {
	// Network is the interconnect cost model.
	Network NetworkConfig
	// Seed seeds the engine's deterministic RNGs (the engine-level stream
	// and the per-processor streams derived from it).
	Seed int64
	// Shards is the number of parallel event-loop shards (<= 1 = serial).
	// Output is byte-identical for every value; more shards trade
	// per-window barrier overhead for parallelism, so the sweet spot is
	// min(GOMAXPROCS, a few) for large simulations and 1 for small ones.
	// Sharding requires a positive Network.Latency for lookahead; with a
	// zero-latency network the engine silently runs serial.
	Shards int
	// Partition maps a processor ID to the shard that owns it (0 <=
	// result < shards). nil selects the round-robin default (id % shards).
	// Like Shards it is a pure performance knob: the (time, ord) event
	// ordering key is partition-invariant, so output is byte-identical for
	// every assignment — which is what lets drivers pick load-aware
	// placements (internal/bench's -partition=loaded) without re-validating
	// a single result. The function must be pure and is called once per
	// processor at Spawn.
	Partition func(id, shards int) int
	// FixedWindows disables adaptive window batching: every coordination
	// round dispatches one minimum-lookahead-wide window, as the engine did
	// before windows were batched. It is the reference the adaptive protocol
	// is tested against (TestAdaptiveWindowsMatchFixed: identical output, no
	// more barrier rounds); no driver or CLI sets it.
	FixedWindows bool
}

// Engine owns the simulated machine: configuration, the set of processors,
// and the shard event loops that execute them. Create one with NewEngine,
// add processors with Spawn, then call Run.
type Engine struct {
	cfg     Config
	look    Time // minimum lookahead over all links (fixed-window width)
	procs   []*Proc
	assign  []int // processor ID -> owning shard (partition map)
	shards  []*shard
	rng     *rand.Rand
	running bool // true while Run executes
	err     error
	stop    atomic.Bool

	// Sharded-mode coordinator state, built at Run: minLat[s][d] is the
	// smallest latency of any (src in s, dst in d) link — the
	// per-destination conservative lookahead — and bound/ends are scratch
	// for the per-round window computation. mail is the exchange's reusable
	// batch buffer. rounds counts coordination rounds (barriers), the
	// quantity adaptive windows exist to shrink.
	minLat [][]Time
	bound  []Time
	ends   []Time
	mail   []heapEntry
	rounds uint64

	tracing     bool
	spans       []Span // merged + canonically sorted, built lazily by Spans
	spansMerged bool
}

// maxTime is the "no bound" window end for the serial fast path.
const maxTime = Time(math.MaxInt64)

// NewEngine returns an engine with the given configuration.
func NewEngine(cfg Config) *Engine {
	if cfg.Network == (NetworkConfig{}) {
		cfg.Network = DefaultNetwork()
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Network.MinLatency() <= 0 {
		// No positive lookahead: conservative windows would have zero
		// width. Run serial; output is identical either way.
		cfg.Shards = 1
	}
	e := &Engine{
		cfg:  cfg,
		look: cfg.Network.MinLatency(),
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}
	e.shards = make([]*shard, cfg.Shards)
	for i := range e.shards {
		e.shards[i] = newShard(e, i, cfg.Shards)
	}
	return e
}

// Shards returns the number of shard event loops (1 = serial).
func (e *Engine) Shards() int { return len(e.shards) }

// EventsFired returns the total number of events executed so far, summed
// over shards. Read it after Run (or from serial simulation context).
func (e *Engine) EventsFired() uint64 {
	var n uint64
	for _, s := range e.shards {
		n += s.fired
	}
	return n
}

// PollsElided returns the number of polling-thread wake-ups AdvancePolled
// charged arithmetically instead of firing, summed over shards. Read it
// after Run.
func (e *Engine) PollsElided() uint64 {
	var n uint64
	for _, s := range e.shards {
		n += s.elided
	}
	return n
}

// ShardEventsFired returns the per-shard executed event counts — the raw
// material for partition-quality telemetry. Read it after Run.
func (e *Engine) ShardEventsFired() []uint64 {
	out := make([]uint64, len(e.shards))
	for i, s := range e.shards {
		out[i] = s.fired
	}
	return out
}

// ImbalanceRatio returns max/mean of the per-shard event counts: 1.0 is a
// perfectly balanced partition, S is the worst case (all events on one of S
// shards). Returns 0 before any event has fired.
func (e *Engine) ImbalanceRatio() float64 {
	var total, max uint64
	for _, s := range e.shards {
		total += s.fired
		if s.fired > max {
			max = s.fired
		}
	}
	if total == 0 {
		return 0
	}
	return float64(max) * float64(len(e.shards)) / float64(total)
}

// BarrierRounds returns the number of window coordination rounds the sharded
// run executed (0 for a serial run). Fewer rounds for the same event count
// means less synchronization overhead; comparing a FixedWindows run against
// an adaptive one on the same workload measures what the per-destination
// lookahead matrix and window batching save.
func (e *Engine) BarrierRounds() uint64 { return e.rounds }

// shardOf returns the shard owning processor id.
func (e *Engine) shardOf(id int) int { return e.assign[id] }

// Now returns the engine's notion of current virtual time: the (single)
// shard clock in serial mode, the maximum shard clock in sharded mode.
// Processor bodies should use Proc.Now, which is their own shard's clock;
// Engine.Now is for drivers before and after Run.
func (e *Engine) Now() Time {
	if len(e.shards) == 1 {
		return e.shards[0].now
	}
	var t Time
	for _, s := range e.shards {
		if s.now > t {
			t = s.now
		}
	}
	return t
}

// Rand returns the engine's deterministic random source. It must only be
// used from serial simulation context (event handlers and processor bodies
// on a one-shard engine) or before Run; sharded processor bodies must use
// their own Proc.Rand stream.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// NumProcs returns the number of spawned processors.
func (e *Engine) NumProcs() int { return len(e.procs) }

// Proc returns processor i.
func (e *Engine) Proc(i int) *Proc { return e.procs[i] }

// After schedules fn to run d from now on shard 0's event loop. It may be
// called before Run on any engine, or from simulation context on a serial
// (one-shard) engine; calling it mid-run on a sharded engine panics, since
// the closure would race with the other shards.
func (e *Engine) After(d Time, fn func()) {
	if e.running && len(e.shards) > 1 {
		panic("sim: After is unavailable while a sharded engine runs; schedule before Run or use Shards: 1")
	}
	e.shards[0].at(d, fn)
}

// Stop ends the simulation: remaining events are discarded and
// still-blocked processors are torn down. On a serial engine it takes
// effect after the currently firing event, exactly as before; on a sharded
// engine it takes effect at the current window barrier (the shards finish
// the window they are in — deterministic run-to-run, but a sharded stop
// point lands later than the serial one, and adaptive windows can be wide,
// so drivers that need byte-identical or prompt stop timing should terminate
// by message protocol, as the PREMA stack's StopAll does).
func (e *Engine) Stop() {
	e.stop.Store(true)
	if len(e.shards) == 1 {
		e.shards[0].stopped = true
	}
}

// Spawn creates a simulated processor whose behaviour is body. The
// processor starts executing when virtual time reaches the moment of the
// Spawn call (normally time zero, before Run). Processor IDs are assigned
// densely in spawn order. On a sharded engine all Spawn calls must precede
// Run.
func (e *Engine) Spawn(name string, body func(*Proc)) *Proc {
	if e.running && len(e.shards) > 1 {
		panic("sim: Spawn is unavailable while a sharded engine runs; spawn before Run or use Shards: 1")
	}
	id := len(e.procs)
	sh := id % len(e.shards)
	if e.cfg.Partition != nil {
		sh = e.cfg.Partition(id, len(e.shards))
		if sh < 0 || sh >= len(e.shards) {
			panic(fmt.Sprintf("sim: Partition(%d, %d) returned out-of-range shard %d",
				id, len(e.shards), sh))
		}
	}
	e.assign = append(e.assign, sh)
	s := e.shards[sh]
	p := &Proc{
		id:     id,
		name:   name,
		sh:     s,
		resume: make(chan struct{}),
		parked: make(chan struct{}),
	}
	e.procs = append(e.procs, p)
	go func() {
		<-p.resume
		if !p.killed {
			func() {
				defer func() {
					if r := recover(); r != nil {
						if r == errKilled {
							return
						}
						if s.err == nil {
							s.err = fmt.Errorf("sim: processor %q panicked: %v\n%s", p.name, r, debug.Stack())
						}
					}
				}()
				body(p)
			}()
		}
		p.done = true
		p.finishedAt = s.now
		p.parked <- struct{}{}
	}()
	s.atTransfer(0, p)
	return p
}

// ErrDeadlock is returned (wrapped) by Run when the event queue drains while
// some processors are still blocked.
var ErrDeadlock = errors.New("sim: deadlock")

// Run executes the simulation until every event queue is empty, Stop is
// called, or a processor panics. It returns an error on panic or deadlock
// (event queues empty with processors still blocked).
func (e *Engine) Run() error {
	e.running = true
	if len(e.shards) == 1 {
		e.shards[0].runWindow(maxTime)
	} else {
		e.runSharded()
	}
	e.running = false
	for _, s := range e.shards {
		if s.err != nil {
			e.err = s.err
			break
		}
	}
	var stuck []string
	for _, p := range e.procs {
		if !p.done {
			stuck = append(stuck, p.name)
		}
	}
	e.teardown()
	if e.err != nil {
		return e.err
	}
	if len(stuck) > 0 && !e.stop.Load() {
		sort.Strings(stuck)
		return fmt.Errorf("%w: %d processors still blocked: %s",
			ErrDeadlock, len(stuck), strings.Join(stuck, ", "))
	}
	return nil
}

// runSharded is the conservative parallel loop: one persistent worker
// goroutine per shard, per-shard window bounds computed each round from the
// lookahead matrix, mailbox exchange and a full barrier between rounds. The
// coordinator (this goroutine) only touches shard state while every worker
// is parked at the barrier, so the whole machine needs no locks — the
// channels' happens-before edges carry all cross-shard visibility.
//
// Window computation. After the exchange every pending delivery sits in
// some shard's heap, so next[s] (the head of s's heap) is the earliest
// event s can fire from local state. Let B[s] be the least fixed point of
//
//	B[s] = min(next[s], min over r != s of B[r] + minLat[r][s])
//
// B[s] lower-bounds the virtual time of *every* event shard s will ever
// fire — its own pending events and anything a future incoming delivery
// can trigger — because a delivery from r departs no earlier than B[r] and
// pays at least minLat[r][s] in flight. Every send s performs therefore
// departs at or after B[s], so a delivery into shard d arrives at or after
//
//	end[d] = min over s != d of B[s] + minLat[s][d]
//
// and d can safely fire every event strictly below end[d] in this round.
// Progress is guaranteed: the globally earliest shard m has end[m] >=
// B[m] + minLookahead > next[m], so it always fires at least one event.
// This generalizes both of PR 6's fixed windows (flat network: B collapses
// to the global minimum and end to min+Latency) and "K-width" batching: a
// shard whose peers are idle (B[r] = +inf) or far behind gets an unbounded
// or many-widths-wide window, which is what collapses tail-drain barriers
// on imbalanced workloads. Config.FixedWindows forces the PR 6 bound so
// the saved rounds are measurable.
func (e *Engine) runSharded() {
	e.buildLookahead()
	for _, s := range e.shards {
		s.start = make(chan Time)
		s.done = make(chan struct{}, 1)
		go s.work()
	}
	for !e.stop.Load() {
		failed := false
		for _, s := range e.shards {
			if s.err != nil {
				failed = true
				break
			}
		}
		if failed {
			break
		}
		e.exchange()
		any := false
		for i, s := range e.shards {
			if at, ok := s.heap.PeekTime(); ok {
				e.bound[i] = at
				any = true
			} else {
				e.bound[i] = maxTime
			}
		}
		if !any {
			break // every heap and mailbox is empty: simulation over
		}
		e.rounds++
		if e.cfg.FixedWindows {
			base := maxTime
			for _, b := range e.bound {
				if b < base {
					base = b
				}
			}
			for i := range e.ends {
				e.ends[i] = base + e.look
			}
		} else {
			e.relaxWindows()
		}
		for i, s := range e.shards {
			s.start <- e.ends[i]
		}
		for _, s := range e.shards {
			<-s.done
		}
	}
	for _, s := range e.shards {
		close(s.start)
	}
}

// relaxWindows computes the per-shard window ends for one coordination
// round (see runSharded for the invariant). e.bound holds next[s] on entry
// and is relaxed in place to the least fixed point B[s]; Bellman-Ford-style
// sweeps converge in at most S-1 passes because every minLat edge is
// positive. maxTime means "never" and is skipped rather than added to.
func (e *Engine) relaxWindows() {
	b := e.bound
	for changed := true; changed; {
		changed = false
		for d := range b {
			for r := range b {
				if r == d || b[r] == maxTime || e.minLat[r][d] == maxTime {
					continue
				}
				if v := b[r] + e.minLat[r][d]; v < b[d] {
					b[d] = v
					changed = true
				}
			}
		}
	}
	for d := range e.ends {
		end := maxTime
		for s := range b {
			if s == d || b[s] == maxTime || e.minLat[s][d] == maxTime {
				continue
			}
			if v := b[s] + e.minLat[s][d]; v < end {
				end = v
			}
		}
		e.ends[d] = end
	}
}

// buildLookahead fills minLat[s][d] with the cheapest latency of any link
// from a processor on shard s to one on shard d, using the partition map
// and the network's zone structure. On a flat network every entry is
// Latency. On a zoned network the cheapest (s,d) link is ZoneLatency when
// the two shards occupy a common zone and Latency when any cross-zone
// (src,dst) pair exists — which fails only when both shards live entirely
// in the same single zone. Shards that own no processors can never send, so
// their rows are maxTime ("never"). Cost is O(P + S^2), not O(P^2): only
// the per-shard zone sets are scanned.
func (e *Engine) buildLookahead() {
	S := len(e.shards)
	e.minLat = make([][]Time, S)
	e.bound = make([]Time, S)
	e.ends = make([]Time, S)
	net := e.cfg.Network
	zones := make([]map[int]bool, S)
	for i := range zones {
		zones[i] = make(map[int]bool)
	}
	for id, sh := range e.assign {
		zones[sh][net.zoneOf(id)] = true
	}
	for s := 0; s < S; s++ {
		e.minLat[s] = make([]Time, S)
		for d := 0; d < S; d++ {
			e.minLat[s][d] = linkMin(net, zones[s], zones[d])
		}
	}
}

// linkMin is the cheapest link latency between any processor in zone set a
// and any in zone set b (maxTime when either set is empty).
func linkMin(net NetworkConfig, a, b map[int]bool) Time {
	if len(a) == 0 || len(b) == 0 {
		return maxTime
	}
	if !net.zoned() {
		return net.Latency
	}
	min := maxTime
	shared := false
	for z := range a {
		if b[z] {
			shared = true
			break
		}
	}
	if shared {
		min = net.ZoneLatency
	}
	// A cross-zone pair exists unless both shards occupy exactly one
	// common zone.
	if !(len(a) == 1 && len(b) == 1 && shared) && net.Latency < min {
		min = net.Latency
	}
	return min
}

// exchange moves every outbox entry into its destination shard's heap,
// batching each destination's deliveries into a single bulk PushAll instead
// of N sifted pushes. It runs between windows, when all workers are parked,
// so it may touch any shard's heap and free list directly. Entries and the
// batch buffer are reused across windows: the steady-state cross-shard path
// allocates nothing (guarded by a test).
func (e *Engine) exchange() {
	for d, dst := range e.shards {
		batch := e.mail[:0]
		for _, src := range e.shards {
			box := src.out[d]
			if len(box) == 0 {
				continue
			}
			for i := range box {
				ent := &box[i]
				ev := dst.alloc()
				ev.kind = evDeliver
				ev.msg = ent.m
				batch = append(batch, heapEntry{at: ent.at, ord: ent.ord, ev: ev})
				*ent = mailEntry{} // drop the Msg reference
			}
			src.out[d] = box[:0]
		}
		dst.heap.PushAll(batch)
		for i := range batch {
			batch[i] = heapEntry{} // drop the event references
		}
		e.mail = batch[:0]
	}
}

// teardown unwinds any still-blocked processor goroutines so they do not
// leak past Run. It runs after every shard worker has quiesced, so the
// sequential transfers below are race-free.
func (e *Engine) teardown() {
	for _, p := range e.procs {
		if !p.done {
			p.killed = true
			p.sh.transfer(p)
		}
	}
}

// Makespan returns the latest processor finish time. It is only meaningful
// after Run returns.
func (e *Engine) Makespan() Time {
	var t Time
	for _, p := range e.procs {
		if p.finishedAt > t {
			t = p.finishedAt
		}
	}
	return t
}
