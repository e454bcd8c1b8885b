// Package sim is a deterministic, process-oriented discrete-event simulator
// of a distributed-memory cluster. It is the substrate on which this
// repository reproduces the PREMA runtime and its baselines (ParMETIS-style
// stop-and-repartition and a Charm++-style chare runtime).
//
// Each simulated processor body is an iter.Pull coroutine that executes only
// while its owning *shard* has switched to it: the event loop calls the
// coroutine's next, a blocking processor calls its yield, and each is one
// direct switch that bypasses the Go scheduler's run queue. With one
// shard (the default) the simulation is fully sequential. With S > 1 shards
// the processors are partitioned across S shard event loops (round-robin by
// default, or any Config.Partition map) that run on their own goroutines and
// advance in bounded-lag windows. The window bound is conservative
// lookahead: a message from shard s cannot arrive at another shard earlier
// than s's next event plus the network latency, so every event a shard fires
// below that bound is safe. Each coordination round one pass over the
// shards' next-event times sets the widest windows that argument permits
// (see runSharded). Cross-shard deliveries wait in per-(shard,shard)
// mailboxes and are batch-exchanged at the window barrier. The same bound
// works inside one event loop, one processor at a time: a processor runs
// ahead of its shard's clock by less than the latency, and short of the
// earliest delivery in flight to it, instead of yielding to the loop
// (Proc.Advance).
//
// Sharding never changes semantics: shards share no mutable state and the
// event ordering key is partition-invariant (see event.go), so a
// simulation's output — makespans, accounts, message timings, per-processor
// RNG streams, and so the internal/trace stream recorded over the seam — is
// byte-identical for every shard count.
// Whether it buys wall-clock time is a measurement, not a promise: the
// benchmark's sim.s2_speedup row (serial ÷ two-shard wall on Figure 3) is
// the record, and it reads below 1 on the two-core host it was taken on.
// Virtual time advances only through the cost model: computation
// (Proc.Advance), message send/receive CPU overheads, and network
// latency/bandwidth. This lets the harness reproduce the paper's
// per-processor time breakdowns (idle, messaging, scheduling, callback,
// polling-thread, partition-calculation, synchronization) on a laptop.
package sim

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"runtime/debug"
	"sort"
	"strings"

	"prema/internal/substrate"
)

// Config parameterizes an Engine.
type Config struct {
	// Network is the interconnect cost model. nil runs the paper's Fast
	// Ethernet (substrate.DefaultNetwork); any other value is copied at
	// NewEngine and used as written, so &substrate.Network{} is free.
	Network *substrate.Network
	// Seed seeds the per-processor deterministic RNG streams (Proc.Rand
	// draws from seed+ID).
	Seed int64
	// Shards is the number of parallel event-loop shards (<= 1 = serial).
	// Output is byte-identical for every value; more shards trade
	// per-window barrier overhead for parallelism, and which side wins is
	// what the benchmark's sim.s2_speedup row measures (below 1 on two
	// cores). Sharding requires a positive Network.Latency for lookahead;
	// on a network with Latency 0, &substrate.Network{} included, the
	// engine silently runs serial.
	Shards int
	// Partition maps a processor ID to the shard that owns it (0 <=
	// result < shards). nil selects the round-robin default (id % shards).
	// Like Shards it never changes output: the (time, ord) event ordering
	// key is partition-invariant, so every assignment gives the same bytes
	// (TestRandomPartitionMatchesSerial feeds random maps, empty shards
	// included). The function must be pure and is called once per processor
	// at Spawn.
	Partition func(id, shards int) int
	// FixedWindows disables adaptive windows: every coordination round
	// dispatches the same window, one latency wide from the globally
	// earliest event, to every shard. It is the reference the adaptive rule
	// is tested against (TestAdaptiveWindowsMatchFixed: identical output, no
	// more barrier rounds); no driver or CLI sets it.
	FixedWindows bool
	// Lockstep keeps every processor on its shard's clock: an Advance that
	// no event can interrupt parks until the event loop reaches its end
	// instead of running ahead (Proc.skipTo). Output is identical either
	// way while processors share nothing outside the simulated network.
	// internal/bench sets it for -recover, whose recovery store is host
	// memory every processor reads: a processor running ahead could see a
	// peer's write from its own future.
	Lockstep bool
}

// Engine owns the simulated machine: configuration, the set of processors,
// and the shard event loops that execute them. Create one with NewEngine,
// add processors with Spawn, then call Run.
type Engine struct {
	cfg     Config
	look    Time // conservative lookahead: the network's link latency
	procs   []*Proc
	assign  []int // processor ID -> owning shard (partition map)
	shards  []*shard
	running bool // true while Run executes
	err     error

	// Sharded-mode coordinator state, built at Run: owns[s] says whether
	// shard s owns any processor (only those can send); next/ends are
	// scratch for the per-round window computation. mail is the exchange's
	// reusable batch buffer. rounds counts coordination rounds (barriers),
	// the quantity adaptive windows exist to shrink.
	owns   []bool
	next   []Time
	ends   []Time
	mail   []heapEntry
	rounds uint64
}

// maxTime is the "no bound" window end for the serial fast path.
const maxTime = Time(math.MaxInt64)

// NewEngine returns an engine with the given configuration.
func NewEngine(cfg Config) *Engine {
	net := substrate.DefaultNetwork()
	if cfg.Network != nil {
		net = *cfg.Network
	}
	cfg.Network = &net
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if net.Latency <= 0 {
		// No positive lookahead: conservative windows would have zero
		// width. Run serial; output is identical either way.
		cfg.Shards = 1
	}
	e := &Engine{
		cfg:  cfg,
		look: net.Latency,
	}
	e.shards = make([]*shard, cfg.Shards)
	for i := range e.shards {
		e.shards[i] = newShard(e, i, cfg.Shards)
		if !cfg.Lockstep {
			e.shards[i].ahead = e.look
		}
	}
	return e
}

// EventsFired returns the total number of events executed so far, summed
// over shards. Read it after Run (or from serial simulation context).
func (e *Engine) EventsFired() uint64 {
	var n uint64
	for _, s := range e.shards {
		n += s.fired
	}
	return n
}

// Transfers returns the number of times an event loop switched into a
// processor body, summed over shards: the count of hand-off round trips, at
// most one per fired event (about one for every four on wide_fine). It
// repeats exactly for a given configuration but, unlike EventsFired, depends
// on the shard count and Config.Lockstep: an Advance that no event can
// interrupt skips the switch (Proc.skipTo), and what can interrupt it
// depends on what its shard's heap holds. Read it after Run.
func (e *Engine) Transfers() uint64 {
	var n uint64
	for _, s := range e.shards {
		n += s.transfers
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
// an adaptive one on the same workload measures what adaptive windows save.
func (e *Engine) BarrierRounds() uint64 { return e.rounds }

// shardOf returns the shard owning processor id.
func (e *Engine) shardOf(id int) int { return e.assign[id] }

// Now returns the engine's notion of current virtual time: the latest
// clock of any shard or processor. After Run that is the instant of the
// last event, even when the last processor ran ahead of its shard's loop to
// finish. Processor bodies should use Proc.Now, their own clock; Engine.Now
// is for drivers before and after Run.
func (e *Engine) Now() Time {
	var t Time
	for _, s := range e.shards {
		t = max(t, s.now)
	}
	for _, p := range e.procs {
		t = max(t, p.now)
	}
	return t
}

// NumProcs returns the number of spawned processors.
func (e *Engine) NumProcs() int { return len(e.procs) }

// Proc returns processor i.
func (e *Engine) Proc(i int) *Proc { return e.procs[i] }

// Spawn creates a simulated processor whose behaviour is body. The
// processor starts executing when virtual time reaches the moment of the
// Spawn call (normally time zero, before Run; inside a running body, the
// caller's clock). Processor IDs are assigned densely in spawn order. On a
// sharded engine all Spawn calls must precede Run.
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
	p := &Proc{id: id, name: name, sh: s, now: s.now, inflight: arrivals{first: maxTime}}
	if e.running {
		p.now = s.cur.now // serial: s runs the caller
	}
	e.procs = append(e.procs, p)
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil && r != errKilled && s.err == nil {
				s.err = fmt.Errorf("sim: processor %q panicked: %v\n%s", p.name, r, debug.Stack())
				s.now = max(s.now, p.now) // the teardown instant is the panic's
			}
			p.done = true
			p.finishedAt = p.now
		}()
		body(p)
	})
	s.atWake(p.now, p)
	return p
}

// ErrDeadlock is returned (wrapped) by Run when the event queue drains while
// some processors are still blocked.
var ErrDeadlock = errors.New("sim: deadlock")

// Run executes the simulation until every event queue is empty or a
// processor panics. It returns an error on panic or deadlock
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
	if len(stuck) > 0 {
		sort.Strings(stuck)
		return fmt.Errorf("%w: %d processors still blocked: %s",
			ErrDeadlock, len(stuck), strings.Join(stuck, ", "))
	}
	return nil
}

// runSharded is the conservative parallel loop: one persistent worker
// goroutine per shard, per-shard window ends computed each round, mailbox
// exchange and a full barrier between rounds. The coordinator (this
// goroutine) only touches shard state while every worker is parked at the
// barrier, so the whole machine needs no locks — the channels'
// happens-before edges carry all cross-shard visibility.
func (e *Engine) runSharded() {
	S := len(e.shards)
	e.owns, e.next, e.ends = make([]bool, S), make([]Time, S), make([]Time, S)
	for _, sh := range e.assign {
		e.owns[sh] = true
	}
	for _, s := range e.shards {
		s.start = make(chan Time)
		s.done = make(chan struct{}, 1)
		go s.work()
	}
	for {
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
				e.next[i] = at
				any = true
			} else {
				e.next[i] = maxTime
			}
		}
		if !any {
			break // every heap and mailbox is empty: simulation over
		}
		e.rounds++
		if e.cfg.FixedWindows {
			base := maxTime
			for _, t := range e.next {
				if t < base {
					base = t
				}
			}
			for i := range e.ends {
				e.ends[i] = base + e.look
			}
		} else {
			e.setWindows()
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

// setWindows computes the per-shard window ends for one coordination round
// from e.next, the head of every shard's heap after the exchange (maxTime =
// idle). Write L for the link latency, O for the shards that own at least
// one processor — only those can send — g and g2 for the smallest and
// second-smallest next[s] over O, and m for the shard holding g.
//
// Safety. B[s] = min(next[s], g+L) lower-bounds every event an owner s will
// ever fire: its pending ones are at or after next[s], and anything else is
// triggered by a delivery, which departs no earlier than g and spends at
// least L in flight. B[m] is g itself (nothing reaches m before g+L). A
// delivery into d therefore arrives at or after min over s != d of B[s] + L.
// For d != m that minimum is B[m] + L = g + L. For m the senders are the
// other owners, whose smallest B is min(g2, g+L): end[m] = min(g2, g+L) + L.
// So an idle peer that owns processors still bounds the leader at g + 2L —
// it can be woken at g+L and answer by g+2L. Only a shard that owns no
// processor never constrains anyone, and when at most one shard owns any
// there is no cross-shard traffic at all: every window is unbounded.
//
// Progress. Shard m holds the globally earliest sender-side event and
// end[m] > g, so each round fires at least one event.
func (e *Engine) setWindows() {
	g, g2, m, owners := maxTime, maxTime, -1, 0
	for s, t := range e.next {
		if !e.owns[s] {
			continue
		}
		owners++
		if t < g {
			g2, g, m = g, t, s
		} else if t < g2 {
			g2 = t
		}
	}
	for d := range e.ends {
		switch {
		case !e.owns[d] || owners == 1 || m < 0:
			e.ends[d] = maxTime
		case d == m:
			e.ends[d] = min(g2, g+e.look) + e.look
		default:
			e.ends[d] = g + e.look
		}
	}
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
				e.procs[ent.m.Dst].inflight.push(ent.at)
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

// teardown stops the coroutine of every processor that has not finished, so
// none leaks past Run: a parked body unwinds through its defers (its yield
// reports false, see Proc.park), one that never started is released unrun.
// A parked processor's clock first catches up with its shard's, the instant
// the run ended, unless it had already run ahead of it. It runs after every
// shard worker has quiesced, so the sequential stops below are race-free.
func (e *Engine) teardown() {
	for _, p := range e.procs {
		if !p.done {
			p.now = max(p.now, p.sh.now)
			p.stop()
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
