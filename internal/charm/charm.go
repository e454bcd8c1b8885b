// Package charm reimplements the runtime model of Charm++ (Kalé & Krishnan,
// OOPSLA 1993) closely enough to evaluate the paper's comparison: a chare
// array whose elements are driven by entry-method messages selected by a
// per-processor pick-and-process loop, a load balancing database fed by
// runtime measurement of entry executions, an AtSync() barrier, and plug-in
// central load balancing strategies (Greedy and Refine — see
// strategies.go).
//
// Two properties matter for the paper's argument and are modeled exactly:
//
//  1. Entry methods execute atomically: the pick-and-process loop never
//     preempts a running method, so balancer messages wait behind coarse
//     grained work (paper §3.2).
//  2. Load prediction is measurement-based: the database records what each
//     chare cost in the previous LB interval and assumes persistence (the
//     "principle of persistent computation and communication structure") —
//     which misfires for highly adaptive applications.
package charm

import (
	"fmt"
	"sort"

	"prema/internal/dmcs"
	"prema/internal/substrate"
)

// EntryID names a registered entry method.
type EntryID int

// EntryMethod is an entry-method body. It runs atomically at the chare's
// current host; src is the invoking processor.
type EntryMethod func(rt *Runtime, c *Chare, src int, data any)

// Chare is one element of the chare array.
type Chare struct {
	Index int
	Data  any
	// Size is the modeled serialized size in bytes (migration cost).
	Size int
	// measured accumulates virtual seconds of entry execution since the
	// last load balancing step — the LB database's view of this chare.
	measured float64
	synced   bool
	resume   EntryID
}

const (
	// schedCPU is pick-and-process overhead charged per scheduled message.
	schedCPU = 5 * substrate.Microsecond
	// strategyCPUPerChare prices the central strategy computation at the
	// root, charged per database record.
	strategyCPUPerChare = 2 * substrate.Microsecond
	// migrateFixed is fixed per-chare migration overhead in bytes.
	migrateFixed = 64
	// idleTick bounds idle blocking in the scheduler loop.
	idleTick = 50 * substrate.Millisecond
)

// ChareLoad is one database record shipped to the central strategy.
type ChareLoad struct {
	Index int
	Proc  int
	Load  float64 // measured seconds over the last interval
}

// Strategy computes a new chare->processor mapping from measured loads.
// Implementations must be deterministic.
type Strategy interface {
	// Remap returns the new processor for every chare index it wants to
	// (re)place; omitted indices stay put. nprocs is the machine size.
	Remap(loads []ChareLoad, nprocs int) map[int]int
}

// Wire message payloads.
type invokeMsg struct {
	Index int
	Entry EntryID
	Data  any
	Size  int
	Src   int
	Hops  int
}

type contributionMsg struct {
	Proc  int
	Loads []ChareLoad
}

type migrateMsg struct{ Chare *Chare }

// Runtime is one processor's Charm-style runtime.
type Runtime struct {
	p substrate.Endpoint
	c *dmcs.Comm
	// strategy is the central load balancing strategy invoked at AtSync
	// barriers; nil disables rebalancing (AtSync still synchronizes).
	strategy Strategy

	entries []EntryMethod
	chares  map[int]*Chare
	loc     []int // replicated best-known chare->proc mapping
	queue   []*invokeMsg

	// AtSync barrier state.
	arraySize      int
	syncedCount    int
	lbWaiting      bool
	contributions  map[int]contributionMsg // root: keyed by contributor
	expectArrive   int
	arrived        int
	mappingSeen    bool
	inEntry        bool
	needContribute bool

	stopped bool

	hInvoke     dmcs.HandlerID
	hContribute dmcs.HandlerID
	hMapping    dmcs.HandlerID
	hMigrate    dmcs.HandlerID
	hStop       dmcs.HandlerID

	Stats Stats
}

// Stats counts runtime activity on one processor.
type Stats struct {
	EntriesRun   int
	LBSteps      int
	CharesMoved  int
	ForwardHops  int
	SyncWaitTime substrate.Time
}

// NewRuntime builds a Charm-style runtime on one processor's endpoint,
// balancing with strategy at AtSync barriers (nil: never rebalance). SPMD
// discipline applies: all processors construct runtimes and register entry
// methods in the same order.
func NewRuntime(p substrate.Endpoint, strategy Strategy) *Runtime {
	rt := &Runtime{p: p, c: dmcs.New(p), strategy: strategy,
		chares: make(map[int]*Chare), contributions: make(map[int]contributionMsg)}
	rt.hInvoke = rt.c.Register(func(c *dmcs.Comm, src int, data any, size int) {
		rt.enqueue(data.(*invokeMsg))
	})
	rt.hContribute = rt.c.Register(func(c *dmcs.Comm, src int, data any, size int) {
		m := data.(contributionMsg)
		rt.contributions[m.Proc] = m
		rt.maybeRunStrategy()
	})
	rt.hMapping = rt.c.Register(func(c *dmcs.Comm, src int, data any, size int) {
		rt.applyMapping(data.([]int))
	})
	rt.hMigrate = rt.c.Register(func(c *dmcs.Comm, src int, data any, size int) {
		ch := data.(migrateMsg).Chare
		rt.chares[ch.Index] = ch
		rt.arrived++
		rt.maybeFinishLB()
	})
	rt.hStop = rt.c.Register(func(c *dmcs.Comm, src int, data any, size int) {
		rt.stopped = true
	})
	return rt
}

// Comm returns the underlying active-message endpoint for application use
// (e.g. completion notifications in the benchmark).
func (rt *Runtime) Comm() *dmcs.Comm { return rt.c }

// RegisterEntry installs an entry method; registration order must match on
// every processor.
func (rt *Runtime) RegisterEntry(fn EntryMethod) EntryID {
	rt.entries = append(rt.entries, fn)
	return EntryID(len(rt.entries) - 1)
}

// CreateArray creates an n-element chare array, block-mapped over the
// processors (the runtime's initial placement). Every processor calls
// CreateArray with the same arguments; each instantiates only its local
// elements, with data(i) supplying element state and serialized size.
func (rt *Runtime) CreateArray(n int, data func(index int) (state any, size int)) {
	rt.arraySize = n
	rt.loc = make([]int, n)
	np := rt.p.NumPeers()
	for i := 0; i < n; i++ {
		owner := i * np / n
		rt.loc[i] = owner
		if owner == rt.p.ID() {
			d, size := data(i)
			rt.chares[i] = &Chare{Index: i, Data: d, Size: size, resume: -1}
		}
	}
}

// Local returns the indices of locally resident chares, ascending.
func (rt *Runtime) Local() []int {
	idx := make([]int, 0, len(rt.chares))
	for i := range rt.chares {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	return idx
}

// Invoke sends an entry-method message to chare index (a proxy send).
func (rt *Runtime) Invoke(index int, e EntryID, data any, size int) {
	m := &invokeMsg{Index: index, Entry: e, Data: data, Size: size, Src: rt.p.ID()}
	if rt.chares[index] != nil {
		rt.queue = append(rt.queue, m)
		return
	}
	rt.c.Send(rt.loc[index], rt.hInvoke, m, size+32)
}

// enqueue accepts an arriving invocation, forwarding if the chare moved.
func (rt *Runtime) enqueue(m *invokeMsg) {
	if rt.chares[m.Index] == nil {
		m.Hops++
		rt.Stats.ForwardHops++
		if m.Hops > 1<<12 {
			panic(fmt.Sprintf("charm: routing loop for chare %d", m.Index))
		}
		rt.c.Send(rt.loc[m.Index], rt.hInvoke, m, m.Size+32)
		return
	}
	rt.queue = append(rt.queue, m)
}

// Compute consumes entry-method CPU. Execution is atomic: there is no
// polling thread, so nothing else is processed until the entry returns.
func (rt *Runtime) Compute(d substrate.Time) { rt.p.Advance(d, substrate.CatCompute) }

// AtSync signals that chare c reached a load balancing point; it resumes
// via the given entry once balancing completes (Charm++'s ResumeFromSync).
// When every local chare has synced, the processor contributes its
// measurements to the central strategy on processor 0.
func (rt *Runtime) AtSync(c *Chare, resume EntryID) {
	if c.synced {
		return
	}
	c.synced = true
	c.resume = resume
	rt.syncedCount++
	if rt.syncedCount == len(rt.chares) {
		// AtSync is normally the last call of an entry method; the entry's
		// execution time must land in the database before contributing, so
		// defer until the entry returns (Charm++ likewise contributes from
		// the scheduler, not from inside the entry).
		if rt.inEntry {
			rt.needContribute = true
		} else {
			rt.contribute()
		}
	}
}

func (rt *Runtime) contribute() {
	rt.lbWaiting = true
	loads := make([]ChareLoad, 0, len(rt.chares))
	for _, i := range rt.Local() {
		loads = append(loads, ChareLoad{Index: i, Proc: rt.p.ID(), Load: rt.chares[i].measured})
	}
	msg := contributionMsg{Proc: rt.p.ID(), Loads: loads}
	if rt.p.ID() == 0 {
		rt.contributions[0] = msg
		rt.maybeRunStrategy()
		return
	}
	rt.c.Send(0, rt.hContribute, msg, 16*len(loads)+32)
}

// owners returns (root side) the set of processors that currently own at
// least one chare — the processors whose contributions the reduction waits
// for. Processors stripped of every chare have nothing to sync.
func (rt *Runtime) owners() map[int]bool {
	out := make(map[int]bool)
	for _, p := range rt.loc {
		out[p] = true
	}
	return out
}

// maybeRunStrategy (root only) runs the strategy once every chare-owning
// processor has contributed, then broadcasts and applies the new mapping.
func (rt *Runtime) maybeRunStrategy() {
	if rt.p.ID() != 0 {
		return
	}
	owners := rt.owners()
	for p := range owners {
		if _, ok := rt.contributions[p]; !ok {
			return
		}
	}
	if len(owners) == 0 {
		return
	}
	all := make([]ChareLoad, 0, rt.arraySize)
	for _, c := range rt.contributions {
		all = append(all, c.Loads...)
	}
	rt.contributions = make(map[int]contributionMsg)
	sort.Slice(all, func(i, j int) bool { return all[i].Index < all[j].Index })

	rt.Stats.LBSteps++
	if d := strategyCPUPerChare * substrate.Time(len(all)); d > 0 {
		rt.p.Advance(d, substrate.CatScheduling)
	}
	newLoc := append([]int(nil), rt.loc...)
	if rt.strategy != nil {
		for idx, proc := range rt.strategy.Remap(all, rt.p.NumPeers()) {
			newLoc[idx] = proc
		}
	}
	for i := 1; i < rt.p.NumPeers(); i++ {
		rt.c.Send(i, rt.hMapping, newLoc, 4*len(newLoc)+32)
	}
	rt.applyMapping(newLoc)
}

// applyMapping installs the broadcast mapping, emigrates chares that no
// longer belong here, and records how many must immigrate.
func (rt *Runtime) applyMapping(newLoc []int) {
	old := rt.loc
	rt.loc = append([]int(nil), newLoc...)
	rt.mappingSeen = true
	rt.lbWaiting = true // processors with no chares join the LB window here
	me := rt.p.ID()
	for _, i := range rt.Local() {
		if newLoc[i] != me {
			ch := rt.chares[i]
			delete(rt.chares, i)
			rt.Stats.CharesMoved++
			rt.c.Send(newLoc[i], rt.hMigrate, migrateMsg{ch}, ch.Size+migrateFixed)
		}
	}
	expect := 0
	for i := range newLoc {
		if newLoc[i] == me && old[i] != me {
			expect++
		}
	}
	rt.expectArrive = expect
	rt.maybeFinishLB()
}

// maybeFinishLB completes the LB step once the mapping is known and all
// immigrating chares have arrived: counters reset and every local chare's
// resume entry is scheduled.
func (rt *Runtime) maybeFinishLB() {
	if !rt.mappingSeen || rt.arrived < rt.expectArrive {
		return
	}
	rt.lbWaiting = false
	rt.mappingSeen = false
	rt.arrived = 0
	rt.expectArrive = 0
	rt.syncedCount = 0
	for _, i := range rt.Local() {
		c := rt.chares[i]
		c.measured = 0
		c.synced = false
		if c.resume >= 0 {
			rt.queue = append(rt.queue, &invokeMsg{Index: i, Entry: c.resume, Src: rt.p.ID()})
			c.resume = -1
		}
	}
}

// StopAll broadcasts termination to every processor, then stops locally.
func (rt *Runtime) StopAll() {
	for i := 0; i < rt.p.NumPeers(); i++ {
		if i != rt.p.ID() {
			rt.c.Send(i, rt.hStop, nil, 8)
		}
	}
	rt.stopped = true
}

// Step is one pick-and-process iteration. It returns false once stopped.
func (rt *Runtime) Step() bool {
	if rt.stopped {
		return false
	}
	rt.c.Poll()
	if rt.stopped {
		return false
	}
	if len(rt.queue) > 0 && !rt.lbWaiting {
		m := rt.queue[0]
		rt.queue = rt.queue[1:]
		rt.p.Advance(schedCPU, substrate.CatScheduling)
		ch := rt.chares[m.Index]
		if ch == nil {
			rt.enqueue(m) // moved while queued locally: chase it
			return true
		}
		rt.Stats.EntriesRun++
		start := rt.p.Now()
		rt.inEntry = true
		rt.entries[m.Entry](rt, ch, m.Src, m.Data)
		rt.inEntry = false
		ch.measured += (rt.p.Now() - start).Seconds()
		if rt.needContribute {
			rt.needContribute = false
			rt.contribute()
		}
		return true
	}
	start := rt.p.Now()
	rt.p.WaitMsgFor(idleTick, substrate.CatIdle)
	if rt.lbWaiting {
		rt.Stats.SyncWaitTime += rt.p.Now() - start
	}
	return true
}

// Run drives the pick-and-process loop until StopAll, here or on a peer.
func (rt *Runtime) Run() {
	for rt.Step() {
	}
}
