// Package ilb implements PREMA's load balancing framework (Barker,
// Chernikov, Chrisochoides, Pingali — "Architecture and evaluation of a load
// balancing framework for adaptive and asynchronous applications", IEEE TPDS
// 2003): a message-driven work-unit scheduler over the mobile object layer,
// with pluggable load balancing policies and two dissemination/decision
// modes:
//
//   - Explicit: load balancer messages are received and acted upon only at
//     application-posted polling operations — between work units.
//   - Implicit (preemptive): a polling thread wakes at a fixed period even
//     while a work unit is computing, drains system-tagged (load balancer)
//     messages, and lets the policy act immediately. Application messages
//     stay queued until an application poll, preserving the single-threaded
//     programming model (paper §4.2).
package ilb

import (
	"math"
	"slices"

	"prema/internal/dmcs"
	"prema/internal/mol"
	"prema/internal/recov"
	"prema/internal/substrate"
	"prema/internal/trace"
)

// Mode selects how load balancer messages get processed.
type Mode int

const (
	// Explicit processes balancer traffic only at application polls.
	Explicit Mode = iota
	// Implicit preempts running work units at PollInterval to process
	// balancer traffic.
	Implicit
)

func (m Mode) String() string {
	if m == Implicit {
		return "implicit"
	}
	return "explicit"
}

// Config tunes the scheduler.
type Config struct {
	// Mode is the dissemination/decision mode (see Mode).
	Mode Mode
	// WaterMark is the estimated-load threshold (seconds of hinted work)
	// below which the policy's OnLowLoad fires in explicit mode. In implicit
	// mode the water-mark is de-emphasized (paper §4.2): balancing triggers
	// when the processor begins its last queued unit, whatever the hints say.
	WaterMark float64
	// PollInterval is the implicit-mode polling thread period.
	PollInterval substrate.Time
	// PollEvery is how many work units the application executes between
	// posted polling operations while it has work (it always polls when
	// idle). 1 (the default) polls between every unit; larger values model
	// applications whose well-tuned inner loops hand control to the runtime
	// only occasionally — the regime where explicit load balancing decays
	// and preemptive (implicit) processing shines (paper §§3-4).
	PollEvery int
}

// DefaultConfig returns the configuration used in the experiments.
func DefaultConfig(mode Mode) Config {
	return Config{
		Mode:         mode,
		WaterMark:    10,
		PollInterval: 10 * substrate.Millisecond,
		PollEvery:    1,
	}
}

const (
	// pollCost is the CPU cost of one polling-thread wake-up.
	pollCost = 4 * substrate.Microsecond
	// scheduleCPU is scheduler bookkeeping charged per executed unit.
	scheduleCPU = 3 * substrate.Microsecond
	// idleTick bounds how long an idle processor blocks before re-engaging
	// the policy.
	idleTick = 50 * substrate.Millisecond
)

// Unit is one schedulable work unit: an in-order mol message waiting to run
// its handler on a local object.
type Unit struct {
	Obj *mol.Object
	Env *mol.Envelope
	// stolen marks units packed into a migration; the dequeuer skips them.
	stolen bool
}

// Weight returns the unit's hinted computational weight in seconds.
func (u *Unit) Weight() float64 { return u.Env.Weight }

// Stats counts scheduler activity on one processor.
type Stats struct {
	UnitsRun      int
	UnitsEnqueued int
	UnitsStolenIn int
	PollWakes     int
}

// Policy is a pluggable dynamic load balancing strategy. Implementations
// register their own system-message handlers in Setup (identical
// registration order across processors, as everywhere in the stack).
type Policy interface {
	// Setup is called once per processor before the run starts.
	Setup(s *Scheduler)
	// OnLowLoad fires when the local estimated load crosses below the
	// water-mark (explicit mode) or when the processor starts its last
	// queued unit (implicit mode).
	OnLowLoad(s *Scheduler)
	// OnIdle fires when the processor has no local work at all.
	OnIdle(s *Scheduler)
	// OnPoll fires at every application-posted poll; periodic policies
	// (diffusion, multilist reposting) hang their timers here.
	OnPoll(s *Scheduler)
}

// NopPolicy is a Policy that never balances (the "no load balancing"
// baseline).
type NopPolicy struct{}

// Setup implements Policy.
func (NopPolicy) Setup(*Scheduler) {}

// OnLowLoad implements Policy.
func (NopPolicy) OnLowLoad(*Scheduler) {}

// OnIdle implements Policy.
func (NopPolicy) OnIdle(*Scheduler) {}

// OnPoll implements Policy.
func (NopPolicy) OnPoll(*Scheduler) {}

// Scheduler is the processor-local ILB runtime: it owns the work-unit queue,
// drives polling, executes units, and invokes the policy.
type Scheduler struct {
	l      *mol.Layer
	c      *dmcs.Comm
	p      substrate.Endpoint
	cfg    Config
	policy Policy
	tr     *trace.Recorder

	queue     []*Unit
	qhead     int
	load      float64 // sum of hinted weights of queued (unstolen) units
	current   *Unit   // unit whose handler is executing, if any
	sincePoll int     // units executed since the last posted poll
	stopped   bool

	stealable []*mol.Object // StealableObjects' result, reused from call to call

	// Crash recovery (nil / empty unless AttachRecov was called).
	rp     *recov.Proc
	onDown []func(recov.Down)

	Stats Stats
}

// New builds a scheduler over a MOL endpoint and wires the MOL delivery sink
// and migration hooks to the scheduler's queue.
func New(l *mol.Layer, cfg Config, policy Policy) *Scheduler {
	s := &Scheduler{l: l, c: l.Comm(), p: l.Proc(), cfg: cfg, policy: policy, tr: trace.Of(l.Proc())}
	l.SetDeliver(func(_ *mol.Layer, obj *mol.Object, env *mol.Envelope) {
		s.enqueue(&Unit{Obj: obj, Env: env})
	})
	l.OnMigrateOut = func(obj *mol.Object) any {
		return s.packUnits(obj)
	}
	l.OnMigrateIn = func(obj *mol.Object, extra any) {
		if extra == nil {
			return
		}
		for _, env := range extra.([]*mol.Envelope) {
			s.Stats.UnitsStolenIn++
			s.enqueue(&Unit{Obj: obj, Env: env})
		}
	}
	policy.Setup(s)
	return s
}

// Mol returns the underlying mobile object layer.
func (s *Scheduler) Mol() *mol.Layer { return s.l }

// Comm returns the underlying DMCS endpoint.
func (s *Scheduler) Comm() *dmcs.Comm { return s.c }

// Proc returns the underlying substrate endpoint.
func (s *Scheduler) Proc() substrate.Endpoint { return s.p }

// Stopped reports whether Stop has been called.
func (s *Scheduler) Stopped() bool { return s.stopped }

// Message sends a work-unit message to the object named by mp: handler h
// runs at the object's current host when the scheduler there picks the unit.
// weight is the hinted computational weight in seconds (may be inaccurate —
// that is the adaptive regime the framework is built for).
func (s *Scheduler) Message(mp mol.MobilePtr, h mol.HandlerID, data any, size int, weight float64) {
	s.l.Message(mp, h, data, size, substrate.TagApp, weight)
}

func (s *Scheduler) enqueue(u *Unit) {
	s.queue = append(s.queue, u)
	s.load += u.Weight()
	s.Stats.UnitsEnqueued++
}

// dequeue pops the oldest unstolen unit, or nil.
func (s *Scheduler) dequeue() *Unit {
	for s.qhead < len(s.queue) {
		u := s.queue[s.qhead]
		s.queue[s.qhead] = nil
		s.qhead++
		if s.qhead == len(s.queue) {
			s.queue = s.queue[:0]
			s.qhead = 0
		}
		if u.stolen {
			continue
		}
		s.load -= u.Weight()
		return u
	}
	return nil
}

// QueueLen returns the number of queued, unstolen units.
func (s *Scheduler) QueueLen() int {
	n := 0
	for _, u := range s.queue[s.qhead:] {
		if u != nil && !u.stolen {
			n++
		}
	}
	return n
}

// Load returns the estimated queued load in hinted seconds. The executing
// unit is excluded: once started it cannot migrate, so it is not balanceable
// load.
func (s *Scheduler) Load() float64 { return math.Max(s.load, 0) }

// StealableObjects returns distinct locally resident objects that have
// queued (unstolen) work, newest-queued first — the natural donation order
// for a victim (oldest work stays local, freshest work migrates). The slice
// is the scheduler's own: a caller may reorder it, and it is valid until the
// next call.
func (s *Scheduler) StealableObjects() []*mol.Object {
	out := s.stealable[:0]
	for i := len(s.queue) - 1; i >= s.qhead; i-- {
		u := s.queue[i]
		if u == nil || u.stolen {
			continue
		}
		if s.current != nil && u.Obj == s.current.Obj {
			continue // executing object cannot migrate
		}
		if !slices.ContainsFunc(out, func(o *mol.Object) bool { return o.MP == u.Obj.MP }) {
			out = append(out, u.Obj)
		}
	}
	s.stealable = out
	return out
}

// QueuedWeight returns the hinted weight queued for one object.
func (s *Scheduler) QueuedWeight(obj *mol.Object) float64 {
	w := 0.0
	for _, u := range s.queue[s.qhead:] {
		if u != nil && !u.stolen && u.Obj == obj {
			w += u.Weight()
		}
	}
	return w
}

// packUnits extracts all queued units targeting obj for migration.
func (s *Scheduler) packUnits(obj *mol.Object) []*mol.Envelope {
	var envs []*mol.Envelope
	for _, u := range s.queue[s.qhead:] {
		if u != nil && !u.stolen && u.Obj == obj {
			u.stolen = true
			s.load -= u.Weight()
			envs = append(envs, u.Env)
		}
	}
	return envs
}

// Stop makes Run return after the current iteration. Typically invoked from
// a system-message handler carrying the application's termination broadcast.
func (s *Scheduler) Stop() { s.stopped = true }

// Poll is the application-posted polling operation (paper §4): it receives
// and processes all pending messages (application work-unit messages are
// enqueued; system messages invoke the policy), then evaluates the local
// load level against the water-mark.
func (s *Scheduler) Poll() {
	s.c.Poll()
	if s.stopped {
		return
	}
	s.policy.OnPoll(s)
	s.checkLoad()
}

func (s *Scheduler) checkLoad() {
	if s.stopped {
		return
	}
	switch s.cfg.Mode {
	case Explicit:
		if s.Load() < s.cfg.WaterMark {
			s.tr.Instant(trace.EvPolicy, s.p.Now(), trace.PolLowLoad, 0, 0)
			s.policy.OnLowLoad(s)
		}
	case Implicit:
		if s.QueueLen() == 0 {
			s.tr.Instant(trace.EvPolicy, s.p.Now(), trace.PolLowLoad, 0, 0)
			s.policy.OnLowLoad(s)
		}
	}
}

// Compute consumes d of application computation time. Application work-unit
// handlers must use Compute rather than raw Proc.Advance: in implicit mode
// the polling thread interrupts the computation every PollInterval to drain
// system-tagged balancer messages preemptively. In reliable mode each of
// those PollTags also ticks the transport (ack flushing and retransmission),
// so a processor deep inside a long work unit still repairs lost messages.
//
// The quiet polls in between — nothing queued, no retransmission due — do
// nothing but cost pollCost, so the substrate is told the whole stretch at
// once (Endpoint.AdvancePolled) and comes back at the first poll that has
// work; when it declines, one slice and one poll are stepped through the
// top of the stack.
func (s *Scheduler) Compute(d substrate.Time) {
	// A long unit must not expire our own lease: pre-extend it to cover the
	// whole computation before burning the time.
	if s.rp != nil {
		s.rp.Extend(s.p.Now() + d)
	}
	if s.cfg.Mode == Explicit {
		s.p.Advance(d, substrate.CatCompute)
		return
	}
	ps := substrate.PollSpec{
		Interval: s.cfg.PollInterval,
		Cost:     pollCost,
		Tag:      substrate.TagSystem,
		AnyTag:   s.c.Reliable(), // its pump drains every tag
	}
	for d > 0 {
		// An empty poll acts only once a retransmission deadline has
		// passed, or once the recovery heartbeat it runs has work.
		ps.WakeBy = s.c.NextDeadline(substrate.TagSystem)
		if s.rp != nil {
			ps.WakeBy = min(ps.WakeBy, s.rp.NextAct())
		}
		done, polls := s.p.AdvancePolled(d, ps)
		if done == 0 {
			done, polls = substrate.StepPolled(s.p, d, ps)
		}
		d -= done
		s.Stats.PollWakes += polls
		if d > 0 {
			s.c.PollTag(substrate.TagSystem)
			s.recovTick()
		}
	}
}

// execute runs one work unit to completion.
func (s *Scheduler) execute(u *Unit) {
	id := recov.ObjID{Home: u.Obj.MP.Home, Index: u.Obj.MP.Index}
	if s.rp != nil && !s.rp.BeginUnit(id, u.Env.Origin, u.Env.Seq) {
		// Already executed before a crash (durable in the done watermark):
		// a replayed duplicate, skipped to keep execution exactly-once.
		return
	}
	s.p.Advance(scheduleCPU, substrate.CatScheduling)
	s.current = u
	s.Stats.UnitsRun++
	key := trace.ObjKey(u.Obj.MP.Home, u.Obj.MP.Index)
	t0 := s.p.Now()
	s.tr.Instant(trace.EvUnitBegin, t0, key, int64(u.Env.Origin), int64(u.Env.Seq))
	s.l.Dispatch(u.Obj, u.Env)
	if s.rp != nil {
		// Record the execution synchronously — before any further substrate
		// interaction — so a fail-stop can never forget the unit ran.
		s.rp.FinishUnit(id, u.Env.Origin, u.Env.Seq)
	}
	s.tr.Interval(trace.EvUnitEnd, t0, s.p.Now(), key, int64(u.Env.Origin), int64(u.Env.Seq))
	s.current = nil
}

// Step performs one scheduler iteration: poll, then run one unit if
// available, otherwise report idleness to the policy and block briefly.
// It returns false once the scheduler has been stopped.
func (s *Scheduler) Step() bool {
	if s.stopped {
		return false
	}
	s.recovTick()
	every := s.cfg.PollEvery
	if every < 1 {
		every = 1
	}
	if s.sincePoll >= every || s.QueueLen() == 0 {
		s.sincePoll = 0
		s.Poll()
	}
	if s.stopped {
		return false
	}
	if u := s.dequeue(); u != nil {
		// Implicit mode de-emphasizes the water-mark: balancing starts the
		// moment the processor begins its LAST queued unit (paper §4.2), so
		// replacement work can arrive while that unit still computes.
		if s.cfg.Mode == Implicit && s.QueueLen() == 0 {
			s.tr.Instant(trace.EvPolicy, s.p.Now(), trace.PolLowLoad, 0, 0)
			s.policy.OnLowLoad(s)
		}
		s.execute(u)
		s.sincePoll++
		s.checkLoad()
		return true
	}
	s.tr.Instant(trace.EvPolicy, s.p.Now(), trace.PolIdle, 0, 0)
	s.policy.OnIdle(s)
	if s.stopped {
		return false
	}
	// Idle wait doubles as the reliable transport's retransmission timer:
	// in dmcs reliable mode, WaitPollFor wakes early for expired streams
	// and retransmits before going back to sleep, so an idle processor
	// repairs lost messages without a dedicated thread. (The polling
	// thread's PollTag does the same during long computations.)
	s.c.WaitPollFor(idleTick, substrate.CatIdle)
	return true
}

// Run drives the scheduler until Stop is called.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}
