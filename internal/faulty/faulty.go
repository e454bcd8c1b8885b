package faulty

import (
	"math/rand"
	"sort"

	"prema/internal/substrate"
)

// crashSignal is the panic value that tears down a crashed processor's body;
// the Spawn wrapper recovers it so the rest of the machine keeps running.
type crashSignal struct{ proc int }

// Stats counts the faults one endpoint injected. Read it after Run.
type Stats struct {
	Dropped   int
	Dupped    int
	Delayed   int
	Reordered int
	Stalls    int
	Crashed   bool
	Rejoins   int
}

// Add accumulates another endpoint's stats.
func (s *Stats) Add(o Stats) {
	s.Dropped += o.Dropped
	s.Dupped += o.Dupped
	s.Delayed += o.Delayed
	s.Reordered += o.Reordered
	s.Stalls += o.Stalls
	if o.Crashed {
		s.Crashed = true
	}
	s.Rejoins += o.Rejoins
}

// Machine decorates an inner substrate.Machine with deterministic fault
// injection. Build one with Wrap, then use it exactly like the inner
// machine.
type Machine struct {
	substrate.Machine
	plan     Plan
	seed     int64
	eps      []*Endpoint
	onRejoin func(id int) func(substrate.Endpoint)
}

// OnRejoin installs the factory that produces a rejoined processor's body.
// When the plan schedules a `recover:` entry for a crashed processor, the
// Spawn wrapper calls fn(id) at the rejoin time and runs the returned body
// against the same (reset) fault-injecting endpoint — a fresh incarnation
// with an empty inbox. Without a factory, `recover:` entries are ignored and
// a crash stays permanent. Call before Run.
func (f *Machine) OnRejoin(fn func(id int) func(substrate.Endpoint)) { f.onRejoin = fn }

// Wrap returns a fault-injecting view of m. seed drives every injection
// decision: each endpoint derives its own stream (seed+ID), so faulted runs
// on the deterministic simulator are themselves deterministic, and faulted
// runs on the goroutine machine never share unsynchronized state.
func Wrap(m substrate.Machine, plan Plan, seed int64) *Machine {
	return &Machine{Machine: m, plan: plan, seed: seed}
}

// Unwrap returns the decorated machine, so substrate.Find can reach what
// sits beneath the injector: the engine's and the wire loopback's telemetry.
func (f *Machine) Unwrap() substrate.Machine { return f.Machine }

// Spawn implements substrate.Machine. The body runs against a fault-
// injecting endpoint; a scheduled crash unwinds the body early (recovered
// here), modeling a fail-stop processor while the machine keeps running.
func (f *Machine) Spawn(name string, body func(substrate.Endpoint)) {
	id := len(f.eps)
	fe := &Endpoint{
		f:    f,
		id:   id,
		link: f.plan.Default.withDefaults(),
	}
	for l, lf := range f.plan.Links {
		if l.Dst != id {
			continue
		}
		for len(fe.links) <= l.Src {
			fe.links = append(fe.links, fe.link)
		}
		fe.links[l.Src] = lf.withDefaults()
	}
	for _, s := range f.plan.Stalls {
		if s.Proc == id {
			fe.stalls = append(fe.stalls, s)
		}
	}
	sort.Slice(fe.stalls, func(i, j int) bool { return fe.stalls[i].At < fe.stalls[j].At })
	fe.crashAt = -1
	for _, c := range f.plan.Crashes {
		if c.Proc == id && (fe.crashAt < 0 || c.At < fe.crashAt) {
			fe.crashAt = c.At
		}
	}
	for _, r := range f.plan.Recovers {
		if r.Proc == id {
			fe.rejoins = append(fe.rejoins, r)
		}
	}
	sort.Slice(fe.rejoins, func(i, j int) bool { return fe.rejoins[i].At < fe.rejoins[j].At })
	f.eps = append(f.eps, fe)
	f.Machine.Spawn(name, func(ep substrate.Endpoint) {
		fe.Endpoint = ep
		runBody(id, func() { body(fe) })
		// Scheduled rejoins: each crash may be followed by one fresh
		// incarnation running the OnRejoin body.
		for fe.crashed && f.onRejoin != nil {
			t, ok := fe.popRejoin()
			if !ok {
				return
			}
			fe.rejoin(t)
			runBody(id, func() { f.onRejoin(id)(fe) })
		}
	})
}

// runBody runs one incarnation of processor id's body, absorbing the
// crashSignal panic that models its fail-stop (the machine keeps running).
func runBody(id int, body func()) {
	defer func() {
		if r := recover(); r != nil {
			if cs, ok := r.(crashSignal); ok && cs.proc == id {
				return
			}
			panic(r)
		}
	}()
	body()
}

// Stats returns the machine-wide injection totals. Only read it after Run.
func (f *Machine) Stats() Stats {
	var t Stats
	for _, e := range f.eps {
		t.Add(e.stats)
	}
	return t
}

var _ substrate.Machine = (*Machine)(nil)

// rank orders the injector's deliverable messages: by order, which a
// reordering bumps past later arrivals, then by arrival at the injector.
type rank struct{ order, ord uint64 }

func (r rank) Before(o rank) bool { return r.order < o.order || r.order == o.order && r.ord < o.ord }

// Endpoint decorates one processor's substrate.Endpoint. Faults are applied
// on the receive side, as messages are drained from the inner endpoint:
// drop discards, duplicate enqueues twice, delay holds a message beyond its
// network arrival, reorder displaces it behind later arrivals. This keeps
// every decision on the endpoint's own execution context, so injection is
// deterministic on the simulator and race-free on the goroutine machine.
//
// A polled computation elides only the polls at which the injector has
// nothing to do (AdvancePolled); every other poll steps through Advance and
// passes check().
type Endpoint struct {
	// Endpoint is the inner endpoint, set when the processor's body starts.
	substrate.Endpoint

	f  *Machine
	id int
	// rng is the injection stream, private to the decorator; Rand() stays
	// the inner endpoint's.
	rng *rand.Rand
	// link is the fault model of every link into this endpoint without an
	// override, and links[src] that of the link from src (the same model
	// where the plan overrides none); both are resolved at Spawn.
	link  LinkFaults
	links []LinkFaults

	// queue holds what pump drained, delayed messages until their release.
	queue   substrate.Queue[rank]
	nextOrd uint64

	stalls  []Stall // sorted by At; applied and popped in order
	crashAt substrate.Time
	crashed bool
	rejoins []Recover // sorted by At; popped at each rejoin
	stats   Stats
}

// popRejoin consumes the next scheduled rejoin, clamped to the present (a
// rejoin time already in the past fires immediately).
func (e *Endpoint) popRejoin() (substrate.Time, bool) {
	if len(e.rejoins) == 0 {
		return 0, false
	}
	t := e.rejoins[0].At
	e.rejoins = e.rejoins[1:]
	if now := e.Now(); t < now {
		t = now
	}
	return t, true
}

// rejoin resets the endpoint to a fresh incarnation at time t: the clock
// idles forward to t (the processor was down), everything queued at the
// inner endpoint or held by the fault layer while it was dead is discarded
// (a fail-stop loses its inbox), and the crash/stall schedules are re-armed
// for the new incarnation.
func (e *Endpoint) rejoin(t substrate.Time) {
	if d := t - e.Now(); d > 0 {
		e.Endpoint.Advance(d, substrate.CatIdle)
	}
	for e.Endpoint.InboxLen() > 0 {
		if e.Endpoint.TryRecv(substrate.CatMessaging) == nil {
			break
		}
	}
	e.queue = substrate.Queue[rank]{}
	e.crashed = false
	e.stats.Rejoins++
	e.crashAt = -1
	for _, c := range e.f.plan.Crashes {
		if c.Proc == e.id && c.At > t && (e.crashAt < 0 || c.At < e.crashAt) {
			e.crashAt = c.At
		}
	}
	for len(e.stalls) > 0 && e.stalls[0].At <= t {
		e.stalls = e.stalls[1:]
	}
}

var _ substrate.Endpoint = (*Endpoint)(nil)

// check fires due crash and stall events. Every interposed method calls it,
// so scheduled faults take effect at the processor's next substrate
// interaction after their time arrives. With none scheduled it does not
// read the clock, and costs no call.
func (e *Endpoint) check() {
	if len(e.stalls) > 0 || e.crashAt >= 0 && !e.crashed {
		e.fire()
	}
}

// fire is check's slow path.
func (e *Endpoint) fire() {
	now := e.Now()
	if e.crashAt >= 0 && !e.crashed && now >= e.crashAt {
		e.crashed = true
		e.stats.Crashed = true
		panic(crashSignal{proc: e.id})
	}
	for len(e.stalls) > 0 && now >= e.stalls[0].At {
		s := e.stalls[0]
		e.stalls = e.stalls[1:]
		e.stats.Stalls++
		e.Endpoint.Advance(s.For, substrate.CatIdle)
		now = e.Now()
	}
}

// pump drains every message buffered at the inner endpoint, applying the
// link fault model message by message.
func (e *Endpoint) pump() {
	for e.Endpoint.InboxLen() > 0 {
		m := e.Endpoint.TryRecv(substrate.CatMessaging)
		if m == nil {
			return
		}
		lf := &e.link
		if m.Src < len(e.links) {
			lf = &e.links[m.Src]
		}
		if m.Src == e.id || !lf.active() {
			// Loopback traffic never crosses a wire; deliver untouched.
			e.enqueue(m, 0, 0)
			continue
		}
		if e.rng == nil { // built at the first draw: a plan without link faults needs none
			e.rng = rand.New(rand.NewSource(e.f.seed + int64(e.id)))
		}
		if lf.Drop > 0 && e.rng.Float64() < lf.Drop {
			e.stats.Dropped++
			continue
		}
		dup := lf.Dup > 0 && e.rng.Float64() < lf.Dup
		var release substrate.Time
		if lf.Delay > 0 && e.rng.Float64() < lf.Delay {
			e.stats.Delayed++
			release = e.Now() + 1 + substrate.Time(e.rng.Int63n(int64(lf.DelayMax)))
		}
		var bump uint64
		if lf.Reorder > 0 && e.rng.Float64() < lf.Reorder {
			e.stats.Reordered++
			bump = uint64(1+e.rng.Intn(lf.ReorderDepth)) * 2
		}
		e.enqueue(m, release, bump)
		if dup {
			e.stats.Dupped++
			cp := *m
			e.enqueue(&cp, release, 0)
		}
	}
}

// enqueue files m for the application, ranked bump places past its arrival
// and held until release when that is not zero.
func (e *Endpoint) enqueue(m *substrate.Msg, release substrate.Time, bump uint64) {
	k := rank{order: e.nextOrd + bump, ord: e.nextOrd}
	e.nextOrd += 2 // even spacing leaves odd slots for reorder bumps
	if release == 0 {
		e.queue.Push(k, m)
	} else {
		e.queue.Hold(release, k, m)
	}
}

// due releases the held messages whose time has come, reading the clock
// only when one is held.
func (e *Endpoint) due() {
	if e.queue.Held() > 0 {
		e.queue.Release(e.Now())
	}
}

// --- substrate.Endpoint implementation ---

// Advance implements substrate.Endpoint.
func (e *Endpoint) Advance(d substrate.Time, cat substrate.Category) {
	e.check()
	e.Endpoint.Advance(d, cat)
}

// AdvancePolled implements substrate.Endpoint. The stretch it forwards ends
// before any poll at which this layer would act, so every check() and
// pump() happens at the instant it happens in a stepped run:
//   - the inner advance wakes for an arrival of any tag (AnyTag), because
//     the poll's receive pumps every message and draws its faults then;
//   - it wakes one poll period before the next stall or the crash, so the
//     slice and poll in which either fires are stepped through Advance;
//   - it wakes at the release of a held message the poll would take.
//
// When the earliest of these is not in the future it declines, and the
// caller steps. Nothing is pumped or checked here: a pump would move receive
// CPU off the poll that pays it, and a stall fired here would land in the
// span a tracer above has already begun instead of in the slice's.
func (e *Endpoint) AdvancePolled(d substrate.Time, ps substrate.PollSpec) (substrate.Time, int) {
	period, wake := ps.Interval+ps.Cost, ps.WakeBy
	if len(e.stalls) > 0 {
		wake = min(wake, e.stalls[0].At-period)
	}
	if e.crashAt >= 0 && !e.crashed {
		wake = min(wake, e.crashAt-period)
	}
	now := e.Now()
	e.queue.Release(now)
	if e.queue.Peek(ps) != nil {
		wake = now
	}
	ps.AnyTag, ps.WakeBy = true, min(wake, e.queue.NextRelease(ps))
	if !ps.Elides(d, now) {
		return 0, 0
	}
	return e.Endpoint.AdvancePolled(d, ps)
}

// Send implements substrate.Endpoint. Faults are charged to the receiving
// side, so sends pass through untouched (the sender still pays its send CPU
// for messages the network will lose — as on a real wire).
func (e *Endpoint) Send(m *substrate.Msg, cat substrate.Category) {
	e.check()
	e.Endpoint.Send(m, cat)
}

// InboxLen implements substrate.Endpoint. Held (delayed) messages have not
// "arrived" yet and are not counted.
func (e *Endpoint) InboxLen() int {
	e.check()
	e.pump()
	e.due()
	return e.queue.Len()
}

// TryRecv implements substrate.Endpoint.
func (e *Endpoint) TryRecv(cat substrate.Category) *substrate.Msg { return e.recv(0, true) }

// TryRecvTag implements substrate.Endpoint.
func (e *Endpoint) TryRecvTag(tag int, cat substrate.Category) *substrate.Msg {
	return e.recv(tag, false)
}

// recv removes and returns the next deliverable message (of tag unless
// anyTag), or nil. The receive CPU was charged when pump drained it from the
// inner endpoint.
func (e *Endpoint) recv(tag int, anyTag bool) *substrate.Msg {
	e.check()
	e.pump()
	e.due()
	if anyTag {
		return e.queue.Pop()
	}
	return e.queue.PopTag(tag)
}

// Recv implements substrate.Endpoint.
func (e *Endpoint) Recv(waitCat substrate.Category) *substrate.Msg {
	e.WaitMsg(waitCat)
	return e.TryRecv(substrate.CatMessaging)
}

// WaitMsg implements substrate.Endpoint: it blocks until the decorator has
// a deliverable message — a message held for extra delay does not count
// until its release time, so the wait may outlast the inner arrival.
func (e *Endpoint) WaitMsg(cat substrate.Category) { e.wait(substrate.Never, cat) }

// WaitMsgFor implements substrate.Endpoint with the same held-message
// semantics as WaitMsg.
func (e *Endpoint) WaitMsgFor(d substrate.Time, cat substrate.Category) bool {
	return e.wait(e.Now()+d, cat)
}

// wait blocks until a message is deliverable or the clock reaches deadline
// (substrate.Never: no deadline), waking for held messages' release times.
// Without a deadline or a held message it blocks in the inner WaitMsg, which
// arms no timer.
func (e *Endpoint) wait(deadline substrate.Time, cat substrate.Category) bool {
	for {
		e.check()
		e.pump()
		now := e.Now()
		e.queue.Release(now)
		if e.queue.Len() > 0 {
			return true
		}
		if now >= deadline {
			return false
		}
		if until := min(deadline, e.queue.NextRelease(substrate.PollSpec{AnyTag: true})); until == substrate.Never {
			e.Endpoint.WaitMsg(cat)
		} else {
			e.Endpoint.WaitMsgFor(until-now, cat)
		}
	}
}
