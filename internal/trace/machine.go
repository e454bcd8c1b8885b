package trace

import "prema/internal/substrate"

// Machine decorates an inner substrate.Machine so every endpoint handed to a
// processor body records trace events. Wrap it outermost (outside
// internal/faulty, if both are in play) so the stream reflects what the
// application actually observed.
//
// Tracing is observational: no substrate time is charged for recording, so a
// traced simulator run has byte-identical makespan and accounts to the
// untraced run (guarded by a test in internal/bench).
type Machine struct {
	substrate.Machine
	col *Collector
}

// Wrap returns a tracing view of m recording into col.
func Wrap(m substrate.Machine, col *Collector) *Machine {
	return &Machine{Machine: m, col: col}
}

var _ substrate.Machine = (*Machine)(nil)

// Spawn implements substrate.Machine; the body runs against a tracing
// endpoint.
func (t *Machine) Spawn(name string, body func(substrate.Endpoint)) {
	rec := t.col.attach(len(t.col.recs))
	t.Machine.Spawn(name, func(ep substrate.Endpoint) {
		body(&Endpoint{Endpoint: ep, rec: rec})
	})
}

// Unwrap returns the decorated machine, so callers can reach an inner
// decorator (e.g. internal/faulty's rejoin hook) through the tracing layer.
func (t *Machine) Unwrap() substrate.Machine { return t.Machine }

// Endpoint decorates one processor's substrate.Endpoint: every operation
// that consumes time records a category span, and message movement records
// send/recv instants. Layer-level events (forwards, migrations, work units,
// policy decisions) are recorded by the layers themselves through Of.
type Endpoint struct {
	substrate.Endpoint
	rec *Recorder
}

var _ substrate.Endpoint = (*Endpoint)(nil)
var _ hasRecorder = (*Endpoint)(nil)

// TraceRecorder exposes the recorder to Of.
func (e *Endpoint) TraceRecorder() *Recorder { return e.rec }

// Advance implements substrate.Endpoint, recording the consumed interval as
// a category span. CatPollThread time is only ever one wake-up of the
// polling thread (substrate.StepPolled), so the poll-wake instant is
// recorded here, where a stepped and an elided run both pass.
func (e *Endpoint) Advance(d substrate.Time, cat substrate.Category) {
	t0 := e.Now()
	if cat == substrate.CatPollThread {
		e.rec.Instant(EvPolicy, t0, PolPollWake, 0, 0)
	}
	e.Endpoint.Advance(d, cat)
	e.rec.Span(cat, t0, e.Now())
}

// AdvancePolled implements substrate.Endpoint. The call is forwarded, and
// the polls an eliding endpoint skipped are folded into the ring
// (Recorder.polls), which expands them on read in the stepped order —
// compute span, poll-wake instant, poll span — so the stream is the one a
// stepped run records, event for event. When the endpoint below declines,
// so does this one: the caller's stepped slice then runs through this
// decorator's own Advance and records itself.
func (e *Endpoint) AdvancePolled(d substrate.Time, ps substrate.PollSpec) (substrate.Time, int) {
	t := e.Now()
	done, polls := e.Endpoint.AdvancePolled(d, ps)
	if done == 0 {
		return 0, 0
	}
	e.rec.polls(t, polls, ps.Interval, ps.Cost)
	e.rec.Span(substrate.CatCompute, t+substrate.Time(polls)*(ps.Interval+ps.Cost), e.Now())
	return done, polls
}

// Send implements substrate.Endpoint, recording the send CPU span and an
// EvSend instant. The message fields are captured before the inner send: on
// the real-concurrency backend the channel handoff transfers ownership.
func (e *Endpoint) Send(m *substrate.Msg, cat substrate.Category) {
	dst, tag, size := m.Dst, m.Tag, m.Size
	t0 := e.Now()
	e.Endpoint.Send(m, cat)
	t1 := e.Now()
	e.rec.Span(cat, t0, t1)
	e.rec.Instant(EvSend, t1, int64(dst), int64(tag), int64(size))
}

// TryRecv implements substrate.Endpoint, recording the receive CPU span and
// an EvRecv instant when a message is popped.
func (e *Endpoint) TryRecv(cat substrate.Category) *substrate.Msg {
	t0 := e.Now()
	return e.received(cat, t0, e.Endpoint.TryRecv(cat))
}

// TryRecvTag implements substrate.Endpoint, recording like TryRecv.
func (e *Endpoint) TryRecvTag(tag int, cat substrate.Category) *substrate.Msg {
	t0 := e.Now()
	return e.received(cat, t0, e.Endpoint.TryRecvTag(tag, cat))
}

// received records a receive that began at t0 and returned m (nil: nothing
// was queued) and passes m on.
func (e *Endpoint) received(cat substrate.Category, t0 substrate.Time, m *substrate.Msg) *substrate.Msg {
	t1 := e.Now()
	e.rec.Span(cat, t0, t1)
	if m != nil {
		e.rec.Instant(EvRecv, t1, int64(m.Src), int64(m.Tag), int64(m.Size))
	}
	return m
}

// Recv implements substrate.Endpoint via the traced WaitMsg + TryRecv pair,
// matching the substrate contract's attribution (wait to waitCat, receive
// overhead to CatMessaging).
func (e *Endpoint) Recv(waitCat substrate.Category) *substrate.Msg {
	e.WaitMsg(waitCat)
	return e.TryRecv(substrate.CatMessaging)
}

// WaitMsg implements substrate.Endpoint, recording the blocked interval.
func (e *Endpoint) WaitMsg(cat substrate.Category) { e.wait(substrate.Never, cat) }

// WaitMsgFor implements substrate.Endpoint, recording the blocked interval.
func (e *Endpoint) WaitMsgFor(d substrate.Time, cat substrate.Category) bool { return e.wait(d, cat) }

// wait runs the inner WaitMsgFor(d), or WaitMsg when d is substrate.Never,
// and records the blocked interval.
func (e *Endpoint) wait(d substrate.Time, cat substrate.Category) bool {
	t0 := e.Now()
	ok := true
	if d == substrate.Never {
		e.Endpoint.WaitMsg(cat)
	} else {
		ok = e.Endpoint.WaitMsgFor(d, cat)
	}
	e.rec.Span(cat, t0, e.Now())
	return ok
}
