package substrate_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"prema/internal/faulty"
	"prema/internal/substrate"
	"prema/internal/trace"
	"prema/internal/wire"
)

// The decorator contract (DESIGN §3), checked for wire, faulty and trace in
// one place against a recording fake: a decorator embeds the interface and
// overrides only what it changes, so every method reaches the inner value;
// a polled advance elides through every decorator over an endpoint that
// elides and is declined by every one over an endpoint that declines; and
// Unwrap keeps substrate.Find working through any stack of them.

type (
	Time     = substrate.Time
	Category = substrate.Category
	Msg      = substrate.Msg
)

// Values the fakes hand out, shared so a decorated and a bare call can be
// compared with ==.
var (
	fakeRand    = rand.New(rand.NewSource(1))
	fakeAccount = new(substrate.Account)
	queued      = &Msg{Src: 2, Dst: 0, Tag: 5, Data: 7, Size: 8}
)

// fakeEP is a one-processor endpoint that logs every call made on it. Its
// clock moves only by Advance, its inbox holds what the test queued, and it
// declines every polled advance.
type fakeEP struct {
	log   []string
	now   Time
	inbox []*Msg
	sent  *Msg
}

func (e *fakeEP) rec(format string, args ...any) { e.log = append(e.log, fmt.Sprintf(format, args...)) }

func (e *fakeEP) Now() Time        { e.rec("Now()"); return e.now }
func (e *fakeEP) ID() int          { e.rec("ID()"); return 3 }
func (e *fakeEP) NumPeers() int    { e.rec("NumPeers()"); return 11 }
func (e *fakeEP) Rand() *rand.Rand { e.rec("Rand()"); return fakeRand }
func (e *fakeEP) Advance(d Time, cat Category) {
	e.rec("Advance(%d, %v)", d, cat)
	e.now += d
}
func (e *fakeEP) AdvancePolled(d Time, ps substrate.PollSpec) (Time, int) {
	e.rec("AdvancePolled(%d, %+v)", d, ps)
	return 0, 0
}
func (e *fakeEP) Send(m *Msg, cat Category) {
	e.rec("Send(%+v, %v)", *m, cat)
	e.sent = m
}
func (e *fakeEP) InboxLen() int { e.rec("InboxLen()"); return len(e.inbox) }
func (e *fakeEP) pop() *Msg {
	if len(e.inbox) == 0 {
		return nil
	}
	m := e.inbox[0]
	e.inbox = e.inbox[1:]
	return m
}
func (e *fakeEP) TryRecv(cat Category) *Msg { e.rec("TryRecv(%v)", cat); return e.pop() }
func (e *fakeEP) TryRecvTag(tag int, cat Category) *Msg {
	e.rec("TryRecvTag(%d, %v)", tag, cat)
	return e.pop()
}
func (e *fakeEP) Recv(waitCat Category) *Msg { e.rec("Recv(%v)", waitCat); return e.pop() }
func (e *fakeEP) WaitMsg(cat Category)       { e.rec("WaitMsg(%v)", cat) }
func (e *fakeEP) WaitMsgFor(d Time, cat Category) bool {
	e.rec("WaitMsgFor(%d, %v)", d, cat)
	return len(e.inbox) > 0
}

// polledEP is a fakeEP that can elide: it takes the whole advance at once.
type polledEP struct{ fakeEP }

func (e *polledEP) AdvancePolled(d Time, ps substrate.PollSpec) (Time, int) {
	e.rec("AdvancePolled(%d, %+v)", d, ps)
	polls := int((d+ps.Interval-1)/ps.Interval) - 1
	e.now += d + Time(polls)*ps.Cost
	return d, polls
}

// fakeMachine runs its bodies one after the other on the endpoint it was
// given, and carries a telemetry surface shaped like the simulator's.
type fakeMachine struct {
	log    []string
	ep     substrate.Endpoint
	bodies []func(substrate.Endpoint)
}

func (m *fakeMachine) rec(format string, args ...any) {
	m.log = append(m.log, fmt.Sprintf(format, args...))
}

func (m *fakeMachine) Spawn(name string, body func(substrate.Endpoint)) {
	m.rec("Spawn(%s)", name)
	m.bodies = append(m.bodies, body)
}
func (m *fakeMachine) Run() error {
	m.rec("Run()")
	for _, body := range m.bodies {
		body(m.ep)
	}
	return errRun
}
func (m *fakeMachine) NumProcs() int                    { m.rec("NumProcs()"); return 11 }
func (m *fakeMachine) Now() Time                        { m.rec("Now()"); return 17 }
func (m *fakeMachine) Makespan() Time                   { m.rec("Makespan()"); return 19 }
func (m *fakeMachine) Account(i int) *substrate.Account { m.rec("Account(%d)", i); return fakeAccount }

func (m *fakeMachine) EventsFired() uint64   { return 1 }
func (m *fakeMachine) BarrierRounds() uint64 { return 2 }
func (m *fakeMachine) PollsElided() uint64   { return 3 }

var errRun = fmt.Errorf("the fake machine's Run result")

// engineStats is the probe internal/bench walks the chain for.
type engineStats interface {
	EventsFired() uint64
	BarrierRounds() uint64
	PollsElided() uint64
}

type wrapper func(substrate.Machine) substrate.Machine

func bare(m substrate.Machine) substrate.Machine       { return m }
func wrapWire(m substrate.Machine) substrate.Machine   { return wire.Wrap(m) }
func wrapFaulty(m substrate.Machine) substrate.Machine { return faulty.Wrap(m, faulty.Plan{}, 1) }
func wrapTrace(m substrate.Machine) substrate.Machine  { return trace.Wrap(m, trace.NewCollector(0)) }

// decorators lists the three.
var decorators = []struct {
	name string
	wrap wrapper
}{
	{"wire", wrapWire},
	{"faulty", wrapFaulty},
	{"trace", wrapTrace},
}

// quiet is a polled advance every decorator may forward: more than one
// slice, no deadline, no fault scheduled.
var quiet = substrate.PollSpec{Interval: 10, Cost: 2, Tag: 5, WakeBy: substrate.Never}

// advancePolled is ilb.Scheduler.Compute's call: one polled advance, or one
// stepped slice when the endpoint declines.
func advancePolled(ep substrate.Endpoint, d Time, ps substrate.PollSpec) (Time, int) {
	if done, polls := ep.AdvancePolled(d, ps); done != 0 {
		return done, polls
	}
	return substrate.StepPolled(ep, d, ps)
}

// onEndpoint spawns one body on wrap(a fake machine over inner) and runs it.
func onEndpoint(wrap wrapper, inner substrate.Endpoint, body func(substrate.Endpoint)) {
	m := wrap(&fakeMachine{ep: inner})
	m.Spawn("p003", body)
	m.Run()
}

// endpointCalls is every substrate.Endpoint method, called with fixed
// arguments, with the line a fakeEP logs for it. The receiving methods run
// with one message queued.
var endpointCalls = []struct {
	log  string
	recv bool
	do   func(substrate.Endpoint) any
}{
	{"Now()", false, func(ep substrate.Endpoint) any { return ep.Now() }},
	{"ID()", false, func(ep substrate.Endpoint) any { return ep.ID() }},
	{"NumPeers()", false, func(ep substrate.Endpoint) any { return ep.NumPeers() }},
	{"Rand()", false, func(ep substrate.Endpoint) any { return ep.Rand() }},
	{"Advance(6, Computation)", false, func(ep substrate.Endpoint) any { ep.Advance(6, substrate.CatCompute); return nil }},
	{fmt.Sprintf("AdvancePolled(35, %+v)", quiet), false, func(ep substrate.Endpoint) any {
		done, polls := ep.AdvancePolled(35, quiet)
		return [2]int64{int64(done), int64(polls)}
	}},
	{fmt.Sprintf("Send(%+v, Messaging)", Msg{Dst: 1, Tag: 5, Data: 9, Size: 8}), false, func(ep substrate.Endpoint) any {
		ep.Send(&Msg{Dst: 1, Tag: 5, Data: 9, Size: 8}, substrate.CatMessaging)
		return nil
	}},
	{"InboxLen()", true, func(ep substrate.Endpoint) any { return ep.InboxLen() }},
	{"TryRecv(Callback)", true, func(ep substrate.Endpoint) any { return ep.TryRecv(substrate.CatCallback) }},
	{"TryRecvTag(5, Callback)", true, func(ep substrate.Endpoint) any { return ep.TryRecvTag(5, substrate.CatCallback) }},
	{"Recv(Idle)", true, func(ep substrate.Endpoint) any { return ep.Recv(substrate.CatIdle) }},
	{"WaitMsg(Idle)", true, func(ep substrate.Endpoint) any { ep.WaitMsg(substrate.CatIdle); return nil }},
	{"WaitMsgFor(8, Idle)", true, func(ep substrate.Endpoint) any { return ep.WaitMsgFor(8, substrate.CatIdle) }},
}

// The methods that do not arrive below as the same call, by design. The
// injector applies its faults as it drains the inner inbox into its own
// queue, so every receiving method reaches the inner endpoint as that drain,
// and it widens a polled advance to every tag, since that drain takes them
// all; the tracer receives through its own traced WaitMsg and TryRecv.
var (
	faultyDrain = []string{"InboxLen()", "TryRecv(Messaging)", "InboxLen()"}
	anyTag      = substrate.PollSpec{Interval: quiet.Interval, Cost: quiet.Cost, Tag: quiet.Tag, AnyTag: true, WakeBy: quiet.WakeBy}
	reshaped    = map[string]map[string][]string{
		"faulty": {
			fmt.Sprintf("AdvancePolled(35, %+v)", quiet): {fmt.Sprintf("AdvancePolled(35, %+v)", anyTag)},
			"InboxLen()": faultyDrain, "TryRecv(Callback)": faultyDrain,
			"TryRecvTag(5, Callback)": faultyDrain, "WaitMsg(Idle)": faultyDrain, "WaitMsgFor(8, Idle)": faultyDrain,
			// Recv waits, then receives: the second looks at the inner inbox again.
			"Recv(Idle)": append(faultyDrain[:3:3], "InboxLen()"),
		},
		"trace": {"Recv(Idle)": {"WaitMsg(Idle)", "TryRecv(Messaging)"}},
	}
)

// TestDecoratorsReachInnerEndpoint: through each decorator, every Endpoint
// method reaches the inner endpoint exactly once, with the same arguments,
// and returns what the inner endpoint returns.
func TestDecoratorsReachInnerEndpoint(t *testing.T) {
	for _, dec := range decorators {
		for _, c := range endpointCalls {
			run := func(wrap wrapper) (got any, inner *fakeEP) {
				inner = &fakeEP{now: 23}
				if c.recv {
					inner.inbox = []*Msg{queued}
				}
				onEndpoint(wrap, inner, func(ep substrate.Endpoint) {
					inner.log = nil // what the decorator did to get here is not this call's
					got = c.do(ep)
				})
				return got, inner
			}
			want, _ := run(bare)
			got, inner := run(dec.wrap)
			if got != want {
				t.Errorf("%s: %s returned %v, the inner endpoint returns %v", dec.name, c.log, got, want)
			}
			wantLog := []string{c.log}
			if r, ok := reshaped[dec.name][c.log]; ok {
				wantLog = r
			}
			// The tracer reads the clock around what it records.
			var log []string
			for _, l := range inner.log {
				if l != "Now()" || c.log == "Now()" {
					log = append(log, l)
				}
			}
			if !reflect.DeepEqual(log, wantLog) {
				t.Errorf("%s: %s reached the inner endpoint as %q, want %q", dec.name, c.log, log, wantLog)
			}
		}
		// Only the codec hands the transport a Msg other than the sender's.
		var sent, arrived *Msg
		inner := &fakeEP{}
		onEndpoint(dec.wrap, inner, func(ep substrate.Endpoint) {
			sent = &Msg{Dst: 1, Data: 9, Size: 8}
			ep.Send(sent, substrate.CatMessaging)
			arrived = inner.sent
		})
		if same := arrived == sent; same == (dec.name == "wire") {
			t.Errorf("%s: the transport got the sender's own Msg = %v; only the codec hands it a copy", dec.name, same)
		}
	}
}

// TestDecoratorsReachInnerMachine: the same for substrate.Machine. Spawn
// arrives below once under the same name, and the body it was given runs.
func TestDecoratorsReachInnerMachine(t *testing.T) {
	calls := []struct {
		log string
		do  func(substrate.Machine) any
	}{
		{"Run()", func(m substrate.Machine) any { return m.Run() }},
		{"NumProcs()", func(m substrate.Machine) any { return m.NumProcs() }},
		{"Now()", func(m substrate.Machine) any { return m.Now() }},
		{"Makespan()", func(m substrate.Machine) any { return m.Makespan() }},
		{"Account(4)", func(m substrate.Machine) any { return m.Account(4) }},
	}
	for _, dec := range decorators {
		for _, c := range calls {
			plain, inner := &fakeMachine{}, &fakeMachine{}
			want, got := c.do(plain), c.do(dec.wrap(inner))
			if got != want || !reflect.DeepEqual(inner.log, []string{c.log}) {
				t.Errorf("%s: %s = %v through inner calls %q; want %v through exactly that call", dec.name, c.log, got, inner.log, want)
			}
		}
		inner := &fakeMachine{ep: &fakeEP{}}
		m := dec.wrap(inner)
		ran := 0
		m.Spawn("p000", func(ep substrate.Endpoint) { ran++ })
		if err := m.Run(); err != errRun || ran != 1 || !reflect.DeepEqual(inner.log, []string{"Spawn(p000)", "Run()"}) {
			t.Errorf("%s: Spawn+Run = %v, body ran %d times, inner calls %q", dec.name, err, ran, inner.log)
		}
	}
}

// TestDecoratorsAndPolledAdvancer: over an endpoint that elides, a polled
// advance through any decorator is one call below that takes the whole
// stretch; over an endpoint that declines, every decorator declines and
// leaves the clock where it was, so the caller steps through the stack.
func TestDecoratorsAndPolledAdvancer(t *testing.T) {
	const d = Time(35)
	for _, dec := range decorators {
		var done Time
		var polls int
		elider := &polledEP{}
		onEndpoint(dec.wrap, elider, func(ep substrate.Endpoint) { done, polls = ep.AdvancePolled(d, quiet) })
		if done != d || polls != 3 || elider.now != d+3*quiet.Cost || !slices.ContainsFunc(elider.log, isPolled) {
			t.Errorf("%s over an eliding endpoint: (%d, %d), clock %d, inner calls %q; want the whole advance in one call",
				dec.name, done, polls, elider.now, elider.log)
		}
		decliner := &fakeEP{}
		onEndpoint(dec.wrap, decliner, func(ep substrate.Endpoint) { done, polls = ep.AdvancePolled(d, quiet) })
		if done != 0 || polls != 0 || decliner.now != 0 {
			t.Errorf("%s over a declining endpoint: (%d, %d), clock %d; want (0, 0) with the clock unmoved",
				dec.name, done, polls, decliner.now)
		}
	}
}

// isPolled reports whether a fake's log line is an AdvancePolled call.
func isPolled(l string) bool { return strings.HasPrefix(l, "AdvancePolled(") }

// TestTraceReplaysElidedPolls: over an endpoint that elides, the tracer
// forwards the polled advance in one call and records the stream a stepped
// run records, event for event, with the codec or the injector beneath it
// too.
func TestTraceReplaysElidedPolls(t *testing.T) {
	ps := quiet
	const d = Time(35)
	record := func(under wrapper, inner substrate.Endpoint) []trace.Event {
		col := trace.NewCollector(0)
		onEndpoint(func(m substrate.Machine) substrate.Machine { return trace.Wrap(under(m), col) }, inner,
			func(ep substrate.Endpoint) {
				for rem := d; rem > 0; {
					done, _ := advancePolled(ep, rem, ps)
					rem -= done
				}
			})
		return slices.Collect(col.Recorder(0).Events())
	}
	stepped := &fakeEP{}
	want := record(bare, stepped)
	if len(want) != 10 { // 4 compute spans, 3 × (poll-wake instant, poll span)
		t.Fatalf("the stepped run recorded %d events, want 10: %+v", len(want), want)
	}
	for _, c := range []struct {
		name  string
		under wrapper
	}{{"trace", bare}, {"trace over wire", wrapWire}, {"trace over faulty", wrapFaulty}} {
		inner := &polledEP{}
		if got := record(c.under, inner); !reflect.DeepEqual(got, want) {
			t.Errorf("%s over an eliding endpoint recorded\n%+v\nwant the stepped stream\n%+v", c.name, got, want)
		}
		if polled := len(slices.DeleteFunc(slices.Clone(inner.log), func(l string) bool { return !isPolled(l) })); polled != 1 || inner.now != stepped.now {
			t.Errorf("%s: %d polled advances reached the eliding endpoint, clock %d; want 1, %d",
				c.name, polled, inner.now, stepped.now)
		}
	}
}

// probeMachine is shaped like benchmark/probe.go's: it embeds the interface
// and offers Unwrap.
type probeMachine struct{ substrate.Machine }

func (p probeMachine) Unwrap() substrate.Machine { return p.Machine }

// opaque embeds without Unwrap: a chain ends there.
type opaque struct{ substrate.Machine }

// TestFindWalksEveryOrdering: substrate.Find reaches the backend's telemetry
// and a decorator in the middle through all six stackings of the three
// decorators, with or without an embedding wrapper between every pair.
func TestFindWalksEveryOrdering(t *testing.T) {
	for _, order := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		for _, probed := range []bool{false, true} {
			backend := &fakeMachine{}
			var m substrate.Machine = backend
			name := "backend"
			for _, i := range order {
				if probed {
					m = probeMachine{m}
				}
				m = decorators[i].wrap(m)
				name = decorators[i].name + "(" + name + ")"
			}
			if probed {
				m, name = probeMachine{m}, "probed "+name
			}
			if es, ok := substrate.Find[engineStats](m); !ok || es != engineStats(backend) {
				t.Errorf("%s: Find[engineStats] = %v, %v; want the backend", name, es, ok)
			}
			if fm, ok := substrate.Find[*faulty.Machine](m); !ok || fm == nil {
				t.Errorf("%s: Find[*faulty.Machine] found nothing", name)
			}
			if _, ok := substrate.Find[*opaque](m); ok {
				t.Errorf("%s: Find found a layer that is not in the chain", name)
			}
		}
	}
	if _, ok := substrate.Find[engineStats](opaque{&fakeMachine{}}); ok {
		t.Error("Find walked through a wrapper that has no Unwrap")
	}
}
