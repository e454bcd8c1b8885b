package sim

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"prema/internal/substrate"
	"prema/internal/trace"
)

// The polled-advance tests hold Proc.AdvancePolled to its contract by
// running every scenario twice — once through AdvancePolled, once through
// the literal loop (substrate.StepPolled) — and comparing everything the
// engine can show: makespan, accounts in nanoseconds, the internal/trace
// stream recorded over the seam (trace.Endpoint replays the elided polls from
// what AdvancePolled returns), and the trail of (time, polls so far, compute
// so far, message) at every receive.

const (
	pI = 10 * Millisecond // poll interval
	pC = 4 * Microsecond  // poll cost
	pL = 100 * Microsecond
)

func polledNet() *substrate.Network {
	return &substrate.Network{Latency: pL, RecvCPU: 7 * Microsecond}
}

// arrival is one message the sender makes land in the victim's inbox at
// exactly At.
type arrival struct {
	At  Time
	Tag int
}

type polledCase struct {
	name     string
	d        Time
	spec     substrate.PollSpec
	lead     Time // plain compute before the polled advance starts
	arrivals []arrival
	shards   int
	// wantFirst, when set, is what the first AdvancePolled call must return.
	wantFirst *[2]int64
	// exactCalls: AdvancePolled returns only where a message is consumed.
	exactCalls bool
}

type trailPoint struct {
	At    Time
	Polls int
	Done  Time
	Kind  int
}

type polledOutcome struct {
	Makespan Time
	Accounts []Account
	Events   [][]trace.Event
	Trail    []trailPoint
	Polls    int
	calls    int
	first    [2]int64
}

// victimLoop is ilb.Scheduler.Compute's shape: advance, and while compute
// remains drain what the poll is entitled to.
func victimLoop(p substrate.Endpoint, d Time, ps substrate.PollSpec, stepped bool, o *polledOutcome) {
	var total Time
	for d > 0 {
		var done Time
		var polls int
		if stepped {
			done, polls = substrate.StepPolled(p, d, ps)
		} else {
			done, polls = advancePolled(p, d, ps)
		}
		if o.calls == 0 {
			o.first = [2]int64{int64(done), int64(polls)}
		}
		o.calls++
		d -= done
		total += done
		o.Polls += polls
		if d <= 0 {
			break
		}
		for {
			var m *Msg
			if ps.AnyTag {
				m = p.TryRecv(CatMessaging)
			} else {
				m = p.TryRecvTag(ps.Tag, CatMessaging)
			}
			if m == nil {
				break
			}
			o.Trail = append(o.Trail, trailPoint{p.Now(), o.Polls, total, m.Kind})
		}
	}
}

// advancePolled is ilb.Scheduler.Compute's call: one polled advance, or one
// stepped slice when the endpoint declines.
func advancePolled(p substrate.Endpoint, d Time, ps substrate.PollSpec) (Time, int) {
	if done, polls := p.AdvancePolled(d, ps); done != 0 {
		return done, polls
	}
	return substrate.StepPolled(p, d, ps)
}

func runPolledCase(t *testing.T, c polledCase, stepped bool) polledOutcome {
	t.Helper()
	e := NewEngine(Config{Network: polledNet(), Seed: 1, Shards: c.shards})
	col := trace.NewCollector(0)
	m := trace.Wrap(Machine{e}, col)
	var o polledOutcome
	m.Spawn("victim", func(p substrate.Endpoint) {
		p.Advance(c.lead, CatScheduling)
		victimLoop(p, c.d, c.spec, stepped, &o)
	})
	m.Spawn("sender", func(p substrate.Endpoint) {
		for i, a := range c.arrivals {
			p.Advance(a.At-pL-p.Now(), CatCompute)
			p.Send(&Msg{Dst: 0, Kind: i + 1, Tag: a.Tag}, CatMessaging)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("%s (stepped=%v): %v", c.name, stepped, err)
	}
	o.Makespan = e.Makespan()
	for i := 0; i < e.NumProcs(); i++ {
		o.Accounts = append(o.Accounts, *e.Proc(i).Account())
		o.Events = append(o.Events, slices.Collect(col.Recorder(i).Events()))
	}
	return o
}

// TestAdvancePolledBoundaries is the boundary table: arrivals on either side
// of every poll instant, tags that must and must not wake, degenerate
// lengths, and WakeBy before, inside and after the advance — on one shard
// and with the sender on another.
func TestAdvancePolledBoundaries(t *testing.T) {
	sys := substrate.PollSpec{Interval: pI, Cost: pC, Tag: TagSystem, WakeBy: substrate.Never}
	anyTag := sys
	anyTag.AnyTag = true
	free := sys
	free.Cost = 0
	wake := func(at Time) substrate.PollSpec { s := sys; s.WakeBy = at; return s }
	first := func(done Time, polls int) *[2]int64 { return &[2]int64{int64(done), int64(polls)} }

	// d = 35 ms: K = 3 polls, b_j = j*I + (j-1)*C, c_j = j*(I+C).
	const d = 35 * Millisecond
	b2, c2 := 2*pI+pC, 2*(pI+pC)
	end := d + 3*pC
	at := func(ts ...Time) []arrival {
		var out []arrival
		for _, x := range ts {
			out = append(out, arrival{x, TagSystem})
		}
		return out
	}
	cases := []polledCase{
		{name: "quiet", d: d, spec: sys, wantFirst: first(d, 3), exactCalls: true},
		{name: "b2-1ns", d: d, spec: sys, arrivals: at(b2 - 1), wantFirst: first(2*pI, 2), exactCalls: true},
		{name: "b2", d: d, spec: sys, arrivals: at(b2), wantFirst: first(2*pI, 2), exactCalls: true},
		{name: "c2-1ns", d: d, spec: sys, arrivals: at(c2 - 1), wantFirst: first(2*pI, 2), exactCalls: true},
		{name: "c2", d: d, spec: sys, arrivals: at(c2), wantFirst: first(2*pI, 2), exactCalls: true},
		{name: "c2+1ns", d: d, spec: sys, arrivals: at(c2 + 1), wantFirst: first(3*pI, 3), exactCalls: true},
		{name: "end", d: d, spec: sys, arrivals: at(end), wantFirst: first(d, 3), exactCalls: true},
		{name: "after-last-poll", d: d, spec: sys, arrivals: at(3*(pI+pC) + 1), wantFirst: first(d, 3), exactCalls: true},
		{name: "other-tag", d: d, spec: sys, arrivals: []arrival{{c2 - 1, TagApp}}, wantFirst: first(d, 3), exactCalls: true},
		{name: "other-tag-anytag", d: d, spec: anyTag, arrivals: []arrival{{c2 - 1, TagApp}}, wantFirst: first(2*pI, 2), exactCalls: true},
		{name: "queued-at-entry", d: d, spec: sys, lead: Millisecond, arrivals: at(Millisecond / 2), wantFirst: first(pI, 1), exactCalls: true},
		{name: "other-tag-queued-at-entry", d: d, spec: sys, lead: Millisecond, arrivals: []arrival{{Millisecond / 2, TagApp}}, wantFirst: first(d, 3), exactCalls: true},
		{name: "arrives-at-entry-instant", d: d, spec: sys, lead: Millisecond, arrivals: at(Millisecond), wantFirst: first(pI, 1), exactCalls: true},
		{name: "short", d: pI - 1, spec: sys, arrivals: at(pI / 2), wantFirst: first(pI-1, 0), exactCalls: true},
		{name: "one-interval", d: pI, spec: sys, wantFirst: first(pI, 0), exactCalls: true},
		{name: "whole-intervals", d: 3 * pI, spec: sys, wantFirst: first(3*pI, 2), exactCalls: true},
		{name: "whole-intervals-late-arrival", d: 3 * pI, spec: sys, arrivals: at(2*(pI+pC) + 1), wantFirst: first(3*pI, 2), exactCalls: true},
		{name: "free-polls", d: d, spec: free, arrivals: at(2*pI, 3*pI+1), wantFirst: first(2*pI, 2), exactCalls: true},
		{name: "wakeby-past", d: d, spec: wake(0), lead: Millisecond, arrivals: at(c2 - 1), wantFirst: first(pI, 1)},
		{name: "wakeby-now", d: d, spec: wake(Millisecond), lead: Millisecond, wantFirst: first(pI, 1)},
		{name: "wakeby-mid", d: d, spec: wake(c2 - 1), wantFirst: first(2*pI, 2)},
		{name: "wakeby-on-c2", d: d, spec: wake(c2), wantFirst: first(2*pI, 2)},
		{name: "wakeby-after-c2", d: d, spec: wake(c2 + 1), wantFirst: first(3*pI, 3)},
		{name: "wakeby-mid-earlier-arrival", d: d, spec: wake(c2 + 1), arrivals: at(pI), wantFirst: first(pI, 1)},
		{name: "wakeby-beyond", d: d, spec: wake(end + Second), wantFirst: first(d, 3), exactCalls: true},
		{name: "storm", d: 20 * d, spec: sys, lead: 3 * Microsecond, exactCalls: true,
			arrivals: at(pL, pL+1, pI, pI+pC, pI+pC+1, 3*pI, 3*pI+50*Microsecond, 7*pI-1, 7*pI, 7*pI+1, 31*pI, 50*pI+5*pC)},
	}
	for _, shards := range []int{1, 2} {
		for _, c := range cases {
			c.shards = shards
			t.Run(fmt.Sprintf("%s/shards=%d", c.name, shards), func(t *testing.T) {
				want := runPolledCase(t, c, true)
				got := runPolledCase(t, c, false)
				if got.Makespan != want.Makespan {
					t.Errorf("makespan %d, stepped %d", got.Makespan, want.Makespan)
				}
				if !reflect.DeepEqual(got.Accounts, want.Accounts) {
					t.Errorf("accounts (ns)\n got %v\nwant %v", got.Accounts, want.Accounts)
				}
				if got.Polls != want.Polls {
					t.Errorf("polls %d, stepped %d", got.Polls, want.Polls)
				}
				if !reflect.DeepEqual(got.Trail, want.Trail) {
					t.Errorf("receive trail\n got %v\nwant %v", got.Trail, want.Trail)
				}
				if !reflect.DeepEqual(got.Events, want.Events) {
					t.Errorf("trace stream differs:\n got %v\nwant %v", got.Events, want.Events)
				}
				if c.wantFirst != nil && got.first != *c.wantFirst {
					t.Errorf("first AdvancePolled returned %v, want %v", got.first, *c.wantFirst)
				}
				if c.exactCalls {
					// One call per stretch that ended in a receive, plus the
					// last: no gratuitous early return.
					stretches := map[int]bool{}
					for _, p := range want.Trail {
						stretches[p.Polls] = true
					}
					if got.calls != len(stretches)+1 {
						t.Errorf("%d AdvancePolled calls for %d interrupted stretches", got.calls, len(stretches))
					}
				}
			})
		}
	}
}

// TestAdvancePolledAbnormalEnds: a deadlocked peer, and a peer that panics
// mid-slice or between a slice's end and its poll's, while a processor is
// parked in a polled advance end the run exactly as they do when it steps —
// no hang, the same error, and on the serial engine (where the teardown
// instant is the panic's) the same ledger for the torn-down processor, but
// for one case below.
func TestAdvancePolledAbnormalEnds(t *testing.T) {
	spec := substrate.PollSpec{Interval: pI, Cost: pC, Tag: TagSystem, WakeBy: substrate.Never}
	run := func(cfg Config, stepped bool, peer func(*Proc)) (Account, error) {
		cfg.Network, cfg.Seed = polledNet(), 1
		e := NewEngine(cfg)
		var o polledOutcome
		e.Spawn("victim", func(p *Proc) { victimLoop(p, 10*Second, spec, stepped, &o) })
		e.Spawn("peer", peer)
		err := e.Run()
		return *e.Proc(0).Account(), err
	}
	firstLine := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return strings.SplitN(err.Error(), "\n", 2)[0]
	}
	peers := map[string]func(*Proc){
		"deadlock":      func(p *Proc) { p.WaitMsg(CatIdle) },
		"panic":         func(p *Proc) { p.Advance(Second+3, CatCompute); panic("boom") },
		"panic-in-poll": func(p *Proc) { p.Advance(3*(pI+pC)-pC/2, CatCompute); panic("boom") },
	}
	// The peer panics at 3I+2.5C, halfway through the victim's third poll
	// (3I+2C to 3I+3C). The elided victim is parked in its polled advance
	// and settles two polls at the panic instant. The stepped victim's third
	// poll is one Advance(C) shorter than the latency with nothing in
	// flight, so it ran ahead through the whole poll before the peer's
	// panic fired: three polls. In lockstep both read two.
	pollLedger := func(polls Time) Account {
		var a Account
		a[CatCompute], a[CatPollThread] = 3*pI, polls*pC
		return a
	}
	pinned := map[bool]Account{true: pollLedger(3), false: pollLedger(2)}
	for name, peer := range peers {
		for _, shards := range []int{1, 2} {
			wantAcct, want := run(Config{Shards: shards}, true, peer)
			gotAcct, got := run(Config{Shards: shards}, false, peer)
			if firstLine(got) != firstLine(want) {
				t.Errorf("%s/shards=%d: error %q, stepped %q", name, shards, firstLine(got), firstLine(want))
			}
			switch {
			case shards > 1:
			case name == "panic-in-poll":
				for stepped, acct := range map[bool]Account{true: wantAcct, false: gotAcct} {
					if acct != pinned[stepped] {
						t.Errorf("%s (stepped %v): victim ledger %v, want %v", name, stepped, acct, pinned[stepped])
					}
					if lock, _ := run(Config{Lockstep: true}, stepped, peer); lock != pinned[false] {
						t.Errorf("%s (stepped %v, lockstep): victim ledger %v, want %v", name, stepped, lock, pinned[false])
					}
				}
			case gotAcct != wantAcct:
				t.Errorf("%s: victim ledger %v, stepped %v", name, gotAcct, wantAcct)
			}
			if name == "deadlock" && !errors.Is(got, ErrDeadlock) {
				t.Errorf("deadlock/shards=%d: got %v", shards, got)
			}
		}
	}
}

// victimTimers counts the wakes the heap holds for p.
func victimTimers(p *Proc) int {
	n := 0
	for _, he := range p.sh.heap.e {
		if he.p == p {
			n++
		}
	}
	return n
}

// TestAdvancePolledHeapBound: a processor interrupted more than ten thousand
// times inside one long polled advance never has more than one wake in the
// heap: a delivery moves it, and each re-entry pushes a fresh one only after
// the last has fired. Leaving the superseded end of the advance behind on
// every interruption would keep one dead event per interruption alive until
// the end of the unit (measured: +20 % allocated bytes on a Figure 3 run).
func TestAdvancePolledHeapBound(t *testing.T) {
	const storms = 12000
	spec := substrate.PollSpec{Interval: pI, Cost: pC, Tag: TagSystem, WakeBy: substrate.Never}
	e := NewEngine(Config{Network: polledNet(), Seed: 1})
	var victim *Proc
	worst, worstHeap, calls := 0, 0, 0
	check := func() {
		if n := victimTimers(victim); n > worst {
			worst = n
		}
		if n := len(victim.sh.heap.e) + victim.sh.ring.n; n > worstHeap {
			worstHeap = n
		}
	}
	victim = e.Spawn("victim", func(p *Proc) {
		d := Time(storms+50) * pI
		for d > 0 {
			done, _ := advancePolled(p, d, spec)
			calls++
			check()
			d -= done
			for d > 0 && p.TryRecvTag(TagSystem, CatMessaging) != nil {
			}
		}
	})
	e.Spawn("storm", func(p *Proc) {
		for i := 0; i < storms; i++ {
			p.Advance(pI+3*Microsecond, CatCompute)
			p.Send(&Msg{Dst: 0, Tag: TagSystem}, CatMessaging)
			check()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if calls < 10000 {
		t.Fatalf("only %d interruptions, want >= 10000", calls)
	}
	if worst > 1 {
		t.Errorf("heap held %d wakes for the victim, want <= 1", worst)
	}
	// The victim's wake, the sender's, one delivery in flight.
	if worstHeap > 3 {
		t.Errorf("heap and ring grew to %d entries, want <= 3", worstHeap)
	}
	if e.PollsElided() == 0 {
		t.Error("no polls were elided")
	}
}

// TestAdvancePolledOneWakePerProc: in a steal storm whose victims are
// interrupted inside their polled advances again and again, every wake in a
// heap is the wake of the processor it names, every processor's wake is in
// its shard's heap at the slot it records, and no processor has more than
// one, serially and on two and four shards. The heap is sampled between
// every two operations of every body, so between the pops that switch into
// a body; a delivery that moves a victim's wake is seen at the next sample.
func TestAdvancePolledOneWakePerProc(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		// Per shard, so that shards running in parallel count apart.
		samples, polled, broken := make([]int, shards), make([]int, shards), make([]int, shards)
		probe := func(p *Proc) {
			s := p.sh
			samples[s.id]++
			n := make([]int, s.eng.NumProcs()) // wakes seen per processor
			bad := func(format string, args ...any) {
				if broken[s.id]++; broken[s.id] == 1 {
					t.Errorf("shards=%d at %v: "+format, append([]any{shards, s.now}, args...)...)
				}
			}
			for i, he := range s.heap.e {
				q := he.p
				if n[q.id]++; n[q.id] > 1 {
					bad("processor %d has %d wakes in the heap", q.id, n[q.id])
				}
				if int(q.hidx) != i {
					bad("the wake in slot %d is processor %d's, which records slot %d", i, q.id, q.hidx)
				}
			}
			for _, q := range s.eng.procs {
				if q.sh != s || q.hidx < 0 {
					continue
				}
				if i := int(q.hidx); i >= len(s.heap.e) || s.heap.e[i].p != q {
					bad("processor %d's wake is not at its slot %d", q.id, i)
				}
				if q.polled {
					polled[s.id]++
				}
			}
		}
		e, _ := stealStorm(t, Config{Seed: 3, Shards: shards}, probe)
		sum := func(v []int) (n int) {
			for _, x := range v {
				n += x
			}
			return n
		}
		if sum(samples) < e.NumProcs()*100 || sum(polled) == 0 || e.PollsElided() == 0 {
			t.Errorf("shards=%d: %d samples, %d saw a victim parked polled, %d polls elided; the fixture no longer storms polled victims",
				shards, sum(samples), sum(polled), e.PollsElided())
		}
	}
}

// TestAdvancePolledZeroAllocs: in steady state a polled advance allocates
// nothing — uninterrupted (fast path and parked), interrupted by a sender on
// its own shard, and interrupted across shards.
func TestAdvancePolledZeroAllocs(t *testing.T) {
	const warm, n = 500, 5000
	spec := substrate.PollSpec{Interval: pI, Cost: pC, Tag: TagSystem, WakeBy: substrate.Never}
	measure := func(p *Proc, step func()) float64 {
		for i := 0; i < warm; i++ {
			step()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			step()
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs-m0.Mallocs) / n
	}
	cases := []struct {
		name   string
		shards int
		peer   func(p *Proc) // nil: the victim runs alone (fast path)
	}{
		{name: "alone", shards: 1},
		{name: "parked", shards: 1, peer: func(p *Proc) {
			for i := 0; i < (warm+n)*5; i++ {
				p.Advance(pI-1, CatCompute)
			}
		}},
		{name: "interrupted", shards: 1},
		{name: "interrupted-cross-shard", shards: 2},
	}
	for _, c := range cases {
		var perOp float64
		e := NewEngine(Config{Network: polledNet(), Seed: 1, Shards: c.shards})
		e.Spawn("victim", func(p *Proc) {
			perOp = measure(p, func() {
				// One call per stretch, as many as it takes to use up 4.5
				// intervals (1 when nothing interrupts, 5 under the storm).
				for d := 4*pI + pI/2; d > 0; {
					done, _ := advancePolled(p, d, spec)
					d -= done
					for d > 0 && p.TryRecvTag(TagSystem, CatMessaging) != nil {
					}
				}
			})
		})
		switch {
		case c.peer != nil:
			e.Spawn("peer", c.peer)
		case strings.HasPrefix(c.name, "interrupted"):
			e.Spawn("storm", func(p *Proc) {
				msgs := make([]Msg, (warm+n)*5)
				for i := range msgs {
					msgs[i] = Msg{Dst: 0, Tag: TagSystem}
					p.Advance(pI, CatCompute)
					p.Send(&msgs[i], CatMessaging)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if perOp > 0.01 {
			t.Errorf("%s: %.4f allocations per polled advance, want 0", c.name, perOp)
		}
		if e.PollsElided() == 0 {
			t.Errorf("%s: nothing was elided", c.name)
		}
	}
}
