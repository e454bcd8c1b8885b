package faulty

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"prema/internal/sim"
	"prema/internal/substrate"
	"prema/internal/trace"
	"prema/internal/wire"
)

// The injector's polled advance is held to the stepped loop event for
// event: each case runs a traced stack over the injector (over the codec,
// or straight over the simulator) twice — once eliding through
// Endpoint.AdvancePolled, once stepping every slice and poll through
// Advance (substrate.StepPolled) — and compares the makespan, every ledger,
// every trace stream, the trail of what each poll received, and the
// injector's own ledger. Each case puts one of the injector's edges inside a
// stretch the simulator would otherwise skip.

const (
	fpI    = 10 * substrate.Millisecond // poll interval
	fpC    = 4 * substrate.Microsecond  // poll cost
	fpL    = 100 * substrate.Microsecond
	fpLead = substrate.Millisecond // plain compute before the polled advance
	fpP    = fpI + fpC             // poll period
)

// fpPoll is poll j's inbox check: the victim's polled advance starts at
// fpLead.
func fpPoll(j int) substrate.Time { return fpLead + substrate.Time(j)*fpP }

type fpArrival struct {
	At  substrate.Time
	Tag int
}

type fpCase struct {
	name     string
	plan     string
	arrivals []fpArrival
	// pump, when set, makes the victim look at its inbox before computing,
	// so what has arrived is held by the injector when the advance starts.
	pump bool
}

type fpTrail struct {
	At    substrate.Time
	Polls int
	Done  substrate.Time
	Kind  int
}

type fpOutcome struct {
	Makespan substrate.Time
	Accounts []substrate.Account
	Events   [][]trace.Event
	Trail    []fpTrail
	Stats    Stats
	elided   uint64
}

func runFaultyPolled(t *testing.T, c fpCase, codec, stepped bool) fpOutcome {
	t.Helper()
	plan, err := ParsePlan(c.plan)
	if err != nil {
		t.Fatal(err)
	}
	var m substrate.Machine = sim.NewMachine(sim.Config{Network: &substrate.Network{Latency: fpL, RecvCPU: 7 * substrate.Microsecond}, Seed: 1})
	if codec {
		m = wire.Wrap(m)
	}
	fm := Wrap(m, plan, 5)
	col := trace.NewCollector(0)
	tm := trace.Wrap(fm, col)
	ps := substrate.PollSpec{Interval: fpI, Cost: fpC, Tag: substrate.TagSystem, WakeBy: substrate.Never}
	var o fpOutcome
	tm.Spawn("victim", func(ep substrate.Endpoint) {
		ep.Advance(fpLead, substrate.CatScheduling)
		if c.pump {
			ep.InboxLen()
		}
		var total substrate.Time
		polls := 0
		for d := 20 * fpI; d > 0; {
			var done substrate.Time
			var n int
			if !stepped {
				done, n = ep.AdvancePolled(d, ps)
			}
			if done == 0 {
				done, n = substrate.StepPolled(ep, d, ps)
			}
			d -= done
			total += done
			polls += n
			if d <= 0 {
				break
			}
			for msg := ep.TryRecvTag(ps.Tag, substrate.CatMessaging); msg != nil; msg = ep.TryRecvTag(ps.Tag, substrate.CatMessaging) {
				o.Trail = append(o.Trail, fpTrail{ep.Now(), polls, total, msg.Kind})
			}
		}
	})
	tm.Spawn("sender", func(ep substrate.Endpoint) {
		for i, a := range c.arrivals {
			ep.Advance(a.At-fpL-ep.Now(), substrate.CatCompute)
			ep.Send(&substrate.Msg{Dst: 0, Kind: i + 1, Tag: a.Tag}, substrate.CatMessaging)
		}
	})
	if err := tm.Run(); err != nil {
		t.Fatalf("stepped=%v: %v", stepped, err)
	}
	o.Makespan = tm.Makespan()
	for i := 0; i < tm.NumProcs(); i++ {
		o.Accounts = append(o.Accounts, *tm.Account(i))
		o.Events = append(o.Events, slices.Collect(col.Recorder(i).Events()))
	}
	o.Stats = fm.Stats()
	es, _ := substrate.Find[interface{ PollsElided() uint64 }](tm)
	o.elided = es.PollsElided()
	return o
}

// TestFaultyPolledMatchesStepped: stall, crash and release edges inside a
// stretch, messages held at entry, and arrivals the poll does not take all
// leave the elided run where the stepped one is.
func TestFaultyPolledMatchesStepped(t *testing.T) {
	stall := func(at substrate.Time) string { return fmt.Sprintf("stall:0@%dus+2ms", at/substrate.Microsecond) }
	cases := []fpCase{
		{name: "stall-in-stretch", plan: stall(fpPoll(5) + 3*substrate.Millisecond)},
		// Inside poll 7's own Advance, which starts fpC before its check.
		{name: "stall-in-poll", plan: stall(fpPoll(7) - fpC/2)},
		{name: "stall-at-entry", plan: stall(fpLead - substrate.Microsecond)},
		{name: "crash-in-stretch", plan: fmt.Sprintf("crash:0@%dus", (fpPoll(9)+substrate.Millisecond)/substrate.Microsecond)},
		// The poll after the arrival holds the message for up to 30 ms: a
		// system message wakes the advance at its release, an application
		// message does not.
		{name: "delayed-matching", plan: "delay=1:30ms", arrivals: []fpArrival{{fpPoll(3) + 2*substrate.Millisecond, substrate.TagSystem}}},
		{name: "delayed-nonmatching", plan: "delay=1:30ms", arrivals: []fpArrival{
			{fpPoll(3) + 2*substrate.Millisecond, substrate.TagApp},
			{fpPoll(12) + 5*substrate.Millisecond, substrate.TagSystem},
		}},
		{name: "held-at-entry", plan: "reorder=0.5", pump: true, arrivals: []fpArrival{{fpLead / 2, substrate.TagSystem}}},
		// The poll's receive drains every tag and draws its faults then.
		{name: "app-arrival", plan: "dup=0.5,delay=0.5:5ms", arrivals: []fpArrival{
			{fpPoll(2) + 3*substrate.Millisecond, substrate.TagApp},
			{fpPoll(6) + 1*substrate.Millisecond, substrate.TagApp},
			{fpPoll(6) + 2*substrate.Millisecond, substrate.TagSystem},
			{fpPoll(14) + 7*substrate.Millisecond, substrate.TagApp},
		}},
	}
	for _, c := range cases {
		for _, codec := range []bool{false, true} {
			name := c.name
			if codec {
				name += "/wire"
			}
			t.Run(name, func(t *testing.T) {
				want := runFaultyPolled(t, c, codec, true)
				got := runFaultyPolled(t, c, codec, false)
				if got.elided == 0 {
					t.Error("nothing was elided")
				}
				if want.Stats == (Stats{}) && len(want.Trail) == 0 {
					t.Error("the case injected nothing and the victim received nothing")
				}
				if want.elided != 0 {
					t.Errorf("the stepped reference elided %d polls", want.elided)
				}
				if got.Makespan != want.Makespan || !reflect.DeepEqual(got.Accounts, want.Accounts) {
					t.Errorf("makespan %v, ledgers %v; stepped %v, %v", got.Makespan, got.Accounts, want.Makespan, want.Accounts)
				}
				if !reflect.DeepEqual(got.Trail, want.Trail) {
					t.Errorf("trail %+v, stepped %+v", got.Trail, want.Trail)
				}
				if got.Stats != want.Stats {
					t.Errorf("injected %+v, stepped %+v", got.Stats, want.Stats)
				}
				for i := range want.Events {
					if !reflect.DeepEqual(got.Events[i], want.Events[i]) {
						t.Errorf("proc %d trace stream differs (%d vs %d events)", i, len(got.Events[i]), len(want.Events[i]))
					}
				}
			})
		}
	}
}
