package faulty

import (
	"fmt"
	"reflect"
	"testing"

	"prema/internal/sim"
	"prema/internal/substrate"
)

// TestParsePlanRoundTrip: the compact syntax parses to the plan it spells,
// with the magnitude defaults of a bare delay or reorder filled in.
func TestParsePlanRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		text string
		want Plan
	}{
		{"none", Plan{}},
		{"drop=0.25", Plan{Default: LinkFaults{Drop: 0.25}}},
		{"drop=0.2,dup=0.1,delay=0.05:10ms,reorder=0.3:4",
			Plan{Default: LinkFaults{Drop: 0.2, Dup: 0.1, Delay: 0.05, DelayMax: 10 * substrate.Millisecond, Reorder: 0.3, ReorderDepth: 4}}},
		{"delay=0.05,reorder=0.3",
			Plan{Default: LinkFaults{Delay: 0.05, DelayMax: 10 * substrate.Millisecond, Reorder: 0.3, ReorderDepth: 4}}},
		{"drop=0.1;link:0-3:dup=0.5;link:2-1:drop=1;stall:2@5s+500ms;crash:7@20s", Plan{
			Default: LinkFaults{Drop: 0.1},
			Links: map[Link]LinkFaults{
				{Src: 0, Dst: 3}: {Dup: 0.5},
				{Src: 2, Dst: 1}: {Drop: 1},
			},
			Stalls:  []Stall{{Proc: 2, At: 5 * substrate.Second, For: 500 * substrate.Millisecond}},
			Crashes: []Crash{{Proc: 7, At: 20 * substrate.Second}},
		}},
	} {
		got, err := ParsePlan(tc.text)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", tc.text, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParsePlan(%q):\n got %+v\nwant %+v", tc.text, got, tc.want)
		}
	}
}

// TestParsePlanErrors: malformed plans must be rejected, not half-applied.
func TestParsePlanErrors(t *testing.T) {
	for _, s := range []string{
		"drop=1.5",            // probability out of range
		"drop=x",              // not a number
		"warp=0.5",            // unknown fault
		"delay=0.1:never",     // bad duration
		"reorder=0.1:0",       // bad depth
		"link:0:drop=0.5",     // malformed endpoints
		"link:a-b:drop=0.5",   // non-numeric endpoints
		"stall:1@5s",          // missing duration
		"crash:-1@5s",         // negative processor
		"crash:1",             // missing time
		"drop",                // missing value
		"stall:1@5s+intended", // bad stall duration
	} {
		if _, err := ParsePlan(s); err == nil {
			t.Errorf("ParsePlan(%q) accepted a malformed plan", s)
		}
	}
	if p, err := ParsePlan("none"); err != nil || p.Active() {
		t.Errorf("ParsePlan(\"none\") = %+v, %v; want inactive empty plan", p, err)
	}
}

// exchange runs a two-processor ping stream on a faulted simulator: proc 1
// sends n messages to proc 0, which drains whatever arrives until the
// network has been quiet for a second. It returns the payloads received in
// order and the machine's fault stats.
func exchange(t *testing.T, plan Plan, seed int64, n int) ([]int, Stats) {
	t.Helper()
	fm := Wrap(sim.NewMachine(sim.Config{Seed: 4}), plan, seed)
	var got []int
	fm.Spawn("recv", func(ep substrate.Endpoint) {
		idle := 0
		for idle < 3 {
			if m := ep.TryRecv(substrate.CatMessaging); m != nil {
				got = append(got, m.Data.(int))
				idle = 0
				continue
			}
			if !ep.WaitMsgFor(secs(1), substrate.CatIdle) {
				idle++
			}
		}
	})
	fm.Spawn("send", func(ep substrate.Endpoint) {
		for i := 0; i < n; i++ {
			ep.Send(&substrate.Msg{Dst: 0, Data: i, Size: 8}, substrate.CatMessaging)
		}
	})
	if err := fm.Run(); err != nil {
		t.Fatal(err)
	}
	return got, fm.Stats()
}

func secs(sec int) substrate.Time { return substrate.Time(sec) * substrate.Second }

// TestLinkFaultModes exercises each fault in isolation at probability 1.
func TestLinkFaultModes(t *testing.T) {
	const n = 20
	t.Run("drop", func(t *testing.T) {
		got, st := exchange(t, Plan{Default: LinkFaults{Drop: 1}}, 1, n)
		if len(got) != 0 || st.Dropped != n {
			t.Errorf("drop=1: delivered %d, dropped %d; want 0, %d", len(got), st.Dropped, n)
		}
	})
	t.Run("dup", func(t *testing.T) {
		got, st := exchange(t, Plan{Default: LinkFaults{Dup: 1}}, 1, n)
		if len(got) != 2*n || st.Dupped != n {
			t.Errorf("dup=1: delivered %d, dupped %d; want %d, %d", len(got), st.Dupped, 2*n, n)
		}
	})
	t.Run("delay", func(t *testing.T) {
		got, st := exchange(t, Plan{Default: LinkFaults{Delay: 1, DelayMax: 100 * substrate.Millisecond}}, 1, n)
		if len(got) != n || st.Delayed != n {
			t.Errorf("delay=1: delivered %d, delayed %d; want %d, %d", len(got), st.Delayed, n, n)
		}
	})
	t.Run("reorder", func(t *testing.T) {
		got, st := exchange(t, Plan{Default: LinkFaults{Reorder: 1, ReorderDepth: 8}}, 1, n)
		if len(got) != n || st.Reordered != n {
			t.Fatalf("reorder=1: delivered %d, reordered %d; want %d, %d", len(got), st.Reordered, n, n)
		}
		inOrder := true
		for i, v := range got {
			if v != i {
				inOrder = false
			}
		}
		if inOrder {
			t.Error("reorder=1 delivered every message in order")
		}
	})
	t.Run("loopback-exempt", func(t *testing.T) {
		fm := Wrap(sim.NewMachine(sim.Config{Seed: 4}), Plan{Default: LinkFaults{Drop: 1}}, 1)
		got := 0
		fm.Spawn("self", func(ep substrate.Endpoint) {
			ep.Send(&substrate.Msg{Dst: 0, Data: 1, Size: 8}, substrate.CatMessaging)
			if ep.WaitMsgFor(secs(5), substrate.CatIdle) {
				if m := ep.TryRecv(substrate.CatMessaging); m != nil {
					got++
				}
			}
		})
		if err := fm.Run(); err != nil {
			t.Fatal(err)
		}
		if got != 1 {
			t.Errorf("loopback message was faulted away (got %d)", got)
		}
	})
}

// TestDupDeliversACopy: a delivered message belongs to its receiver (see
// substrate.Msg), so a duplicated delivery hands up a copy — never the
// pointer it already handed up — and the receiver may reuse each message.
func TestDupDeliversACopy(t *testing.T) {
	const n = 20
	fm := Wrap(sim.NewMachine(sim.Config{Seed: 4}), Plan{Default: LinkFaults{Dup: 1}}, 1)
	seen := make(map[*substrate.Msg]int)
	fm.Spawn("recv", func(ep substrate.Endpoint) {
		for len(seen) < 2*n {
			if !ep.WaitMsgFor(secs(1), substrate.CatIdle) {
				break
			}
			for m := ep.TryRecv(substrate.CatMessaging); m != nil; m = ep.TryRecv(substrate.CatMessaging) {
				if prev, ok := seen[m]; ok {
					t.Errorf("message %d handed up twice as the same pointer (first as %d)", m.Data.(int), prev)
				}
				seen[m] = m.Data.(int)
			}
		}
	})
	fm.Spawn("send", func(ep substrate.Endpoint) {
		for i := 0; i < n; i++ {
			ep.Send(&substrate.Msg{Dst: 0, Data: i, Size: 8}, substrate.CatMessaging)
		}
	})
	if err := fm.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2*n {
		t.Errorf("received %d distinct messages, want %d", len(seen), 2*n)
	}
}

// TestPerLinkOverride: a link override replaces the default model on that
// directed link only, with the default magnitudes filled in; a source the
// receiver's resolved table covers without an override of its own keeps
// the default model.
func TestPerLinkOverride(t *testing.T) {
	plan := Plan{
		Default: LinkFaults{Drop: 1},
		Links:   map[Link]LinkFaults{{Src: 1, Dst: 0}: {}},
	}
	got, st := exchange(t, plan, 1, 10)
	if len(got) != 10 || st.Dropped != 0 {
		t.Errorf("overridden link dropped traffic: delivered %d, dropped %d", len(got), st.Dropped)
	}
	plan.Links = map[Link]LinkFaults{{Src: 2, Dst: 0}: {}}
	got, st = exchange(t, plan, 1, 10)
	if len(got) != 0 || st.Dropped != 10 {
		t.Errorf("an override of link 2-0 changed link 1-0: delivered %d, dropped %d; want 0, 10", len(got), st.Dropped)
	}
	plan = Plan{Links: map[Link]LinkFaults{{Src: 1, Dst: 0}: {Delay: 1}}}
	got, st = exchange(t, plan, 1, 10)
	if len(got) != 10 || st.Delayed != 10 {
		t.Errorf("delay=1 override without DelayMax: delivered %d, delayed %d; want 10, 10", len(got), st.Delayed)
	}
}

// TestDeterministicInjection: the injector's whole point — same seed, same
// faults, same delivery; different seed, different faults.
func TestDeterministicInjection(t *testing.T) {
	plan := Plan{Default: LinkFaults{Drop: 0.3, Dup: 0.2, Delay: 0.1, Reorder: 0.2}}
	const n = 200
	got1, st1 := exchange(t, plan, 11, n)
	got2, st2 := exchange(t, plan, 11, n)
	if !reflect.DeepEqual(got1, got2) || st1 != st2 {
		t.Errorf("same seed diverged: %d vs %d delivered, %+v vs %+v", len(got1), len(got2), st1, st2)
	}
	got3, st3 := exchange(t, plan, 12, n)
	if reflect.DeepEqual(got1, got3) && st1 == st3 {
		t.Errorf("different seeds produced identical runs (%+v)", st1)
	}
}

// TestStall: a scheduled stall freezes the processor for the configured
// window, visible as idle time in its account.
func TestStall(t *testing.T) {
	plan := Plan{Stalls: []Stall{{Proc: 0, At: secs(1), For: secs(10)}}}
	fm := Wrap(sim.NewMachine(sim.Config{Seed: 4}), plan, 1)
	fm.Spawn("worker", func(ep substrate.Endpoint) {
		for ep.Now() < secs(2) {
			ep.Advance(100*substrate.Millisecond, substrate.CatCompute)
		}
	})
	if err := fm.Run(); err != nil {
		t.Fatal(err)
	}
	if st := fm.Stats(); st.Stalls != 1 {
		t.Errorf("stalls fired %d times, want 1", st.Stalls)
	}
	if idle := fm.Account(0)[substrate.CatIdle]; idle < secs(10) {
		t.Errorf("stalled processor logged %v idle, want >= %v", idle, secs(10))
	}
}

// TestCrash: a fail-stop tears down one processor's body; the machine still
// completes, the victim goes silent, survivors keep exchanging messages.
func TestCrash(t *testing.T) {
	plan := Plan{Crashes: []Crash{{Proc: 1, At: secs(5)}}}
	fm := Wrap(sim.NewMachine(sim.Config{Seed: 4}), plan, 1)
	sent := make([]int, 3)
	for p := 0; p < 3; p++ {
		fm.Spawn(fmt.Sprintf("p%d", p), func(ep substrate.Endpoint) {
			for ep.Now() < secs(20) {
				ep.Send(&substrate.Msg{Dst: (ep.ID() + 1) % 3, Data: 0, Size: 8}, substrate.CatMessaging)
				sent[ep.ID()]++
				ep.Advance(secs(1), substrate.CatCompute)
				for ep.TryRecv(substrate.CatMessaging) != nil {
				}
			}
		})
	}
	if err := fm.Run(); err != nil {
		t.Fatal(err)
	}
	if !fm.Stats().Crashed || !fm.eps[1].stats.Crashed {
		t.Fatalf("crash never fired: %+v", fm.Stats())
	}
	// The victim stopped at t=5 (≈5 sends); survivors ran the full 20.
	if sent[1] >= sent[0] || sent[1] >= sent[2] {
		t.Errorf("crashed processor sent %d messages, survivors %d and %d", sent[1], sent[0], sent[2])
	}
}

// TestNoLinkFaultsBuildsNoSource: link faults are the injector's only
// draws, so a plan of crashes and stalls alone builds no random source on
// any endpoint, however much traffic it carries, and one link fault builds
// a source only on the endpoint that link feeds.
func TestNoLinkFaultsBuildsNoSource(t *testing.T) {
	for _, tc := range []struct {
		plan Plan
		want []bool // which endpoints end with a source
	}{
		{Plan{Stalls: []Stall{{Proc: 0, At: secs(1), For: secs(2)}}, Crashes: []Crash{{Proc: 2, At: secs(4)}}}, []bool{false, false, false}},
		{Plan{Links: map[Link]LinkFaults{{Src: 0, Dst: 1}: {Drop: 0.5}}}, []bool{false, true, false}},
	} {
		fm := Wrap(sim.NewMachine(sim.Config{Seed: 4}), tc.plan, 1)
		for p := 0; p < 3; p++ {
			fm.Spawn(fmt.Sprintf("p%d", p), func(ep substrate.Endpoint) {
				for ep.Now() < secs(8) {
					ep.Send(&substrate.Msg{Dst: (ep.ID() + 1) % 3, Size: 8}, substrate.CatMessaging)
					ep.Advance(secs(1), substrate.CatCompute)
					for ep.TryRecv(substrate.CatMessaging) != nil {
					}
				}
			})
		}
		if err := fm.Run(); err != nil {
			t.Fatal(err)
		}
		for i, e := range fm.eps {
			if got := e.rng != nil; got != tc.want[i] {
				t.Errorf("plan %+v: endpoint %d built a source = %v, want %v", tc.plan, i, got, tc.want[i])
			}
		}
	}
}

// TestUnwrapReachesInner: the injector is transparent to decorator-chain
// walks — substrate.Find reaches the machine it wraps.
func TestUnwrapReachesInner(t *testing.T) {
	inner := sim.NewMachine(sim.Config{Seed: 4})
	fm := Wrap(inner, Plan{}, 1)
	if fm.Unwrap() != substrate.Machine(inner) {
		t.Fatal("Unwrap did not return the wrapped machine")
	}
	if got, ok := substrate.Find[sim.Machine](fm); !ok || got != inner {
		t.Errorf("Find through the injector = %v, %v; want the inner simulator", got, ok)
	}
}
