package faulty

import (
	"reflect"
	"testing"

	"prema/internal/sim"
	"prema/internal/substrate"
)

// TestRecoverPlanRoundTrip: recover clauses parse like every other plan
// entry, and a plan holding one is active.
func TestRecoverPlanRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		text string
		want Plan
	}{
		{"crash:7@20s;recover:7@40s", Plan{
			Crashes:  []Crash{{Proc: 7, At: 20 * substrate.Second}},
			Recovers: []Recover{{Proc: 7, At: 40 * substrate.Second}},
		}},
		{"drop=0.1;stall:2@5s+500ms;crash:1@10s;crash:1@1m0s;recover:1@30s", Plan{
			Default:  LinkFaults{Drop: 0.1},
			Stalls:   []Stall{{Proc: 2, At: 5 * substrate.Second, For: 500 * substrate.Millisecond}},
			Crashes:  []Crash{{Proc: 1, At: 10 * substrate.Second}, {Proc: 1, At: 60 * substrate.Second}},
			Recovers: []Recover{{Proc: 1, At: 30 * substrate.Second}},
		}},
	} {
		got, err := ParsePlan(tc.text)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", tc.text, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParsePlan(%q):\n got %+v\nwant %+v", tc.text, got, tc.want)
		}
		if !got.Active() {
			t.Errorf("%q should be active", tc.text)
		}
	}
}

// TestRecoverPlanValidation: crash/recover schedules must alternate per
// processor; anything else is rejected at parse time.
func TestRecoverPlanValidation(t *testing.T) {
	for _, s := range []string{
		"recover:1@10s",                                       // rejoin with no crash
		"crash:1@20s;recover:1@10s",                           // rejoin before its crash
		"crash:1@20s;recover:1@20s",                           // rejoin at the crash instant
		"crash:1@10s;recover:1@20s;recover:1@30s",             // two rejoins, one crash
		"crash:1@10s;crash:1@30s;recover:1@40s;recover:1@50s", // second rejoin after both crashes
		"recover:-1@10s",                                      // negative processor
		"recover:1",                                           // missing time
		"recover:1@sometime",                                  // bad duration
	} {
		if _, err := ParsePlan(s); err == nil {
			t.Errorf("ParsePlan(%q) accepted an invalid crash/recover schedule", s)
		}
	}
	for _, s := range []string{
		"crash:1@10s;recover:1@20s",
		"crash:1@10s;recover:1@20s;crash:1@30s;recover:1@40s",
		"crash:1@10s;recover:1@20s;crash:1@30s", // final crash permanent
		"crash:2@10s;crash:3@15s;recover:3@25s", // mixed permanent + healed
	} {
		if _, err := ParsePlan(s); err != nil {
			t.Errorf("ParsePlan(%q): %v; want valid", s, err)
		}
	}
}

// TestRejoin: with an OnRejoin factory installed, a crash:P;recover:P plan
// runs a fresh incarnation from the rejoin time — starting with an empty
// inbox (the dead incarnation's mail is lost) and honouring any later
// scheduled crash.
func TestRejoin(t *testing.T) {
	plan, err := ParsePlan("crash:1@5s;recover:1@12s")
	if err != nil {
		t.Fatal(err)
	}
	fm := Wrap(sim.NewMachine(sim.Config{Seed: 4}), plan, 1)
	var rejoinStart substrate.Time
	rejoinInbox := -1
	secondLife := 0
	fm.Spawn("p0", func(ep substrate.Endpoint) {
		// Feed proc 1 a message every second; the ones sent while it is down
		// (5s..12s) must never surface in the second incarnation.
		for ep.Now() < secs(20) {
			ep.Send(&substrate.Msg{Dst: 1, Data: int(ep.Now() / substrate.Second), Size: 8}, substrate.CatMessaging)
			ep.Advance(secs(1), substrate.CatCompute)
		}
	})
	fm.Spawn("p1", func(ep substrate.Endpoint) {
		for {
			ep.Advance(100*substrate.Millisecond, substrate.CatCompute)
			for ep.TryRecv(substrate.CatMessaging) != nil {
			}
		}
	})
	fm.OnRejoin(func(id int) func(substrate.Endpoint) {
		if id != 1 {
			t.Errorf("OnRejoin called for processor %d, want 1", id)
		}
		return func(ep substrate.Endpoint) {
			rejoinStart = ep.Now()
			rejoinInbox = ep.InboxLen()
			for ep.Now() < secs(20) {
				ep.Advance(100*substrate.Millisecond, substrate.CatCompute)
				if ep.TryRecv(substrate.CatMessaging) != nil {
					secondLife++
				}
			}
		}
	})
	if err := fm.Run(); err != nil {
		t.Fatal(err)
	}
	st := fm.eps[1].stats
	if !st.Crashed || st.Rejoins != 1 {
		t.Fatalf("stats = %+v, want crashed with 1 rejoin", st)
	}
	if rejoinStart < secs(12) {
		t.Errorf("second incarnation started at %v, want >= 12s", rejoinStart)
	}
	if rejoinInbox != 0 {
		t.Errorf("second incarnation started with %d queued messages, want 0", rejoinInbox)
	}
	if secondLife == 0 {
		t.Error("second incarnation received nothing; expected post-rejoin traffic")
	}
}

// TestRejoinThenSecondCrash: a crash → recover → crash schedule runs two
// incarnations and leaves the processor dead after the second crash.
func TestRejoinThenSecondCrash(t *testing.T) {
	plan, err := ParsePlan("crash:1@3s;recover:1@6s;crash:1@9s")
	if err != nil {
		t.Fatal(err)
	}
	fm := Wrap(sim.NewMachine(sim.Config{Seed: 4}), plan, 1)
	var lastSeen substrate.Time
	spin := func(ep substrate.Endpoint) {
		for ep.Now() < secs(20) {
			ep.Advance(100*substrate.Millisecond, substrate.CatCompute)
			lastSeen = ep.Now()
		}
	}
	fm.Spawn("p0", func(ep substrate.Endpoint) { ep.Advance(secs(20), substrate.CatIdle) })
	fm.Spawn("p1", spin)
	fm.OnRejoin(func(id int) func(substrate.Endpoint) { return spin })
	if err := fm.Run(); err != nil {
		t.Fatal(err)
	}
	st := fm.eps[1].stats
	if st.Rejoins != 1 {
		t.Fatalf("rejoins = %d, want 1", st.Rejoins)
	}
	if lastSeen < secs(6) || lastSeen >= secs(10) {
		t.Errorf("processor last ran at %v, want within [6s, 10s) (second incarnation dead at 9s)", lastSeen)
	}
}
