package rtm_test

import (
	"runtime"
	"testing"
	"time"

	"prema/internal/rtm"
	"prema/internal/substrate"
)

// The polled-advance tests run one 5 s work unit — the paper's light unit —
// under a 10 ms polling thread on a machine at TimeScale 1e-2, so a unit is
// 50 ms of wall clock and one poll period 100 µs. Returning late by up to
// slack is timer and scheduler overshoot; returning early, or at the wrong
// poll, is a bug.

const (
	unit     = 5 * substrate.Second
	interval = 10 * substrate.Millisecond
	sendAt   = substrate.Second // when the peer sends mid-unit
	// unitPolls is K for one unit: every slice but the last ends in a poll.
	unitPolls = int((unit - 1) / interval)
)

var pollSpec = substrate.PollSpec{
	Interval: interval,
	Cost:     4 * substrate.Microsecond,
	Tag:      substrate.TagSystem,
	WakeBy:   substrate.Never,
}

func polledConfig() rtm.Config {
	cfg := rtm.DefaultConfig()
	cfg.TimeScale = 1e-2
	cfg.Seed = 1
	return cfg
}

// slack is how late a wake-up may come back: timer and scheduler
// overshoot, larger under the race detector.
func slack() substrate.Time {
	if raceDetector {
		return 2 * substrate.Second
	}
	return 500 * substrate.Millisecond
}

// polled is one AdvancePolled call as its caller saw it: the clock around
// the call, what it returned, and the ledger it left.
type polled struct {
	t0, t1      substrate.Time
	done        substrate.Time
	polls       int
	compute, pt substrate.Time
}

func advancePolled(ep substrate.Endpoint, ps substrate.PollSpec) polled {
	var r polled
	r.t0 = ep.Now()
	r.done, r.polls = ep.AdvancePolled(unit, ps)
	r.t1 = ep.Now()
	return r
}

// runUnit runs one unit under ps on rank 0 while rank 1 sends it one
// message with tag at sendAt (no message when tag is negative); a WakeBy
// other than Never counts from the call. It returns the call and when it
// was due back: the message's arrival, else the absolute WakeBy.
func runUnit(t *testing.T, newMachine func(rtm.Config) machine, ps substrate.PollSpec, tag int) (r polled, due substrate.Time) {
	t.Helper()
	m := newMachine(polledConfig())
	m.Spawn("computer", func(ep substrate.Endpoint) {
		if ps.WakeBy != substrate.Never {
			ps.WakeBy += ep.Now()
		}
		due = ps.WakeBy
		r = advancePolled(ep, ps)
		for ep.InboxLen() == 0 && tag >= 0 {
			ep.WaitMsg(substrate.CatIdle)
		}
		if msg := ep.TryRecv(substrate.CatMessaging); msg != nil {
			due = msg.ArrivedAt
		}
	})
	m.Spawn("peer", func(ep substrate.Endpoint) {
		if tag >= 0 {
			ep.Advance(sendAt, substrate.CatCompute)
			ep.Send(&substrate.Msg{Dst: 0, Tag: tag}, substrate.CatMessaging)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	acct := m.Account(0)
	r.compute, r.pt = acct[substrate.CatCompute], acct[substrate.CatPollThread]
	return r, due
}

// checkQuiet: the whole unit in one call, (d, K), K polls at their nominal
// cost, and a ledger that adds up to the elapsed time — at least the
// nominal d + K*Cost, at most what the caller measured around the call.
func checkQuiet(t *testing.T, r polled) {
	t.Helper()
	if r.done != unit || r.polls != unitPolls {
		t.Fatalf("AdvancePolled = (%v, %d), want (%v, %d)", r.done, r.polls, unit, unitPolls)
	}
	if want := substrate.Time(unitPolls) * pollSpec.Cost; r.pt != want {
		t.Errorf("polling thread charged %v, want %d x %v = %v", r.pt, unitPolls, pollSpec.Cost, want)
	}
	nominal := unit + substrate.Time(unitPolls)*pollSpec.Cost
	if sum := r.compute + r.pt; sum < nominal || sum > r.t1-r.t0 {
		t.Errorf("compute + polling = %v, want the elapsed time, in [%v, %v]", sum, nominal, r.t1-r.t0)
	}
}

// checkWokeAt: the call came back at the first poll boundary at or after
// at — never before it, and at no earlier boundary. The endpoint's grid
// starts no earlier than the caller's t0, so a boundary before at on the
// caller's grid is one on the endpoint's too.
func checkWokeAt(t *testing.T, r polled, at substrate.Time) {
	t.Helper()
	period := pollSpec.Interval + pollSpec.Cost
	if r.polls < 1 || r.polls >= unitPolls || r.done != substrate.Time(r.polls)*pollSpec.Interval {
		t.Fatalf("AdvancePolled = (%v, %d), want an early return at a poll boundary", r.done, r.polls)
	}
	if r.t1 < at {
		t.Errorf("returned at %v, before %v", r.t1, at)
	}
	if c := r.t0 + substrate.Time(r.polls-1)*period; c >= at {
		t.Errorf("returned after poll %d, but poll %d (at %v) already saw %v", r.polls, r.polls-1, c, at)
	}
	if late := r.t1 - at; late > period+slack() {
		t.Errorf("returned %v after %v, want within one period (%v) plus slack", late, at, period)
	}
	if want := substrate.Time(r.polls) * pollSpec.Cost; r.pt != want {
		t.Errorf("polling thread charged %v, want %v", r.pt, want)
	}
}

// TestAdvancePolledQuietUnit: a unit nothing interrupts is one call.
func TestAdvancePolledQuietUnit(t *testing.T) {
	onBothShapes(t, func(t *testing.T, newMachine func(rtm.Config) machine) {
		r, _ := runUnit(t, newMachine, pollSpec, -1)
		checkQuiet(t, r)
	})
}

// TestAdvancePolledWakesForMessage: a message the poll drains, sent
// mid-unit, ends the stretch at the first poll that sees it; one of another
// tag does not, unless the poll drains every tag.
func TestAdvancePolledWakesForMessage(t *testing.T) {
	anyTag := pollSpec
	anyTag.AnyTag = true
	cases := []struct {
		name  string
		ps    substrate.PollSpec
		tag   int
		early bool
	}{
		{"system", pollSpec, substrate.TagSystem, true},
		{"app", pollSpec, substrate.TagApp, false},
		{"app-anytag", anyTag, substrate.TagApp, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			onBothShapes(t, func(t *testing.T, newMachine func(rtm.Config) machine) {
				r, due := runUnit(t, newMachine, c.ps, c.tag)
				if c.early {
					checkWokeAt(t, r, due)
				} else {
					checkQuiet(t, r)
				}
			})
		})
	}
}

// TestAdvancePolledWakeBy: WakeBy ends the stretch at the first poll at or
// after it.
func TestAdvancePolledWakeBy(t *testing.T) {
	onBothShapes(t, func(t *testing.T, newMachine func(rtm.Config) machine) {
		ps := pollSpec
		ps.WakeBy = sendAt
		r, due := runUnit(t, newMachine, ps, -1)
		checkWokeAt(t, r, due)
	})
}

// TestAdvancePolledFail: a processor parked in a polled advance dies when
// the machine fails, and leaves no goroutine behind.
func TestAdvancePolledFail(t *testing.T) {
	onBothShapes(t, func(t *testing.T, newMachine func(rtm.Config) machine) {
		before := runtime.NumGoroutine()
		m := newMachine(polledConfig())
		returned := false
		m.Spawn("computer", func(ep substrate.Endpoint) {
			// An hour of virtual compute: 36 s of wall clock unless killed.
			ep.AdvancePolled(3600*substrate.Second, pollSpec)
			returned = true
		})
		m.Spawn("stopper", func(ep substrate.Endpoint) {
			ep.Advance(sendAt, substrate.CatCompute)
			m.Fail(nil)
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if returned {
			t.Error("AdvancePolled returned on a failed machine")
		}
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%d goroutines after the run, %d before", n, before)
		}
	})
}
