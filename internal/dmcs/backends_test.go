package dmcs

import (
	"testing"

	"prema/internal/rtm"
	"prema/internal/sim"
	"prema/internal/substrate"
)

// backends runs f once per substrate backend: the deterministic simulator
// and the real-concurrency goroutine machine. DMCS semantics (tag
// filtering, poll counts, timeout behaviour) must be identical on both;
// only timings differ.
func backends(t *testing.T, f func(t *testing.T, m substrate.Machine)) {
	t.Run("sim", func(t *testing.T) {
		f(t, sim.NewMachine(sim.Config{Seed: 2}))
	})
	t.Run("real", func(t *testing.T) {
		cfg := rtm.DefaultConfig()
		cfg.Seed = 2
		// Ten times the default wall clock per virtual second: the tests'
		// virtual-time margins (a 1.5 s gap between a last retransmission
		// and a rejoin, 50 ms RTOs) must stay well above goroutine
		// scheduling delays when the rest of the suite loads the host.
		cfg.TimeScale = 1e-2
		f(t, rtm.New(cfg))
	})
}

// waitQueued parks until at least total messages are queued at ep. The
// timed waits return immediately once anything is queued, so the loop steps
// time forward with Advance — which always progresses, on both backends —
// until the whole burst has arrived.
func waitQueued(ep substrate.Endpoint, total int) {
	for ep.InboxLen() < total {
		ep.Advance(substrate.Millisecond, substrate.CatIdle)
	}
}

// TestPollTagTable: PollTag must dispatch exactly the messages carrying the
// requested tag — all of them, in arrival order, and nothing else — on both
// backends.
func TestPollTagTable(t *testing.T) {
	cases := []struct {
		name     string
		sys, app int
	}{
		{"empty", 0, 0},
		{"only-system", 3, 0},
		{"only-app", 0, 3},
		{"mixed", 2, 3},
		{"many", 8, 8},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			backends(t, func(t *testing.T, m substrate.Machine) {
				sysGot, appGot := 0, 0
				total := tc.sys + tc.app
				mkHandlers := func(c *Comm) (HandlerID, HandlerID) {
					hApp := c.Register(func(c *Comm, src int, data any, size int) { appGot++ })
					hSys := c.Register(func(c *Comm, src int, data any, size int) { sysGot++ })
					return hApp, hSys
				}
				m.Spawn("recv", func(ep substrate.Endpoint) {
					c := New(ep)
					mkHandlers(c)
					waitQueued(ep, total)
					if n := c.PollTag(substrate.TagSystem); n != tc.sys {
						t.Errorf("PollTag dispatched %d, want %d", n, tc.sys)
					}
					if sysGot != tc.sys || appGot != 0 {
						t.Errorf("after PollTag: sys=%d app=%d", sysGot, appGot)
					}
					if n := c.Poll(); n != tc.app {
						t.Errorf("Poll dispatched %d, want %d", n, tc.app)
					}
				})
				m.Spawn("send", func(ep substrate.Endpoint) {
					c := New(ep)
					hApp, hSys := mkHandlers(c)
					// Interleave the two classes as far as possible.
					s, a := tc.sys, tc.app
					for s > 0 || a > 0 {
						if s > 0 {
							c.SendTagged(0, hSys, nil, 0, substrate.TagSystem)
							s--
						}
						if a > 0 {
							c.Send(0, hApp, nil, 0)
							a--
						}
					}
				})
				if err := m.Run(); err != nil {
					t.Fatal(err)
				}
				if sysGot != tc.sys || appGot != tc.app {
					t.Fatalf("dispatched sys=%d app=%d, want %d/%d", sysGot, appGot, tc.sys, tc.app)
				}
			})
		})
	}
}

// TestWaitPollForTimeoutExpiry: with nothing in flight, WaitPollFor must
// dispatch nothing and not return before its deadline (in substrate time).
func TestWaitPollForTimeoutExpiry(t *testing.T) {
	for _, d := range []substrate.Time{substrate.Millisecond, 20 * substrate.Millisecond} {
		d := d
		backends(t, func(t *testing.T, m substrate.Machine) {
			m.Spawn("lonely", func(ep substrate.Endpoint) {
				c := New(ep)
				c.Register(func(c *Comm, src int, data any, size int) {
					t.Error("handler ran with no traffic")
				})
				t0 := ep.Now()
				if n := c.WaitPollFor(d, substrate.CatIdle); n != 0 {
					t.Errorf("dispatched %d from an empty network", n)
				}
				if el := ep.Now() - t0; el < d {
					t.Errorf("returned after %v, before the %v deadline", el, d)
				}
			})
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWaitPollForDeliversBeforeDeadline: a message in flight must be
// dispatched by a WaitPollFor loop well before a generous deadline.
func TestWaitPollForDeliversBeforeDeadline(t *testing.T) {
	backends(t, func(t *testing.T, m substrate.Machine) {
		got := 0
		m.Spawn("recv", func(ep substrate.Endpoint) {
			c := New(ep)
			c.Register(func(c *Comm, src int, data any, size int) { got++ })
			deadline := ep.Now() + 5*substrate.Second
			for got == 0 && ep.Now() < deadline {
				c.WaitPollFor(10*substrate.Millisecond, substrate.CatIdle)
			}
		})
		m.Spawn("send", func(ep substrate.Endpoint) {
			c := New(ep)
			h := c.Register(func(c *Comm, src int, data any, size int) {})
			c.Send(0, h, nil, 0)
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if got != 1 {
			t.Fatalf("dispatched %d messages", got)
		}
	})
}
