package rtm_test

import (
	"fmt"
	"testing"

	"prema/internal/dmcs"
	"prema/internal/faulty"
	"prema/internal/mol"
	"prema/internal/rtm"
	"prema/internal/sim"
	"prema/internal/substrate"
)

// chainObj is the payload of the migrating object: every work message that
// reaches it is recorded under its origin processor.
type chainObj struct {
	perOrigin [][]int
	total     int
}

// runForwardingChain is the property under test: one mobile object is
// migrated hop by hop around the ring (proc 0 → 1 → 2 → ...) for `hops`
// migrations while every processor concurrently fires `msgs` work messages
// at it. Location caches are stale by construction (NotifyOrigin off), so
// messages chase the object along the forwarding chain. The MOL must deliver
// every message exactly once, in per-origin send order, no matter where the
// object is when each message lands.
//
// Returns each processor's view of the object at the end (nil if not
// resident there, else the recorded per-origin payload sequences) and the
// machine-wide forward count.
func runForwardingChain(t *testing.T, m substrate.Machine, procs, hops, msgs int, rel dmcs.RelConfig) ([][][]int, int) {
	t.Helper()
	mp := mol.MobilePtr{Home: 0, Index: 0}
	results := make([][][]int, procs)
	forwards := make([]int, procs)
	for p := 0; p < procs; p++ {
		m.Spawn(fmt.Sprintf("p%d", p), func(ep substrate.Endpoint) {
			self := ep.ID()
			c := dmcs.New(ep)
			c.EnableReliable(rel)
			cfg := mol.DefaultConfig()
			cfg.NotifyOrigin = false // keep caches stale: messages chase the whole chain
			l := mol.New(c, cfg)

			stopped := false
			allDone, chainDone := false, false
			var hStop, hDone, hChain, hHop dmcs.HandlerID
			maybeStop := func() {
				if self == 0 && allDone && chainDone && !stopped {
					stopped = true
					for q := 1; q < procs; q++ {
						c.SendTagged(q, hStop, nil, 8, substrate.TagSystem)
					}
				}
			}
			hStop = c.Register(func(c *dmcs.Comm, src int, data any, size int) { stopped = true })
			hDone = c.Register(func(c *dmcs.Comm, src int, data any, size int) { allDone = true; maybeStop() })
			hChain = c.Register(func(c *dmcs.Comm, src int, data any, size int) { chainDone = true; maybeStop() })
			// The hop token drives the migration chain. It always travels on
			// the same system-tagged stream as the migration it follows, so
			// FIFO (native, or restored by reliable mode) guarantees the
			// object is resident when the token arrives.
			hHop = c.Register(func(c *dmcs.Comm, src int, data any, size int) {
				k := data.(int)
				if l.Local()[mp] == nil {
					t.Errorf("proc %d: hop %d token overtook its migration", self, k)
					return
				}
				if k >= hops {
					c.SendTagged(0, hChain, nil, 8, substrate.TagSystem)
					return
				}
				next := (self + 1) % procs
				if err := l.Migrate(mp, next); err != nil {
					t.Error(err)
					return
				}
				c.SendTagged(next, hHop, k+1, 8, substrate.TagSystem)
			})
			hWork := l.RegisterHandler(func(l *mol.Layer, obj *mol.Object, src int, data any, size int) {
				o := obj.Data.(*chainObj)
				o.perOrigin[src] = append(o.perOrigin[src], data.(int))
				o.total++
				// A little compute per message keeps the object in motion
				// while messages are still in flight.
				ep.Advance(500*substrate.Microsecond, substrate.CatCompute)
				if o.total == procs*msgs {
					l.Comm().SendTagged(0, hDone, nil, 8, substrate.TagSystem)
				}
			})

			if self == 0 {
				if got := l.Register(&chainObj{perOrigin: make([][]int, procs)}, 256); got != mp {
					t.Errorf("registered %v, want %v", got, mp)
				}
				if hops > 0 {
					next := 1 % procs
					if err := l.Migrate(mp, next); err != nil {
						t.Error(err)
					}
					c.SendTagged(next, hHop, 1, 8, substrate.TagSystem)
				} else {
					c.SendTagged(0, hChain, nil, 8, substrate.TagSystem)
				}
			}
			for i := 0; i < msgs; i++ {
				l.Message(mp, hWork, i, 16, substrate.TagApp, 0)
			}
			deadline := ep.Now() + 600*substrate.Second
			for !stopped && ep.Now() < deadline {
				c.WaitPollFor(substrate.Millisecond, substrate.CatIdle)
			}
			if !stopped {
				t.Errorf("proc %d: timed out before global stop", self)
			}
			c.Quiesce()
			if obj := l.Local()[mp]; obj != nil {
				results[self] = obj.Data.(*chainObj).perOrigin
			}
			forwards[self] = l.Stats.Forwards
		})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, f := range forwards {
		total += f
	}
	return results, total
}

// checkChain asserts the exactly-once, per-origin-order property and the
// program-dictated final placement.
func checkChain(t *testing.T, results [][][]int, forwards, procs, hops, msgs int) {
	t.Helper()
	resident := -1
	for p, r := range results {
		if r == nil {
			continue
		}
		if resident >= 0 {
			t.Fatalf("object resident on both proc %d and proc %d", resident, p)
		}
		resident = p
	}
	if want := hops % procs; resident != want {
		t.Fatalf("object ended on proc %d, want %d after %d hops", resident, want, hops)
	}
	for origin, got := range results[resident] {
		if len(got) != msgs {
			t.Fatalf("origin %d: delivered %d messages, want %d (%v)", origin, len(got), msgs, got)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("origin %d: position %d got payload %d — reordered or duplicated (%v)", origin, i, v, got)
			}
		}
	}
	if forwards == 0 {
		t.Error("no message was ever forwarded — the chain was not exercised")
	}
}

// TestMolForwardingChain runs the forwarding-chain property on both backends
// (the rtm legs run under the race detector in CI) in three transports:
// classic DMCS on a clean network, reliable DMCS on a clean network, and
// reliable DMCS on a lossy, duplicating, reordering network.
func TestMolForwardingChain(t *testing.T) {
	cases := []struct{ procs, hops, msgs int }{
		{2, 5, 20},
		{4, 9, 25},
		{5, 17, 10},
	}
	lossy := faulty.Plan{Default: faulty.LinkFaults{Drop: 0.15, Dup: 0.10, Reorder: 0.20}}
	rel := dmcs.RelConfig{
		Enabled:      true,
		RTO:          10 * substrate.Millisecond,
		RTOMax:       100 * substrate.Millisecond,
		Linger:       300 * substrate.Millisecond,
		DrainTimeout: 30 * substrate.Second,
	}
	modes := []struct {
		name  string
		plan  faulty.Plan
		rel   dmcs.RelConfig
		scale float64 // rtm time scale (0 = default)
	}{
		// Every mode slows the real-time machine down to 1e-2. The reliable
		// modes need it so sub-RTO waits stay above the host's scheduling
		// granularity (at the default 1e-3 a 50ms virtual RTO is 50µs of wall
		// clock, and every send looks timed out); the classic mode needs it
		// so the virtual deadline — which burns wall clock whether or not
		// this test's goroutines get scheduled — survives a loaded host
		// running sibling test binaries.
		{name: "classic-clean", scale: 1e-2},
		{name: "reliable-clean", rel: dmcs.DefaultRelConfig(), scale: 1e-2},
		{name: "reliable-lossy", plan: lossy, rel: rel, scale: 1e-2},
	}
	for _, tc := range cases {
		for _, mode := range modes {
			tc, mode := tc, mode
			name := fmt.Sprintf("%s/p%d-k%d-n%d", mode.name, tc.procs, tc.hops, tc.msgs)
			t.Run(name+"/sim", func(t *testing.T) {
				var m substrate.Machine = sim.NewMachine(sim.Config{Seed: 9})
				if mode.plan.Active() {
					m = faulty.Wrap(m, mode.plan, 7)
				}
				results, fwd := runForwardingChain(t, m, tc.procs, tc.hops, tc.msgs, mode.rel)
				checkChain(t, results, fwd, tc.procs, tc.hops, tc.msgs)
			})
			t.Run(name+"/real", func(t *testing.T) {
				cfg := rtm.DefaultConfig()
				cfg.Seed = 9
				if mode.scale > 0 {
					cfg.TimeScale = mode.scale
					if raceDetector {
						// Race instrumentation slows wall-clock execution
						// roughly tenfold, which pushes sub-RTO waits back
						// under the host scheduling granularity; slow the
						// virtual clock to match.
						cfg.TimeScale *= 10
					}
				}
				var m substrate.Machine = rtm.New(cfg)
				if mode.plan.Active() {
					m = faulty.Wrap(m, mode.plan, 7)
				}
				results, fwd := runForwardingChain(t, m, tc.procs, tc.hops, tc.msgs, mode.rel)
				checkChain(t, results, fwd, tc.procs, tc.hops, tc.msgs)
			})
		}
	}
}
