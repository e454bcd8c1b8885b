package ilb

import (
	"fmt"
	"testing"

	"prema/internal/dmcs"
	"prema/internal/mol"
	"prema/internal/sim"
)

func newSched(p *sim.Proc, mode Mode) *Scheduler {
	l := mol.New(dmcs.New(p), mol.DefaultConfig())
	return New(l, DefaultConfig(mode), NopPolicy{})
}

func TestFIFOExecutionAndLoadAccounting(t *testing.T) {
	e := sim.NewEngine(sim.Config{Seed: 1})
	var ran []int
	e.Spawn("p", func(p *sim.Proc) {
		s := newSched(p, Explicit)
		h := s.Mol().RegisterHandler(func(l *mol.Layer, obj *mol.Object, src int, data any, size int) {
			ran = append(ran, data.(int))
		})
		mp := s.Mol().Register("obj", 8)
		for i := 0; i < 5; i++ {
			s.Message(mp, h, i, 0, float64(i+1))
		}
		if s.Load() != 1+2+3+4+5 {
			t.Errorf("load = %v", s.Load())
		}
		if s.QueueLen() != 5 {
			t.Errorf("queue len = %d", s.QueueLen())
		}
		for i := 0; i < 5; i++ {
			u := s.dequeue()
			if u == nil {
				t.Fatal("queue ran dry")
			}
			s.execute(u)
		}
		if s.Load() != 0 || s.dequeue() != nil {
			t.Errorf("residual load %v", s.Load())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range ran {
		if v != i {
			t.Fatalf("execution order %v", ran)
		}
	}
}

func TestPackUnitsMarksStolen(t *testing.T) {
	e := sim.NewEngine(sim.Config{Seed: 1})
	e.Spawn("p", func(p *sim.Proc) {
		s := newSched(p, Explicit)
		h := s.Mol().RegisterHandler(func(l *mol.Layer, obj *mol.Object, src int, data any, size int) {})
		a := s.Mol().Register("a", 8)
		b := s.Mol().Register("b", 8)
		s.Message(a, h, nil, 0, 2)
		s.Message(b, h, nil, 0, 3)
		s.Message(a, h, nil, 0, 4)
		envs := s.packUnits(s.Mol().Local()[a])
		if len(envs) != 2 {
			t.Fatalf("packed %d envelopes", len(envs))
		}
		if s.Load() != 3 {
			t.Fatalf("load after pack = %v", s.Load())
		}
		if s.QueueLen() != 1 {
			t.Fatalf("queue len after pack = %d", s.QueueLen())
		}
		u := s.dequeue()
		if u == nil || u.Obj.MP != b {
			t.Fatal("dequeue should skip stolen units")
		}
		if s.dequeue() != nil {
			t.Fatal("stolen units must not execute")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStealableObjectsExcludesExecuting(t *testing.T) {
	e := sim.NewEngine(sim.Config{Seed: 1})
	e.Spawn("p", func(p *sim.Proc) {
		s := newSched(p, Explicit)
		var inside []string
		h := s.Mol().RegisterHandler(func(l *mol.Layer, obj *mol.Object, src int, data any, size int) {
			for _, o := range s.StealableObjects() {
				inside = append(inside, o.Data.(string))
			}
		})
		a := s.Mol().Register("a", 8)
		s.Message(a, h, nil, 0, 1)
		s.Message(a, h, nil, 0, 1) // second unit on same object
		b := s.Mol().Register("b", 8)
		s.Message(b, h, nil, 0, 1)
		u := s.dequeue() // unit on a
		s.execute(u)
		// While a's handler ran, only b was stealable even though a still had
		// a queued unit.
		if len(inside) != 1 || inside[0] != "b" {
			t.Fatalf("stealable during execution = %v", inside)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestImplicitComputePreemption is the heart of the paper: a system message
// arriving mid-unit is handled within one polling interval in implicit mode,
// but only after the unit completes in explicit mode.
func TestImplicitComputePreemption(t *testing.T) {
	for _, mode := range []Mode{Implicit, Explicit} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			e := sim.NewEngine(sim.Config{Seed: 1})
			var handledAt sim.Time
			e.Spawn("worker", func(p *sim.Proc) {
				s := newSched(p, mode)
				s.Comm().Register(func(c *dmcs.Comm, src int, data any, size int) {
					handledAt = p.Now()
				})
				h := s.Mol().RegisterHandler(func(l *mol.Layer, obj *mol.Object, src int, data any, size int) {
					s.Compute(1 * sim.Second)
				})
				mp := s.Mol().Register("obj", 8)
				s.Message(mp, h, nil, 0, 1)
				u := s.dequeue()
				s.execute(u)
				s.Poll() // explicit mode sees the message here
			})
			e.Spawn("sender", func(p *sim.Proc) {
				// SPMD construction: same layers, same registration order, so
				// the system handler gets the same ID as on the worker.
				c := dmcs.New(p)
				l := mol.New(c, mol.DefaultConfig())
				s := New(l, DefaultConfig(mode), NopPolicy{})
				h := s.Comm().Register(func(c *dmcs.Comm, src int, data any, size int) {})
				p.Advance(100*sim.Millisecond, sim.CatCompute)
				c.SendTagged(0, h, nil, 8, sim.TagSystem)
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if mode == Implicit {
				if handledAt > 120*sim.Millisecond {
					t.Fatalf("implicit: system message handled at %v, want ~100ms", handledAt)
				}
				if handledAt < 100*sim.Millisecond {
					t.Fatalf("handled before it was sent: %v", handledAt)
				}
			} else {
				if handledAt < 1*sim.Second {
					t.Fatalf("explicit: system message handled at %v, want >= 1s", handledAt)
				}
			}
		})
	}
}

func TestPollThreadCostAccounted(t *testing.T) {
	e := sim.NewEngine(sim.Config{Seed: 1})
	e.Spawn("p", func(p *sim.Proc) {
		cfg := DefaultConfig(Implicit)
		cfg.PollInterval = 10 * sim.Millisecond
		l := mol.New(dmcs.New(p), mol.DefaultConfig())
		s := New(l, cfg, NopPolicy{})
		s.Compute(100 * sim.Millisecond) // 9 interior wakeups
		if s.Stats.PollWakes != 9 {
			t.Errorf("poll wakes = %d, want 9", s.Stats.PollWakes)
		}
		if got := p.Account()[sim.CatPollThread]; got != 9*pollCost {
			t.Errorf("poll thread time = %v", got)
		}
		if got := p.Account()[sim.CatCompute]; got != 100*sim.Millisecond {
			t.Errorf("compute time = %v", got)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunStopsOnBroadcast(t *testing.T) {
	e := sim.NewEngine(sim.Config{Seed: 1})
	for i := 0; i < 2; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			s := newSched(p, Explicit)
			hStop := s.Comm().Register(func(c *dmcs.Comm, src int, data any, size int) {
				s.Stop()
			})
			if p.ID() == 1 {
				p.Advance(30*sim.Millisecond, sim.CatCompute)
				s.Comm().SendTagged(0, hStop, nil, 8, sim.TagSystem)
				s.Stop()
				return
			}
			s.Run()
			if p.Now() > 500*sim.Millisecond {
				t.Errorf("run loop survived too long: %v", p.Now())
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestModeString(t *testing.T) {
	if Explicit.String() != "explicit" || Implicit.String() != "implicit" {
		t.Fatal("mode strings")
	}
}

// TestPollEveryGatesApplicationPolls: with PollEvery=3 a busy scheduler only
// hands control to the runtime every third unit, so a system message waits
// up to three units in explicit mode.
func TestPollEveryGatesApplicationPolls(t *testing.T) {
	e := sim.NewEngine(sim.Config{Seed: 6})
	var handledAt sim.Time
	e.Spawn("worker", func(p *sim.Proc) {
		l := mol.New(dmcs.New(p), mol.DefaultConfig())
		cfg := DefaultConfig(Explicit)
		cfg.PollEvery = 3
		s := New(l, cfg, NopPolicy{})
		s.Comm().Register(func(c *dmcs.Comm, src int, data any, size int) {
			handledAt = p.Now()
			s.Stop()
		})
		h := s.Mol().RegisterHandler(func(l *mol.Layer, obj *mol.Object, src int, data any, size int) {
			s.Compute(100 * sim.Millisecond)
		})
		mp := s.Mol().Register("obj", 8)
		for i := 0; i < 9; i++ {
			s.Message(mp, h, nil, 0, 0.1)
		}
		s.Run()
	})
	e.Spawn("sender", func(p *sim.Proc) {
		l := mol.New(dmcs.New(p), mol.DefaultConfig())
		s := New(l, DefaultConfig(Explicit), NopPolicy{})
		h := s.Comm().Register(func(c *dmcs.Comm, src int, data any, size int) {})
		p.Advance(10*sim.Millisecond, sim.CatCompute) // lands mid-first-unit
		s.Comm().SendTagged(0, h, nil, 8, sim.TagSystem)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// First poll happens after 3 units (300ms); the message sat until then.
	if handledAt < 300*sim.Millisecond {
		t.Fatalf("handled at %v; PollEvery=3 should delay to >=300ms", handledAt)
	}
	if handledAt > 320*sim.Millisecond {
		t.Fatalf("handled too late: %v", handledAt)
	}
}

func TestSchedulerAccessors(t *testing.T) {
	e := sim.NewEngine(sim.Config{Seed: 1})
	e.Spawn("p", func(p *sim.Proc) {
		s := newSched(p, Implicit)
		if s.Proc() != p || s.Comm() == nil || s.Mol() == nil {
			t.Error("accessors")
		}
		if _, ok := s.policy.(NopPolicy); !ok {
			t.Errorf("policy %T, want NopPolicy", s.policy)
		}
		if s.cfg.Mode != Implicit {
			t.Error("config")
		}
		if s.current != nil {
			t.Error("nothing should be executing")
		}
		var sawExecuting bool
		h := s.Mol().RegisterHandler(func(l *mol.Layer, obj *mol.Object, src int, data any, size int) {
			sawExecuting = s.current != nil && s.current.Obj == obj
		})
		mp := s.Mol().Register("x", 8)
		s.Message(mp, h, nil, 0, 1)
		u := s.dequeue()
		s.execute(u)
		if !sawExecuting {
			t.Error("current unit not set during handler")
		}
		if s.QueuedWeight(s.Mol().Local()[mp]) != 0 {
			t.Error("queued weight after execution")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNopPolicyIsInert(t *testing.T) {
	var p NopPolicy
	// All hooks are no-ops on a nil scheduler.
	p.Setup(nil)
	p.OnLowLoad(nil)
	p.OnIdle(nil)
	p.OnPoll(nil)
}

func TestUnitWeightAccessor(t *testing.T) {
	u := &Unit{Env: &mol.Envelope{Weight: 2.5}}
	if u.Weight() != 2.5 {
		t.Fatal("unit weight")
	}
}

func TestComputeZeroPollInterval(t *testing.T) {
	e := sim.NewEngine(sim.Config{Seed: 1})
	e.Spawn("p", func(p *sim.Proc) {
		cfg := DefaultConfig(Implicit)
		cfg.PollInterval = 0 // degenerate: compute runs unsliced
		l := mol.New(dmcs.New(p), mol.DefaultConfig())
		s := New(l, cfg, NopPolicy{})
		s.Compute(100 * sim.Millisecond)
		if p.Now() != 100*sim.Millisecond {
			t.Errorf("time = %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStealableObjectsAllocatesNothing: once warm, serving a steal request's
// candidate list allocates nothing, and the list still runs newest-queued
// first, each object once.
func TestStealableObjectsAllocatesNothing(t *testing.T) {
	e := sim.NewEngine(sim.Config{Seed: 1})
	e.Spawn("p", func(p *sim.Proc) {
		s := newSched(p, Explicit)
		h := s.Mol().RegisterHandler(func(l *mol.Layer, obj *mol.Object, src int, data any, size int) {})
		var mps []mol.MobilePtr
		for i := 0; i < 8; i++ {
			mps = append(mps, s.Mol().Register(fmt.Sprint(i), 8))
		}
		for i := 0; i < 32; i++ {
			s.Message(mps[i*5%len(mps)], h, nil, 0, 1)
		}
		var got []string
		for _, o := range s.StealableObjects() {
			got = append(got, o.Data.(string))
		}
		if want := "[3 6 1 4 7 2 5 0]"; fmt.Sprint(got) != want {
			t.Errorf("stealable = %v, want %s", got, want)
		}
		if n := testing.AllocsPerRun(100, func() { s.StealableObjects() }); n != 0 {
			t.Errorf("StealableObjects allocates %v times per call, want 0", n)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
