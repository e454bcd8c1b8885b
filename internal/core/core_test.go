package core

import (
	"fmt"
	"testing"

	"prema/internal/dmcs"
	"prema/internal/ilb"
	"prema/internal/mol"
	"prema/internal/policy"
	"prema/internal/sim"
)

// miniApp runs an imbalanced workload (all units start on processor 0) on
// nProcs processors under the given options and returns the engine for
// inspection plus the number of completed units observed at the root.
func miniApp(t *testing.T, nProcs, units int, unitTime sim.Time, mkOpts func() Options) (*sim.Engine, *int) {
	t.Helper()
	e := sim.NewEngine(sim.Config{Seed: 11})
	completed := new(int)
	for i := 0; i < nProcs; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			r := NewRuntime(p, mkOpts())
			var hDone dmcs.HandlerID
			hDone = r.Comm().Register(func(c *dmcs.Comm, src int, data any, size int) {
				*completed++
				if *completed == units {
					r.StopAll()
				}
			})
			hWork := r.RegisterHandler(func(l *mol.Layer, obj *mol.Object, src int, data any, size int) {
				r.Compute(unitTime)
				r.Comm().SendTagged(0, hDone, nil, 8, sim.TagApp)
			})
			if p.ID() == 0 {
				for u := 0; u < units; u++ {
					mp := r.Register(u, 256)
					r.Message(mp, hWork, nil, 0, unitTime.Seconds())
				}
			}
			r.Run()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e, completed
}

func optsNone(mode ilb.Mode) func() Options {
	return func() Options { return DefaultOptions(mode) }
}

func optsSteal(mode ilb.Mode) func() Options {
	return func() Options {
		o := DefaultOptions(mode)
		o.LB.WaterMark = 0.15
		o.Policy = policy.NewWorkStealing(policy.DefaultWSConfig())
		return o
	}
}

func TestAllUnitsCompleteWithoutBalancing(t *testing.T) {
	e, completed := miniApp(t, 4, 12, 100*sim.Millisecond, optsNone(ilb.Explicit))
	if *completed != 12 {
		t.Fatalf("completed %d of 12", *completed)
	}
	// Everything ran on proc 0.
	if c := e.Proc(0).Account()[sim.CatCompute]; c != 1200*sim.Millisecond {
		t.Fatalf("root compute = %v", c)
	}
	for i := 1; i < 4; i++ {
		if c := e.Proc(i).Account()[sim.CatCompute]; c != 0 {
			t.Fatalf("proc %d computed %v without load balancing", i, c)
		}
	}
}

func TestWorkStealingSpreadsLoad(t *testing.T) {
	for _, mode := range []ilb.Mode{ilb.Explicit, ilb.Implicit} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			e, completed := miniApp(t, 4, 12, 100*sim.Millisecond, optsSteal(mode))
			if *completed != 12 {
				t.Fatalf("completed %d of 12", *completed)
			}
			spread := 0
			for i := 1; i < 4; i++ {
				if e.Proc(i).Account()[sim.CatCompute] > 0 {
					spread++
				}
			}
			if spread == 0 {
				t.Fatal("no work migrated off the root")
			}
			if e.Makespan() >= 1200*sim.Millisecond {
				t.Fatalf("makespan %v not better than serial 1.2s", e.Makespan())
			}
		})
	}
}

func TestWorkStealingBeatsNoBalancing(t *testing.T) {
	eNone, _ := miniApp(t, 4, 16, 50*sim.Millisecond, optsNone(ilb.Implicit))
	eSteal, _ := miniApp(t, 4, 16, 50*sim.Millisecond, optsSteal(ilb.Implicit))
	if eSteal.Makespan() >= eNone.Makespan() {
		t.Fatalf("steal %v >= none %v", eSteal.Makespan(), eNone.Makespan())
	}
}

func TestDiffusionSpreadsLoad(t *testing.T) {
	mk := func() Options {
		o := DefaultOptions(ilb.Implicit)
		cfg := policy.DefaultDiffConfig()
		cfg.Period = 20 * sim.Millisecond
		cfg.MinTransfer = 0.05
		o.Policy = policy.NewDiffusion(cfg)
		return o
	}
	e, completed := miniApp(t, 4, 16, 50*sim.Millisecond, mk)
	if *completed != 16 {
		t.Fatalf("completed %d of 16", *completed)
	}
	spread := 0
	for i := 1; i < 4; i++ {
		if e.Proc(i).Account()[sim.CatCompute] > 0 {
			spread++
		}
	}
	if spread == 0 {
		t.Fatal("diffusion moved nothing")
	}
}

func TestMultiListSpreadsLoad(t *testing.T) {
	mk := func() Options {
		o := DefaultOptions(ilb.Implicit)
		cfg := policy.DefaultMLConfig()
		cfg.HighMark = 0.2
		cfg.LowMark = 0.1
		o.Policy = policy.NewMultiList(cfg)
		return o
	}
	e, completed := miniApp(t, 4, 16, 50*sim.Millisecond, mk)
	if *completed != 16 {
		t.Fatalf("completed %d of 16", *completed)
	}
	spread := 0
	for i := 1; i < 4; i++ {
		if e.Proc(i).Account()[sim.CatCompute] > 0 {
			spread++
		}
	}
	if spread == 0 {
		t.Fatal("multilist moved nothing")
	}
}

// TestImplicitRespondsDuringCoarseUnits reproduces the paper's core claim at
// miniature scale: with very coarse work units, implicit (preemptive) load
// balancing finishes sooner than explicit polling because steal requests are
// served mid-unit.
func TestImplicitRespondsDuringCoarseUnits(t *testing.T) {
	eExp, _ := miniApp(t, 2, 4, 500*sim.Millisecond, optsSteal(ilb.Explicit))
	eImp, _ := miniApp(t, 2, 4, 500*sim.Millisecond, optsSteal(ilb.Implicit))
	if eImp.Makespan() > eExp.Makespan() {
		t.Fatalf("implicit %v slower than explicit %v", eImp.Makespan(), eExp.Makespan())
	}
}

func TestRuntimeOverheadIsSmall(t *testing.T) {
	e, _ := miniApp(t, 4, 12, 100*sim.Millisecond, optsSteal(ilb.Implicit))
	var total, overhead sim.Time
	for i := 0; i < 4; i++ {
		a := e.Proc(i).Account()
		total += a[sim.CatCompute]
		overhead += a.Overhead()
	}
	// Paper reports PREMA overhead well under 1% of useful computation.
	if float64(overhead) > 0.05*float64(total) {
		t.Fatalf("overhead %v vs compute %v (>5%%)", overhead, total)
	}
}

func TestStopAllReachesEveryone(t *testing.T) {
	e := sim.NewEngine(sim.Config{Seed: 5})
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			r := NewRuntime(p, DefaultOptions(ilb.Explicit))
			if p.ID() == 0 {
				p.Advance(10*sim.Millisecond, sim.CatCompute)
				r.StopAll()
				return
			}
			r.Run()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Makespan() > 100*sim.Millisecond {
		t.Fatalf("stop took %v", e.Makespan())
	}
}

func TestRuntimeAccessors(t *testing.T) {
	e := sim.NewEngine(sim.Config{Seed: 1})
	e.Spawn("p", func(p *sim.Proc) {
		r := NewRuntime(p, DefaultOptions(ilb.Implicit))
		if r.Mol() == nil || r.Scheduler() == nil || r.Comm() == nil {
			t.Error("accessors")
		}
		r.Scheduler().Poll() // no traffic: must be a cheap no-op
		r.Compute(10 * sim.Millisecond)
		if p.Now() != 10*sim.Millisecond {
			t.Errorf("compute time %v", p.Now())
		}
		r.Stop()
		if !r.Scheduler().Stopped() {
			t.Error("stop")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
