package charm

import (
	"fmt"
	"math"
	"testing"

	"prema/internal/dmcs"
	"prema/internal/sim"
)

func mkLoads(loads ...float64) []ChareLoad {
	out := make([]ChareLoad, len(loads))
	for i, l := range loads {
		out[i] = ChareLoad{Index: i, Proc: 0, Load: l}
	}
	return out
}

func procLoads(loads []ChareLoad, m map[int]int, nprocs int) []float64 {
	pl := make([]float64, nprocs)
	for _, c := range loads {
		p := c.Proc
		if np, ok := m[c.Index]; ok {
			p = np
		}
		pl[p] += c.Load
	}
	return pl
}

func spread(pl []float64) float64 {
	min, max := math.Inf(1), math.Inf(-1)
	for _, v := range pl {
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	return max - min
}

func TestGreedyLBBalances(t *testing.T) {
	loads := mkLoads(10, 9, 8, 7, 6, 5, 4, 3, 2, 1)
	m := GreedyLB{}.Remap(loads, 3)
	pl := procLoads(loads, m, 3)
	if spread(pl) > 3 {
		t.Fatalf("greedy spread %v: %v", spread(pl), pl)
	}
}

func TestRefineLBMovesLittle(t *testing.T) {
	// Proc 0 heavily loaded, proc 1/2 light.
	var loads []ChareLoad
	for i := 0; i < 8; i++ {
		loads = append(loads, ChareLoad{Index: i, Proc: 0, Load: 5})
	}
	loads = append(loads, ChareLoad{Index: 8, Proc: 1, Load: 5}, ChareLoad{Index: 9, Proc: 2, Load: 5})
	m := RefineLB{}.Remap(loads, 3)
	pl := procLoads(loads, m, 3)
	if spread(pl) > 6 {
		t.Fatalf("refine spread %v: %v", spread(pl), pl)
	}
	if len(m) > 6 {
		t.Fatalf("refine moved %d chares; should be minimal", len(m))
	}
	greedy := GreedyLB{}.Remap(loads, 3)
	if len(m) > len(greedy) {
		t.Fatalf("refine (%d moves) should move no more than greedy (%d)", len(m), len(greedy))
	}
}

func TestStrategiesDeterministic(t *testing.T) {
	loads := mkLoads(5, 3, 8, 1, 9, 2, 7, 4)
	for _, s := range []Strategy{GreedyLB{}, RefineLB{}} {
		a := s.Remap(loads, 4)
		b := s.Remap(loads, 4)
		if len(a) != len(b) {
			t.Fatalf("%T nondeterministic", s)
		}
		for k, v := range a {
			if b[k] != v {
				t.Fatalf("%T nondeterministic at %d", s, k)
			}
		}
	}
}

// charmApp runs an iterative chare workload: n chares, iters iterations,
// weight(i, iter) virtual seconds of work each, AtSync between iterations
// when sync is true. Returns the engine.
func charmApp(t *testing.T, nprocs, n, iters int, sync bool, strat Strategy, weight func(i, iter int) sim.Time) *sim.Engine {
	t.Helper()
	e := sim.NewEngine(sim.Config{Seed: 21})
	for pid := 0; pid < nprocs; pid++ {
		e.Spawn(fmt.Sprintf("p%d", pid), func(p *sim.Proc) {
			rt := NewRuntime(p, strat)
			// Per-chare state must live in Chare.Data so it migrates with
			// the chare.
			type chareState struct{ iter int }
			var done int
			var hDone dmcs.HandlerID
			hDone = rt.Comm().Register(func(c *dmcs.Comm, src int, data any, size int) {
				done++
				if done == n {
					rt.StopAll()
				}
			})
			var eWork EntryID
			eWork = rt.RegisterEntry(func(rt *Runtime, ch *Chare, src int, data any) {
				st := ch.Data.(*chareState)
				rt.Compute(weight(ch.Index, st.iter))
				st.iter++
				switch {
				case st.iter >= iters:
					rt.Comm().Send(0, hDone, nil, 8)
				case sync:
					rt.AtSync(ch, eWork)
				default:
					rt.Invoke(ch.Index, eWork, nil, 0)
				}
			})
			rt.CreateArray(n, func(i int) (any, int) { return &chareState{}, 128 })
			// Seed the first iteration for local chares.
			for _, i := range rt.Local() {
				rt.Invoke(i, eWork, nil, 0)
			}
			rt.Run()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestChareArrayRunsAllIterations(t *testing.T) {
	e := charmApp(t, 4, 8, 3, false, nil, func(i, it int) sim.Time { return 10 * sim.Millisecond })
	var compute sim.Time
	for i := 0; i < 4; i++ {
		compute += e.Proc(i).Account()[sim.CatCompute]
	}
	if compute != 8*3*10*sim.Millisecond {
		t.Fatalf("total compute %v, want 240ms", compute)
	}
}

// TestAtSyncLBImprovesPersistentImbalance: with persistent per-chare weights
// (the regime Charm++ is designed for), greedy LB after the first iteration
// must beat the unbalanced no-sync run.
func TestAtSyncLBImprovesPersistentImbalance(t *testing.T) {
	// Chares 0..3 heavy (block-mapped onto proc 0), rest light.
	weight := func(i, it int) sim.Time {
		if i < 4 {
			return 200 * sim.Millisecond
		}
		return 20 * sim.Millisecond
	}
	eNone := charmApp(t, 4, 16, 4, false, nil, weight)
	eLB := charmApp(t, 4, 16, 4, true, GreedyLB{}, weight)
	if eLB.Makespan() >= eNone.Makespan() {
		t.Fatalf("AtSync+greedy %v not better than no-LB %v", eLB.Makespan(), eNone.Makespan())
	}
	// Chares must actually have migrated.
	moved := 0
	for i := 0; i < 4; i++ {
		// Stats live per runtime; recover via account heuristics instead:
		// at least procs 1..3 must have computed heavy chares; check that
		// proc 0 is no longer the unique maximum by a 2x margin.
		_ = i
	}
	_ = moved
	c0 := eLB.Proc(0).Account()[sim.CatCompute]
	cMax := sim.Time(0)
	for i := 1; i < 4; i++ {
		if c := eLB.Proc(i).Account()[sim.CatCompute]; c > cMax {
			cMax = c
		}
	}
	if c0 > 3*cMax {
		t.Fatalf("load stayed on proc 0: %v vs max other %v", c0, cMax)
	}
}

// TestAtSyncBarrierCost: AtSync introduces synchronization; with perfectly
// balanced weights LB cannot help, so the sync run must be no faster and
// should carry measurable barrier wait.
func TestAtSyncBarrierCostOnBalancedLoad(t *testing.T) {
	weight := func(i, it int) sim.Time { return 50 * sim.Millisecond }
	eNone := charmApp(t, 4, 8, 4, false, nil, weight)
	eSync := charmApp(t, 4, 8, 4, true, GreedyLB{}, weight)
	if eSync.Makespan() < eNone.Makespan() {
		t.Fatalf("sync run %v beat no-sync %v on balanced load", eSync.Makespan(), eNone.Makespan())
	}
}

// TestEntryAtomicity: a message arriving during a long entry is only
// processed after the entry completes — the pick-and-process property the
// paper criticizes.
func TestEntryAtomicity(t *testing.T) {
	e := sim.NewEngine(sim.Config{Seed: 2})
	var pokedAt sim.Time
	e.Spawn("p0", func(p *sim.Proc) {
		rt := NewRuntime(p, nil)
		hPoke := rt.Comm().Register(func(c *dmcs.Comm, src int, data any, size int) {
			pokedAt = p.Now()
			rt.stopped = true
		})
		_ = hPoke
		eWork := rt.RegisterEntry(func(rt *Runtime, ch *Chare, src int, data any) {
			rt.Compute(1 * sim.Second)
		})
		rt.CreateArray(1, func(i int) (any, int) { return nil, 0 })
		rt.Invoke(0, eWork, nil, 0)
		rt.Run()
	})
	e.Spawn("p1", func(p *sim.Proc) {
		rt := NewRuntime(p, nil)
		hPoke := rt.Comm().Register(func(c *dmcs.Comm, src int, data any, size int) {})
		rt.RegisterEntry(func(rt *Runtime, ch *Chare, src int, data any) {})
		rt.CreateArray(1, func(i int) (any, int) { return nil, 0 })
		p.Advance(100*sim.Millisecond, sim.CatCompute)
		rt.Comm().Send(0, hPoke, nil, 8)
		rt.stopped = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if pokedAt < 1*sim.Second {
		t.Fatalf("poke handled at %v — entry was preempted", pokedAt)
	}
}

// TestRefineLBToleranceDefault: RefineLB leaves an overload of up to 5 %
// alone.
func TestRefineLBToleranceDefault(t *testing.T) {
	// Processor 0 is 4 % over the average.
	loads := []ChareLoad{{0, 0, 1.0}, {1, 0, 0.04}, {2, 1, 0.99}, {3, 2, 0.99}, {4, 3, 0.98}}
	if got := (RefineLB{}).Remap(loads, 4); len(got) != 0 {
		t.Fatalf("default tolerance moved %v at 4 %% overload", got)
	}
	// 6 % over: the default moves the small chare off processor 0.
	loads = []ChareLoad{{0, 0, 1.0}, {1, 0, 0.06}, {2, 1, 0.98}, {3, 2, 0.98}, {4, 3, 0.98}}
	if got := (RefineLB{}).Remap(loads, 4); len(got) != 1 || got[1] != 1 {
		t.Fatalf("default tolerance at 6 %% overload moved %v, want chare 1 to processor 1", got)
	}
}

// TestFewerCharesThanProcs: processors that own no chares must not stall
// the AtSync reduction, and must still accept immigrating chares.
func TestFewerCharesThanProcs(t *testing.T) {
	weight := func(i, it int) sim.Time {
		if i == 0 {
			return 300 * sim.Millisecond
		}
		return 30 * sim.Millisecond
	}
	e := charmApp(t, 8, 4, 3, true, GreedyLB{}, weight)
	var total sim.Time
	for i := 0; i < 8; i++ {
		total += e.Proc(i).Account()[sim.CatCompute]
	}
	want := 3 * (300 + 3*30) * sim.Millisecond
	if total != want {
		t.Fatalf("total compute %v, want %v", total, want)
	}
}

// TestInvokeRoutesAfterMigration: a remote Invoke sent with a stale mapping
// is forwarded to the chare's current host.
func TestInvokeRoutesAfterMigration(t *testing.T) {
	e := sim.NewEngine(sim.Config{Seed: 31})
	var ranOn, hops int
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			rt := NewRuntime(p, nil)
			eTouch := rt.RegisterEntry(func(rt *Runtime, ch *Chare, src int, data any) {
				ranOn = rt.p.ID()
				hops = rt.Stats.ForwardHops
				rt.StopAll()
			})
			rt.CreateArray(3, func(i int) (any, int) { return nil, 64 })
			switch p.ID() {
			case 0:
				// Hand chare 0 to proc 1 directly (simulating a migration the
				// others have not heard about).
				ch := rt.chares[0]
				delete(rt.chares, 0)
				rt.loc[0] = 1
				rt.c.Send(1, rt.hMigrate, migrateMsg{ch}, 128)
			case 2:
				// Stale view: still believes chare 0 lives on proc 0.
				p.Advance(50*sim.Millisecond, sim.CatCompute)
				rt.Invoke(0, eTouch, nil, 0)
			}
			rt.Run()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ranOn != 1 {
		t.Fatalf("entry ran on %d, want 1", ranOn)
	}
	_ = hops
}

func TestLookupAndLocal(t *testing.T) {
	e := sim.NewEngine(sim.Config{Seed: 1})
	e.Spawn("p0", func(p *sim.Proc) {
		rt := NewRuntime(p, nil)
		rt.RegisterEntry(func(rt *Runtime, ch *Chare, src int, data any) {})
		rt.CreateArray(5, func(i int) (any, int) { return i * i, 8 })
		local := rt.Local()
		if len(local) != 5 {
			t.Fatalf("local = %v", local)
		}
		if ch := rt.chares[3]; ch == nil || ch.Data.(int) != 9 {
			t.Fatal("lookup")
		}
		if rt.chares[99] != nil {
			t.Fatal("phantom chare")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMeasuredAccumulatesAndResets(t *testing.T) {
	weight := func(i, it int) sim.Time { return 100 * sim.Millisecond }
	// With sync, measured resets at each LB; this just exercises the paths.
	e := charmApp(t, 2, 4, 2, true, GreedyLB{}, weight)
	if e.Makespan() <= 0 {
		t.Fatal("no time passed")
	}
}
