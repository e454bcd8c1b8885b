package policy

import (
	"fmt"
	"testing"

	"prema/internal/dmcs"
	"prema/internal/ilb"
	"prema/internal/mol"
	"prema/internal/sim"
)

func TestNeighborhoodHypercube(t *testing.T) {
	const n = 8
	for me := 0; me < n; me++ {
		nb := neighborhood(me, n)
		if len(nb) != 3 {
			t.Fatalf("hypercube degree = %d", len(nb))
		}
		for _, u := range nb {
			if u == me || u < 0 || u >= n {
				t.Fatalf("bad neighbor %d of %d", u, me)
			}
			// Symmetry.
			back := neighborhood(u, n)
			found := false
			for _, v := range back {
				if v == me {
					found = true
				}
			}
			if !found {
				t.Fatalf("asymmetric neighborhood %d<->%d", me, u)
			}
		}
	}
}

func TestNeighborhoodRing(t *testing.T) {
	nb := neighborhood(0, 6) // not a power of two
	if len(nb) != 2 || nb[0] != 5 || nb[1] != 1 {
		t.Fatalf("ring neighbors = %v", nb)
	}
	if nb := neighborhood(0, 2); len(nb) != 1 || nb[0] != 1 {
		t.Fatalf("2-proc neighbors = %v", nb)
	}
	if nb := neighborhood(0, 1); nb != nil {
		t.Fatalf("singleton neighbors = %v", nb)
	}
}

func TestDefaultConfigs(t *testing.T) {
	if c := DefaultWSConfig(); c.MaxObjects <= 0 {
		t.Fatal("ws defaults")
	}
	if c := DefaultDiffConfig(); c.Period <= 0 || c.MaxObjects <= 0 {
		t.Fatal("diffusion defaults")
	}
	if c := DefaultMLConfig(); c.HighMark <= c.LowMark {
		t.Fatal("multilist defaults")
	}
}

// stealCluster builds a 2-proc cluster where proc 0 has `units` queued work
// units and proc 1 is idle, and returns after `dur` of virtual time.
func stealCluster(t *testing.T, units int, mode ilb.Mode, dur sim.Time) (*sim.Engine, []*WorkStealing) {
	t.Helper()
	e := sim.NewEngine(sim.Config{Seed: 9})
	pols := make([]*WorkStealing, 2)
	for i := 0; i < 2; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			l := mol.New(dmcs.New(p), mol.DefaultConfig())
			ws := NewWorkStealing(DefaultWSConfig())
			pols[p.ID()] = ws
			cfg := ilb.DefaultConfig(mode)
			cfg.WaterMark = 0.3
			s := ilb.New(l, cfg, ws)
			h := l.RegisterHandler(func(l *mol.Layer, obj *mol.Object, src int, data any, size int) {
				s.Compute(100 * sim.Millisecond)
			})
			if p.ID() == 0 {
				for u := 0; u < units; u++ {
					mp := l.Register(u, 128)
					s.Message(mp, h, nil, 8, 0.1)
				}
			}
			for s.Step() {
				if p.Now() >= dur {
					s.Stop()
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e, pols
}

func TestWorkStealingMovesWork(t *testing.T) {
	e, pols := stealCluster(t, 10, ilb.Implicit, 2*sim.Second)
	if c := e.Proc(1).Account()[sim.CatCompute]; c == 0 {
		t.Fatal("no work stolen")
	}
	if pols[1].Stats.Requests == 0 || pols[0].Stats.GrantsServed == 0 {
		t.Fatalf("stats: %+v %+v", pols[0].Stats, pols[1].Stats)
	}
}

func TestWorkStealingNacksWhenEmpty(t *testing.T) {
	// Two idle-ish procs: one unit total, so after it finishes both are
	// empty and requests draw NACKs followed by backoff (bounded request
	// count proves backoff works).
	_, pols := stealCluster(t, 1, ilb.Implicit, 3*sim.Second)
	req := pols[0].Stats.Requests + pols[1].Stats.Requests
	nack := pols[0].Stats.NacksReceived + pols[1].Stats.NacksReceived
	if nack == 0 {
		t.Fatal("expected NACKs on an empty machine")
	}
	// 3 seconds / 250ms backoff, 2 procs, 1 partner each: tens of requests
	// at most, not a storm.
	if req > 200 {
		t.Fatalf("NACK storm: %d requests", req)
	}
}

func TestVictimKeepsWork(t *testing.T) {
	// The victim must never donate its entire queue.
	e, _ := stealCluster(t, 10, ilb.Implicit, 2*sim.Second)
	if c := e.Proc(0).Account()[sim.CatCompute]; c == 0 {
		t.Fatal("victim gave everything away")
	}
	_ = e
}
