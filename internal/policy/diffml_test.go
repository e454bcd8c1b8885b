package policy

import (
	"fmt"
	"testing"

	"prema/internal/dmcs"
	"prema/internal/ilb"
	"prema/internal/mol"
	"prema/internal/sim"
)

// policyCluster builds an n-proc cluster with the given policy constructor;
// proc 0 starts with `units` work units of 100ms, everyone runs until dur.
func policyCluster(t *testing.T, n, units int, dur sim.Time, mk func() ilb.Policy) *sim.Engine {
	t.Helper()
	e := sim.NewEngine(sim.Config{Seed: 41})
	for i := 0; i < n; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			l := mol.New(dmcs.New(p), mol.DefaultConfig())
			cfg := ilb.DefaultConfig(ilb.Implicit)
			cfg.WaterMark = 0.3
			s := ilb.New(l, cfg, mk())
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
	return e
}

func TestDiffusionPushesToLighterNeighbors(t *testing.T) {
	var pols []*Diffusion
	e := policyCluster(t, 4, 16, 3*sim.Second, func() ilb.Policy {
		cfg := DefaultDiffConfig()
		cfg.Period = 50 * sim.Millisecond
		cfg.MinTransfer = 0.05
		d := NewDiffusion(cfg)
		pols = append(pols, d)
		return d
	})
	spread := 0
	for i := 1; i < 4; i++ {
		if e.Proc(i).Account()[sim.CatCompute] > 0 {
			spread++
		}
	}
	if spread == 0 {
		t.Fatal("diffusion moved nothing")
	}
	var sent, exchanges int
	for _, d := range pols {
		sent += d.Stats.ObjectsSent
		exchanges += d.Stats.Exchanges
	}
	if sent == 0 || exchanges == 0 {
		t.Fatalf("stats: sent=%d exchanges=%d", sent, exchanges)
	}
}

func TestDiffusionNeighborsExposed(t *testing.T) {
	e := sim.NewEngine(sim.Config{Seed: 1})
	var nb []int
	for i := 0; i < 4; i++ {
		e.Spawn("p", func(p *sim.Proc) {
			l := mol.New(dmcs.New(p), mol.DefaultConfig())
			d := NewDiffusion(DefaultDiffConfig())
			ilb.New(l, ilb.DefaultConfig(ilb.Implicit), d)
			if p.ID() == 0 {
				nb = d.neighbors
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 4 procs = 2D hypercube: proc 0 neighbors 1 and 2.
	if len(nb) != 2 || nb[0] != 1 || nb[1] != 2 {
		t.Fatalf("neighbors = %v", nb)
	}
}

func TestMultiListMovesWorkThroughLists(t *testing.T) {
	var pols []*MultiList
	e := policyCluster(t, 4, 20, 3*sim.Second, func() ilb.Policy {
		cfg := DefaultMLConfig()
		cfg.HighMark = 0.5
		cfg.LowMark = 0.2
		m := NewMultiList(cfg)
		pols = append(pols, m)
		return m
	})
	spread := 0
	for i := 1; i < 4; i++ {
		if e.Proc(i).Account()[sim.CatCompute] > 0 {
			spread++
		}
	}
	if spread == 0 {
		t.Fatal("multilist moved nothing")
	}
	var ads, fetches, served int
	for _, m := range pols {
		ads += m.Stats.AdsPosted
		fetches += m.Stats.Fetches
		served += m.Stats.ClaimsServed
	}
	if ads == 0 || fetches == 0 || served == 0 {
		t.Fatalf("stats: ads=%d fetches=%d served=%d", ads, fetches, served)
	}
}

func TestDiffusionSingleProcNoNeighbors(t *testing.T) {
	e := sim.NewEngine(sim.Config{Seed: 1})
	e.Spawn("solo", func(p *sim.Proc) {
		l := mol.New(dmcs.New(p), mol.DefaultConfig())
		d := NewDiffusion(DefaultDiffConfig())
		s := ilb.New(l, ilb.DefaultConfig(ilb.Implicit), d)
		h := l.RegisterHandler(func(l *mol.Layer, obj *mol.Object, src int, data any, size int) {
			s.Compute(10 * sim.Millisecond)
		})
		mp := l.Register(0, 8)
		s.Message(mp, h, nil, 8, 0.01)
		for s.Step() {
			if p.Now() >= sim.Second {
				s.Stop()
			}
		}
		if len(d.neighbors) != 0 {
			t.Errorf("solo neighbors = %v", d.neighbors)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
