package coll

import (
	"fmt"
	"testing"

	"prema/internal/dmcs"
	"prema/internal/sim"
)

// spmd runs body on n processors, each with its own Coll.
func spmd(t *testing.T, n int, body func(cl *Coll, p *sim.Proc)) *sim.Engine {
	t.Helper()
	e := sim.NewEngine(sim.Config{Seed: 13})
	for i := 0; i < n; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			body(New(dmcs.New(p)), p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestBarrierSynchronizes(t *testing.T) {
	var exits []sim.Time
	spmd(t, 4, func(cl *Coll, p *sim.Proc) {
		// Staggered arrival: proc i computes i*100ms first.
		p.Advance(sim.Time(p.ID())*100*sim.Millisecond, sim.CatCompute)
		cl.Barrier()
		exits = append(exits, p.Now())
	})
	// Nobody exits before the last arrival at 300ms.
	for _, e := range exits {
		if e < 300*sim.Millisecond {
			t.Fatalf("barrier exit at %v before last arrival", e)
		}
	}
}

func TestBarrierChargesSync(t *testing.T) {
	e := spmd(t, 4, func(cl *Coll, p *sim.Proc) {
		if p.ID() == 3 {
			p.Advance(time500(), sim.CatCompute)
		}
		cl.Barrier()
	})
	// Proc 0 waited ~500ms in sync.
	if s := e.Proc(0).Account()[sim.CatSync]; s < 400*sim.Millisecond {
		t.Fatalf("sync time = %v", s)
	}
}

func time500() sim.Time { return 500 * sim.Millisecond }

func TestAllGather(t *testing.T) {
	spmd(t, 5, func(cl *Coll, p *sim.Proc) {
		all := cl.AllGather(p.ID()*10, 8)
		if len(all) != 5 {
			t.Fatalf("gathered %d", len(all))
		}
		for q, v := range all {
			if v.(int) != q*10 {
				t.Errorf("slot %d = %v", q, v)
			}
		}
	})
}

func TestRepeatedCollectives(t *testing.T) {
	spmd(t, 3, func(cl *Coll, p *sim.Proc) {
		for round := 0; round < 10; round++ {
			for q, v := range cl.AllGather(round*10+p.ID(), 8) {
				if v.(int) != round*10+q {
					t.Fatalf("round %d: slot %d = %v", round, q, v)
				}
			}
			cl.Barrier()
		}
	})
}

func TestStaggeredCollectivesBufferAcrossSequence(t *testing.T) {
	// The root works and polls between collectives, as an application's
	// scheduler does, so the others' contributions to the next collective
	// reach its handler before it enters that collective; the root must
	// buffer them by sequence.
	early := 0
	spmd(t, 3, func(cl *Coll, p *sim.Proc) {
		for round := 0; round < 5; round++ {
			if p.ID() == 0 {
				p.Advance(100*sim.Millisecond, sim.CatCompute)
				cl.c.Poll()
				early += len(cl.gathered[cl.seq+1])
			}
			for q, v := range cl.AllGather(round, 8) {
				if v.(int) != round {
					t.Errorf("round %d: slot %d = %v", round, q, v)
				}
			}
			cl.Barrier()
		}
	})
	if early != 2*5 {
		t.Fatalf("%d contributions arrived before the root entered their collective, want 10", early)
	}
}
