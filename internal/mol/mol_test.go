package mol

import (
	"fmt"
	"math/rand"
	"testing"

	"prema/internal/dmcs"
	"prema/internal/sim"
)

// cluster spawns n processors; build runs on each to register handlers and
// returns the processor's body.
func cluster(t *testing.T, n int, cfg Config, build func(l *Layer) func()) {
	t.Helper()
	e := sim.NewEngine(sim.Config{Seed: 3})
	for i := 0; i < n; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			l := New(dmcs.New(p), cfg)
			build(l)()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNilPointer(t *testing.T) {
	if !Nil.IsNil() {
		t.Fatal("Nil should be nil")
	}
	if (MobilePtr{Home: 0, Index: 3}).IsNil() {
		t.Fatal("real pointer reported nil")
	}
	if Nil.String() != "mol:nil" || (MobilePtr{1, 2}).String() != "mol:1:2" {
		t.Fatal("String format")
	}
}

func TestLocalMessageDeliversInProcess(t *testing.T) {
	got := 0
	cluster(t, 1, DefaultConfig(), func(l *Layer) func() {
		h := l.RegisterHandler(func(l *Layer, obj *Object, src int, data any, size int) {
			got = data.(int) + obj.Data.(int)
		})
		return func() {
			mp := l.Register(100, 64)
			l.Message(mp, h, 5, 8, sim.TagApp, 0)
		}
	})
	if got != 105 {
		t.Fatalf("got = %d", got)
	}
}

func TestRemoteMessage(t *testing.T) {
	var deliveredAt, from int
	var mp MobilePtr
	cluster(t, 2, DefaultConfig(), func(l *Layer) func() {
		h := l.RegisterHandler(func(l *Layer, obj *Object, src int, data any, size int) {
			deliveredAt = l.Proc().ID()
			from = src
		})
		return func() {
			switch l.Proc().ID() {
			case 0:
				mp = l.Register("obj", 64)
				l.Proc().WaitMsg(sim.CatIdle)
				l.Comm().Poll()
			case 1:
				l.Proc().Advance(sim.Millisecond, sim.CatCompute) // let mp be set
				l.Message(mp, h, nil, 8, sim.TagApp, 0)
			}
		}
	})
	if deliveredAt != 0 || from != 1 {
		t.Fatalf("delivered at %d from %d", deliveredAt, from)
	}
}

func TestMigrationMovesObjectAndData(t *testing.T) {
	var hostSeen int
	cluster(t, 2, DefaultConfig(), func(l *Layer) func() {
		h := l.RegisterHandler(func(l *Layer, obj *Object, src int, data any, size int) {
			hostSeen = l.Proc().ID()
			if obj.Data.(string) != "payload" {
				t.Errorf("object data lost: %v", obj.Data)
			}
		})
		return func() {
			switch l.Proc().ID() {
			case 0:
				mp := l.Register("payload", 128)
				if err := l.Migrate(mp, 1); err != nil {
					t.Error(err)
				}
				if l.Local()[mp] != nil {
					t.Error("object still resident after migrate")
				}
				// Message after migration must chase the object.
				l.Message(mp, h, nil, 8, sim.TagApp, 0)
			case 1:
				for l.Stats.Delivered == 0 {
					l.Comm().WaitPoll(sim.CatIdle)
				}
			}
		}
	})
	if hostSeen != 1 {
		t.Fatalf("delivered at %d, want 1", hostSeen)
	}
}

func TestForwardingChasesMigrationChain(t *testing.T) {
	var hops, deliveredAt int
	done := false
	cluster(t, 3, DefaultConfig(), func(l *Layer) func() {
		h := l.RegisterHandler(func(l *Layer, obj *Object, src int, data any, size int) {
			deliveredAt = l.Proc().ID()
			done = true
		})
		var mp MobilePtr
		return func() {
			switch l.Proc().ID() {
			case 0:
				mp = l.Register("obj", 64)
				l.Migrate(mp, 1)
				// Keep polling so we can forward chasing messages.
				for !done {
					if l.Comm().WaitPollFor(200*sim.Millisecond, sim.CatIdle) == 0 {
						return
					}
				}
			case 1:
				// Receive the object, then pass it on to 2.
				for l.Stats.MigrationsIn == 0 {
					l.Comm().WaitPoll(sim.CatIdle)
				}
				l.Migrate(MobilePtr{Home: 0, Index: 0}, 2)
				for !done {
					if l.Comm().WaitPollFor(200*sim.Millisecond, sim.CatIdle) == 0 {
						return
					}
				}
			case 2:
				// Sender with a stale view: believes the object is at home 0.
				l.Proc().Advance(50*sim.Millisecond, sim.CatCompute)
				l.Message(MobilePtr{Home: 0, Index: 0}, h, nil, 8, sim.TagApp, 0)
				for !done {
					if l.Comm().WaitPollFor(200*sim.Millisecond, sim.CatIdle) == 0 {
						return
					}
				}
				hops = 1 // reached here
			}
		}
	})
	if !done || deliveredAt != 2 {
		t.Fatalf("done=%v deliveredAt=%d", done, deliveredAt)
	}
	_ = hops
}

// TestOrderingAcrossMigration streams numbered messages at an object while
// it migrates; delivery must be in send order with no loss or duplication.
func TestOrderingAcrossMigration(t *testing.T) {
	const numMsgs = 40
	var delivered []int
	cluster(t, 3, DefaultConfig(), func(l *Layer) func() {
		h := l.RegisterHandler(func(l *Layer, obj *Object, src int, data any, size int) {
			delivered = append(delivered, data.(int))
		})
		return func() {
			switch l.Proc().ID() {
			case 0: // object host; migrates the object away mid-stream
				mp := l.Register("obj", 64)
				_ = mp
				for i := 0; i < 20; i++ {
					l.Comm().WaitPollFor(10*sim.Millisecond, sim.CatIdle)
					if i == 5 && l.Local()[mp] != nil {
						l.Migrate(mp, 1)
					}
				}
				// Keep forwarding stragglers.
				for l.Comm().WaitPollFor(300*sim.Millisecond, sim.CatIdle) > 0 {
				}
			case 1: // receives the object
				for l.Comm().WaitPollFor(500*sim.Millisecond, sim.CatIdle) > 0 || len(delivered) < numMsgs {
					if len(delivered) >= numMsgs {
						break
					}
					if !l.Proc().WaitMsgFor(500*sim.Millisecond, sim.CatIdle) {
						break
					}
				}
			case 2: // the sender
				mp := MobilePtr{Home: 0, Index: 0}
				for i := 0; i < numMsgs; i++ {
					l.Message(mp, h, i, 16, sim.TagApp, 0)
					l.Proc().Advance(sim.Millisecond, sim.CatCompute)
					l.Comm().PollTag(sim.TagSystem) // absorb location updates
				}
				for l.Comm().WaitPollFor(300*sim.Millisecond, sim.CatIdle) > 0 {
				}
			}
		}
	})
	if len(delivered) != numMsgs {
		t.Fatalf("delivered %d of %d", len(delivered), numMsgs)
	}
	for i, v := range delivered {
		if v != i {
			t.Fatalf("out of order at %d: %v", i, delivered)
		}
	}
}

// TestOrderingPropertyRandomized: many senders, random migrations among
// hosts, every message delivered exactly once and in per-sender order.
func TestOrderingPropertyRandomized(t *testing.T) {
	const (
		procs   = 6
		objects = 4
		msgs    = 30 // per sender per object
	)
	type key struct{ origin, obj int }
	seen := make(map[key][]int)
	total := 0
	cluster(t, procs, DefaultConfig(), func(l *Layer) func() {
		h := l.RegisterHandler(func(l *Layer, obj *Object, src int, data any, size int) {
			d := data.([2]int) // {objIndex, seq}
			k := key{src, d[0]}
			seen[k] = append(seen[k], d[1])
			total++
		})
		return func() {
			rng := rand.New(rand.NewSource(int64(1000 + l.Proc().ID())))
			// All objects homed on proc 0.
			if l.Proc().ID() == 0 {
				for i := 0; i < objects; i++ {
					l.Register(i, 64)
				}
			}
			l.Proc().Advance(sim.Millisecond, sim.CatCompute)
			for i := 0; i < msgs; i++ {
				for o := 0; o < objects; o++ {
					l.Message(MobilePtr{Home: 0, Index: o}, h, [2]int{o, i}, 16, sim.TagApp, 0)
				}
				l.Proc().Advance(sim.Time(rng.Intn(3000))*sim.Microsecond, sim.CatCompute)
				l.Comm().Poll()
				// Hosts randomly shove resident objects elsewhere.
				if rng.Intn(4) == 0 {
					for mp := range l.Local() {
						dst := rng.Intn(procs)
						if dst != l.Proc().ID() {
							l.Migrate(mp, dst)
						}
						break
					}
				}
			}
			// Drain until globally quiet (bounded by timeout polls).
			for l.Comm().WaitPollFor(500*sim.Millisecond, sim.CatIdle) > 0 {
			}
		}
	})
	want := procs * objects * msgs
	if total != want {
		t.Fatalf("delivered %d of %d messages", total, want)
	}
	for k, ord := range seen {
		for i, v := range ord {
			if v != i {
				t.Fatalf("per-sender order violated for %+v: %v", k, ord)
			}
		}
	}
}

func TestMigrateErrors(t *testing.T) {
	cluster(t, 2, DefaultConfig(), func(l *Layer) func() {
		return func() {
			if l.Proc().ID() != 0 {
				return
			}
			if err := l.Migrate(MobilePtr{Home: 0, Index: 99}, 1); err == nil {
				t.Error("migrating unknown object should fail")
			}
			mp := l.Register("x", 10)
			if err := l.Migrate(mp, 0); err != nil {
				t.Errorf("self-migration should be a no-op: %v", err)
			}
			if l.Local()[mp] == nil {
				t.Error("self-migration lost the object")
			}
		}
	})
}

func TestMigrationCarriesExtra(t *testing.T) {
	var gotExtra any
	cluster(t, 2, DefaultConfig(), func(l *Layer) func() {
		l.OnMigrateOut = func(obj *Object) any { return "pending-work" }
		l.OnMigrateIn = func(obj *Object, extra any) { gotExtra = extra }
		return func() {
			switch l.Proc().ID() {
			case 0:
				mp := l.Register("obj", 64)
				l.Migrate(mp, 1)
			case 1:
				for l.Stats.MigrationsIn == 0 {
					l.Comm().WaitPoll(sim.CatIdle)
				}
			}
		}
	})
	if gotExtra != "pending-work" {
		t.Fatalf("extra = %v", gotExtra)
	}
}

func TestWeightHintTravels(t *testing.T) {
	var w float64
	cluster(t, 1, DefaultConfig(), func(l *Layer) func() {
		h := l.RegisterHandler(func(l *Layer, obj *Object, src int, data any, size int) {})
		l.SetDeliver(func(l *Layer, obj *Object, env *Envelope) { w = env.Weight })
		return func() {
			mp := l.Register("obj", 8)
			l.Message(mp, h, nil, 0, sim.TagApp, 7.5)
		}
	})
	if w != 7.5 {
		t.Fatalf("weight = %v", w)
	}
}
