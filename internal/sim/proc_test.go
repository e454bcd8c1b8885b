package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"prema/internal/substrate"
)

func TestSendToSelf(t *testing.T) {
	e := NewEngine(Config{Seed: 1})
	e.Spawn("p", func(p *Proc) {
		p.Send(&Msg{Dst: 0, Kind: 5}, CatMessaging)
		m := p.Recv(CatIdle)
		if m.Kind != 5 || m.Src != 0 {
			t.Errorf("self message = %+v", m)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitMsgForReturnsImmediatelyWhenQueued(t *testing.T) {
	e := NewEngine(Config{Seed: 1})
	e.Spawn("recv", func(p *Proc) {
		p.Advance(Second, CatCompute) // let the message land first
		start := p.Now()
		if !p.WaitMsgFor(10*Second, CatIdle) {
			t.Error("message should be queued")
		}
		if p.Now() != start {
			t.Errorf("wait consumed time: %v", p.Now()-start)
		}
	})
	e.Spawn("send", func(p *Proc) {
		p.Send(&Msg{Dst: 0}, CatMessaging)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSpawnDuringRun(t *testing.T) {
	e := NewEngine(Config{Seed: 1})
	childRan := false
	e.Spawn("parent", func(p *Proc) {
		p.Advance(Second, CatCompute)
		e.Spawn("child", func(c *Proc) {
			if c.Now() != Second {
				t.Errorf("child started at %v", c.Now())
			}
			childRan = true
		})
		p.Advance(Second, CatCompute)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child never ran")
	}
}

func TestEmptyEngineRuns(t *testing.T) {
	e := NewEngine(Config{Seed: 1})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Makespan() != 0 {
		t.Fatal("empty makespan")
	}
}

// TestTeardownLeavesNoGoroutines: after Run returns (including deadlock
// teardown) the processor coroutines must be gone — at the paper's scale and
// beyond, with half of the machine still blocked when the run ends.
func TestTeardownLeavesNoGoroutines(t *testing.T) {
	const procs = 1000
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		e := NewEngine(Config{Seed: 1, Shards: 1 + round%2})
		for i := 0; i < procs; i++ {
			if i%2 == 0 {
				e.Spawn("stuck", func(p *Proc) { p.WaitMsg(CatIdle) })
			} else {
				e.Spawn("done", func(p *Proc) { p.Advance(Time(p.ID())*Microsecond, CatCompute) })
			}
		}
		err := e.Run()
		if !errors.Is(err, ErrDeadlock) || !strings.Contains(err.Error(), fmt.Sprintf("%d processors still blocked", procs/2)) {
			t.Fatalf("expected %d processors deadlocked, got %v", procs/2, err)
		}
	}
	// Give exiting goroutines a moment.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	after := runtime.NumGoroutine()
	if after > before+2 {
		t.Fatalf("leaked goroutines: %d -> %d", before, after)
	}
}

// firstLine is the part of a Run error that does not hold a stack trace.
func firstLine(err error) string {
	if err == nil {
		return "<nil>"
	}
	return strings.SplitN(err.Error(), "\n", 2)[0]
}

// TestHandoff is the control hand-off protocol between an event loop and the
// processor coroutines, case by case, on the serial engine and on two
// shards: how a body starts, how it ends, and what teardown does to one that
// is parked or was never started.
func TestHandoff(t *testing.T) {
	const boom = `sim: processor "bad" panicked: boom`
	spec := substrate.PollSpec{Interval: pI, Cost: pC, Tag: TagSystem, WakeBy: substrate.Never}
	// The four ways a body parks. A peer panics at Second+3 while the victim
	// is inside one; want is the victim's ledger afterwards on the serial
	// engine, where the teardown instant is the panic's: a torn-down park is
	// not charged, a torn-down polled advance is charged the 99 slices and
	// polls it completed (TestAdvancePolledAbnormalEnds holds the same
	// ledger to the stepped loop's).
	parks := []struct {
		name string
		park func(*Proc)
		want Account
	}{
		{"Advance", func(p *Proc) { p.Advance(10*Second, CatCompute) }, Account{}},
		{"WaitMsg", func(p *Proc) { p.WaitMsg(CatIdle) }, Account{}},
		{"WaitMsgFor", func(p *Proc) { p.WaitMsgFor(10*Second, CatIdle) }, Account{}},
		{"AdvancePolled", func(p *Proc) { p.AdvancePolled(10*Second, spec) },
			Account{CatCompute: 99 * pI, CatPollThread: 99 * pC}},
	}
	for _, shards := range []int{1, 2} {
		engine := func() *Engine {
			return NewEngine(Config{Network: polledNet(), Seed: 1, Shards: shards})
		}
		t.Run(fmt.Sprintf("shards=%d/returns-without-blocking", shards), func(t *testing.T) {
			e := engine()
			var ran [3]bool
			for range ran {
				e.Spawn("p", func(p *Proc) { ran[p.ID()] = true })
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if ran != [3]bool{true, true, true} || e.Makespan() != 0 || e.Transfers() != 3 || e.EventsFired() != 3 {
				t.Errorf("bodies ran: %v, makespan %v, %d transfers, %d events; want all, 0, 3, 3",
					ran, e.Makespan(), e.Transfers(), e.EventsFired())
			}
		})
		for _, lead := range []Time{0, Second} {
			t.Run(fmt.Sprintf("shards=%d/panic-after-%v", shards, lead), func(t *testing.T) {
				e := engine()
				e.Spawn("bad", func(p *Proc) {
					p.Advance(lead, CatCompute) // 0: panics before its first park
					panic("boom")
				})
				e.Spawn("bystander", func(p *Proc) { p.Advance(Second, CatCompute) })
				if got := firstLine(e.Run()); got != boom {
					t.Errorf("error %q, want %q", got, boom)
				}
			})
		}
		for _, c := range parks {
			t.Run(fmt.Sprintf("shards=%d/torn-down-in-%s", shards, c.name), func(t *testing.T) {
				e := engine()
				unwound, resumed := 0, false
				e.Spawn("victim", func(p *Proc) {
					defer func() { unwound++ }()
					c.park(p)
					resumed = true
				})
				e.Spawn("bad", func(p *Proc) { p.Advance(Second+3, CatCompute); panic("boom") })
				if got := firstLine(e.Run()); got != boom {
					t.Errorf("error %q, want %q", got, boom)
				}
				if unwound != 1 || resumed {
					t.Errorf("victim's defers ran %d times, body resumed: %v; want once, false", unwound, resumed)
				}
				if got := *e.Proc(0).Account(); shards == 1 && got != c.want {
					t.Errorf("victim ledger %v, want %v", got, c.want)
				}
			})
		}
		t.Run(fmt.Sprintf("shards=%d/never-resumed", shards), func(t *testing.T) {
			// Processors 0 and 2 share an event loop for either shard count,
			// and 0 stops it at time zero, before 2's first transfer fires.
			e := engine()
			started := false
			e.Spawn("bad", func(p *Proc) { panic("boom") })
			e.Spawn("other", func(p *Proc) {})
			e.Spawn("late", func(p *Proc) { started = true })
			if got := firstLine(e.Run()); got != boom {
				t.Errorf("error %q, want %q", got, boom)
			}
			if started {
				t.Error("teardown ran the body of a processor that was never resumed")
			}
		})
	}
	t.Run("spawn-inside-body", func(t *testing.T) {
		// A coroutine created inside a coroutine: the child is switched to
		// by the event loop, not by its parent, at the spawn instant.
		e := NewEngine(Config{Seed: 1})
		var childAt, parentAt Time
		e.Spawn("parent", func(p *Proc) {
			p.Advance(Second, CatCompute)
			e.Spawn("child", func(c *Proc) {
				childAt = c.Now()
				c.Advance(3*Second, CatCompute)
			})
			if childAt != 0 {
				t.Error("the child ran inside Spawn")
			}
			p.Advance(Second, CatCompute)
			parentAt = p.Now()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if childAt != Second || parentAt != 2*Second || e.Makespan() != 4*Second {
			t.Errorf("child started at %v, parent finished at %v, makespan %v; want 1s, 2s, 4s",
				childAt, parentAt, e.Makespan())
		}
	})
}

// TestTransfers: the hand-off count repeats exactly for a given shard count
// and never exceeds the event count. Unlike EventsFired it may differ between
// shard counts: an Advance whose wake is next in its own shard's heap skips
// the switch, and what that heap holds depends on the partition.
func TestTransfers(t *testing.T) {
	run := func(shards int) (transfers, events uint64) {
		e := NewEngine(Config{Seed: 42, Shards: shards})
		spawnMeshWorkload(Machine{e}, 13, 30)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Transfers(), e.EventsFired()
	}
	_, serialEvents := run(1)
	for _, shards := range []int{1, 2, 4} {
		transfers, events := run(shards)
		if again, _ := run(shards); again != transfers {
			t.Errorf("shards=%d: %d transfers, then %d", shards, transfers, again)
		}
		if transfers == 0 || transfers > events || events != serialEvents {
			t.Errorf("shards=%d: %d transfers for %d events (serial fired %d)", shards, transfers, events, serialEvents)
		}
	}
}

func TestProcIdentity(t *testing.T) {
	e := NewEngine(Config{Seed: 1})
	p := e.Spawn("alice", func(p *Proc) {})
	if p.ID() != 0 || p.NumPeers() != 1 {
		t.Fatal("identity accessors")
	}
	if e.NumProcs() != 1 || e.Proc(0) != p {
		t.Fatal("engine accessors")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNetworkDefaultsApplied(t *testing.T) {
	e := NewEngine(Config{}) // nil network -> defaults
	var arrive Time
	e.Spawn("r", func(p *Proc) {
		m := p.Recv(CatIdle)
		arrive = m.ArrivedAt
	})
	e.Spawn("s", func(p *Proc) {
		p.Send(&Msg{Dst: 0, Size: 0}, CatMessaging)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := substrate.DefaultNetwork().SendCPU + substrate.DefaultNetwork().Latency
	if arrive != want {
		t.Fatalf("arrival %v, want %v", arrive, want)
	}
}

func TestMessageStamps(t *testing.T) {
	e := NewEngine(Config{Seed: 1})
	e.Spawn("r", func(p *Proc) {
		m := p.Recv(CatIdle)
		if m.SentAt >= m.ArrivedAt {
			t.Errorf("stamps: sent %v arrived %v", m.SentAt, m.ArrivedAt)
		}
	})
	e.Spawn("s", func(p *Proc) {
		p.Advance(100*Millisecond, CatCompute)
		p.Send(&Msg{Dst: 0, Size: 128}, CatMessaging)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestHugeFanIn(t *testing.T) {
	const senders = 100
	e := NewEngine(Config{Seed: 1})
	got := 0
	e.Spawn("sink", func(p *Proc) {
		for got < senders {
			p.WaitMsg(CatIdle)
			for p.TryRecv(CatMessaging) != nil {
				got++
			}
		}
	})
	for i := 0; i < senders; i++ {
		e.Spawn("s", func(p *Proc) {
			p.Send(&Msg{Dst: 0, Size: 64}, CatMessaging)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != senders {
		t.Fatalf("got %d of %d", got, senders)
	}
}
