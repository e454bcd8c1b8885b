package sim

import (
	"runtime"
	"testing"
	"time"
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
// teardown) the processor goroutines must be gone.
func TestTeardownLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		e := NewEngine(Config{Seed: 1})
		for i := 0; i < 20; i++ {
			e.Spawn("stuck", func(p *Proc) { p.WaitMsg(CatIdle) })
		}
		if err := e.Run(); err == nil {
			t.Fatal("expected deadlock")
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
	e := NewEngine(Config{}) // zero network -> defaults
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
	want := DefaultNetwork().SendCPU + DefaultNetwork().Latency
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
