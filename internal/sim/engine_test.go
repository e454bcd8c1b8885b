package sim

import (
	"errors"
	"strings"
	"testing"

	"prema/internal/substrate"
)

func testConfig() Config {
	net := substrate.DefaultNetwork()
	return Config{Network: &net, Seed: 1}
}

func TestAdvanceMovesVirtualTime(t *testing.T) {
	e := NewEngine(testConfig())
	var end Time
	e.Spawn("p0", func(p *Proc) {
		p.Advance(3*Second, CatCompute)
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 3*Second {
		t.Fatalf("end time = %v, want 3s", end)
	}
	if got := e.Proc(0).Account()[CatCompute]; got != 3*Second {
		t.Fatalf("compute account = %v, want 3s", got)
	}
}

func TestAdvanceZeroOrNegativeIsNoop(t *testing.T) {
	e := NewEngine(testConfig())
	e.Spawn("p0", func(p *Proc) {
		p.Advance(0, CatCompute)
		p.Advance(-5, CatCompute)
		if p.Now() != 0 {
			t.Errorf("time moved: %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	e := NewEngine(testConfig())
	var order []string
	spawn := func(name string, d Time) {
		e.Spawn(name, func(p *Proc) {
			p.Advance(d, CatCompute)
			order = append(order, name)
		})
	}
	spawn("slow", 2*Second)
	spawn("fast", 1*Second)
	spawn("tie-a", 1*Second)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// fast and tie-a finish at t=1s; their wake events were scheduled in
	// spawn order, so fast precedes tie-a.
	want := []string{"fast", "tie-a", "slow"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSendRecvLatencyAndOverheads(t *testing.T) {
	cfg := testConfig()
	cfg.Network = &substrate.Network{
		Latency: 100 * Microsecond,
		PerByte: 10 * Nanosecond,
		SendCPU: 5 * Microsecond,
		RecvCPU: 7 * Microsecond,
	}
	e := NewEngine(cfg)
	var got *Msg
	var recvAt Time
	e.Spawn("recv", func(p *Proc) {
		got = p.Recv(CatIdle)
		recvAt = p.Now()
	})
	e.Spawn("send", func(p *Proc) {
		p.Send(&Msg{Dst: 0, Kind: 42, Size: 1000, Data: "hi"}, CatMessaging)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Kind != 42 || got.Data.(string) != "hi" || got.Src != 1 {
		t.Fatalf("bad message: %+v", got)
	}
	// Arrival: sendCPU(5us) + latency(100us) + 1000B*10ns = 115us.
	wantArrive := 115 * Microsecond
	if got.ArrivedAt != wantArrive {
		t.Fatalf("arrived at %v, want %v", got.ArrivedAt, wantArrive)
	}
	// Receiver then pays 7us RecvCPU.
	if recvAt != wantArrive+7*Microsecond {
		t.Fatalf("recv completed at %v", recvAt)
	}
	// Receiver idle time is exactly the arrival time.
	if idle := e.Proc(0).Account()[CatIdle]; idle != wantArrive {
		t.Fatalf("idle = %v, want %v", idle, wantArrive)
	}
	if msg := e.Proc(0).Account()[CatMessaging]; msg != 7*Microsecond {
		t.Fatalf("recv messaging = %v", msg)
	}
	if msg := e.Proc(1).Account()[CatMessaging]; msg != 5*Microsecond {
		t.Fatalf("send messaging = %v", msg)
	}
}

func TestFIFOPerPair(t *testing.T) {
	e := NewEngine(testConfig())
	var kinds []int
	e.Spawn("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			kinds = append(kinds, p.Recv(CatIdle).Kind)
		}
	})
	e.Spawn("send", func(p *Proc) {
		// A big slow message followed by small fast ones: FIFO ordering must
		// still hold per (src,dst) pair.
		p.Send(&Msg{Dst: 0, Kind: 1, Size: 1 << 20}, CatMessaging)
		p.Send(&Msg{Dst: 0, Kind: 2, Size: 0}, CatMessaging)
		p.Send(&Msg{Dst: 0, Kind: 3, Size: 0}, CatMessaging)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, k := range kinds {
		if k != i+1 {
			t.Fatalf("kinds = %v, want [1 2 3]", kinds)
		}
	}
}

func TestTryRecvTagPreservesOrder(t *testing.T) {
	cfg := testConfig()
	cfg.Network.RecvCPU = 0
	e := NewEngine(cfg)
	e.Spawn("recv", func(p *Proc) {
		for p.InboxLen() < 4 {
			p.WaitMsg(CatIdle)
			if p.InboxLen() < 4 {
				p.Advance(Microsecond, CatIdle)
			}
		}
		if p.inbox.Peek(substrate.PollSpec{Tag: TagSystem}) == nil {
			t.Error("expected a system message")
		}
		m := p.TryRecvTag(TagSystem, CatMessaging)
		if m == nil || m.Kind != 2 {
			t.Fatalf("system msg = %+v", m)
		}
		if p.TryRecvTag(TagSystem, CatMessaging) != nil {
			t.Fatal("expected a single system message")
		}
		var rest []int
		for {
			m := p.TryRecv(CatMessaging)
			if m == nil {
				break
			}
			rest = append(rest, m.Kind)
		}
		if len(rest) != 3 || rest[0] != 1 || rest[1] != 3 || rest[2] != 4 {
			t.Fatalf("rest = %v, want [1 3 4]", rest)
		}
	})
	e.Spawn("send", func(p *Proc) {
		p.Send(&Msg{Dst: 0, Kind: 1, Tag: TagApp}, CatMessaging)
		p.Send(&Msg{Dst: 0, Kind: 2, Tag: TagSystem}, CatMessaging)
		p.Send(&Msg{Dst: 0, Kind: 3, Tag: TagApp}, CatMessaging)
		p.Send(&Msg{Dst: 0, Kind: 4, Tag: TagApp}, CatMessaging)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitMsgForTimesOut(t *testing.T) {
	e := NewEngine(testConfig())
	e.Spawn("p", func(p *Proc) {
		start := p.Now()
		if p.WaitMsgFor(50*Millisecond, CatIdle) {
			t.Error("unexpected message")
		}
		if p.Now()-start != 50*Millisecond {
			t.Errorf("waited %v", p.Now()-start)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitMsgForWakesEarlyOnDelivery(t *testing.T) {
	e := NewEngine(testConfig())
	e.Spawn("p", func(p *Proc) {
		if !p.WaitMsgFor(10*Second, CatIdle) {
			t.Error("expected message before timeout")
		}
		if p.Now() >= Second {
			t.Errorf("woke too late: %v", p.Now())
		}
	})
	e.Spawn("q", func(p *Proc) {
		p.Advance(10*Millisecond, CatCompute)
		p.Send(&Msg{Dst: 0}, CatMessaging)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestWaitTimeoutsLeaveWithTheirWait: a steal storm in miniature. Every
// processor idles in WaitMsgFor(50 ms) and is pinged about once per network
// round trip, so nearly every wait ends by a message long before its
// timeout. A beaten timeout must leave the heap with its wait: the heap and
// the ring never hold more than two timers per processor (a wait's timeout
// plus a CPU-overhead wake) plus the messages in flight. Leaving beaten
// timeouts to fire dead grows the heap to hundreds of entries per processor.
func TestWaitTimeoutsLeaveWithTheirWait(t *testing.T) {
	const P = 16
	e := NewEngine(testConfig())
	inFlight, worst, waits, over := 0, 0, 0, 0
	for i := 0; i < P; i++ {
		e.Spawn("p", func(p *Proc) {
			next := (p.ID() + 1) % P
			inFlight++
			p.Send(&Msg{Dst: next}, CatMessaging)
			for p.Now() < 200*Millisecond {
				waits++
				n := len(p.sh.heap.e) + p.sh.ring.n
				worst = max(worst, n)
				if n > 2*P+inFlight {
					over++
				}
				if !p.WaitMsgFor(50*Millisecond, CatIdle) {
					continue
				}
				p.TryRecv(CatMessaging)
				inFlight--
				p.Advance(100*Microsecond, CatCompute)
				inFlight++
				p.Send(&Msg{Dst: next}, CatMessaging)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if waits < 100*P {
		t.Fatalf("only %d waits, want a storm of >= %d", waits, 100*P)
	}
	if over > 0 {
		t.Errorf("%d of %d waits began with more than 2P + in-flight heap entries (peak %d, P = %d)", over, waits, worst, P)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine(testConfig())
	e.Spawn("waiter", func(p *Proc) {
		p.WaitMsg(CatIdle) // nobody ever sends
	})
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want deadlock", err)
	}
	if !strings.Contains(err.Error(), "waiter") {
		t.Fatalf("error should name the blocked proc: %v", err)
	}
}

func TestPanicPropagates(t *testing.T) {
	e := NewEngine(testConfig())
	e.Spawn("bad", func(p *Proc) {
		p.Advance(Second, CatCompute)
		panic("boom")
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want panic propagation", err)
	}
}

func TestMakespan(t *testing.T) {
	e := NewEngine(testConfig())
	e.Spawn("a", func(p *Proc) { p.Advance(2*Second, CatCompute) })
	e.Spawn("b", func(p *Proc) { p.Advance(5*Second, CatCompute) })
	e.Spawn("c", func(p *Proc) { p.Advance(1*Second, CatCompute) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Makespan() != 5*Second {
		t.Fatalf("makespan = %v", e.Makespan())
	}
}

// TestDeterminism runs a mildly chaotic message storm twice and requires
// byte-identical outcomes.
func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine(Config{Seed: 42})
		const n = 8
		for i := 0; i < n; i++ {
			e.Spawn("p", func(p *Proc) {
				rng := p.Rand()
				for round := 0; round < 20; round++ {
					p.Advance(Time(rng.Intn(1000))*Microsecond, CatCompute)
					dst := rng.Intn(n)
					if dst != p.ID() {
						p.Send(&Msg{Dst: dst, Size: rng.Intn(4096)}, CatMessaging)
					}
					for p.TryRecv(CatMessaging) != nil {
					}
				}
				// Drain stragglers without blocking forever.
				p.WaitMsgFor(100*Millisecond, CatIdle)
				for p.TryRecv(CatMessaging) != nil {
				}
			})
		}
		if err := e.Run(); err != nil && !errors.Is(err, ErrDeadlock) {
			t.Fatal(err)
		}
		var out []Time
		for i := 0; i < n; i++ {
			out = append(out, e.Proc(i).finishedAt, e.Proc(i).Account().Total())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterminism at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestAccountOverheadExcludesComputeAndIdle(t *testing.T) {
	var a Account
	a[CatCompute] = 100
	a[CatIdle] = 50
	a[CatMessaging] = 7
	a[CatScheduling] = 3
	if a.Total() != 160 {
		t.Fatalf("total = %d", a.Total())
	}
	if a.Overhead() != 10 {
		t.Fatalf("overhead = %d", a.Overhead())
	}
}
