package rtm_test

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"prema/internal/rtm"
	"prema/internal/substrate"
)

// machine is what the endpoint-contract tests drive.
type machine interface {
	Spawn(name string, body func(substrate.Endpoint))
	Run() error
	Fail(err error)
	Account(i int) *substrate.Account
}

// joined is one machine cut into two shares linked in memory — rank 0 on
// one, every other rank on the other, each share's remote link the other's
// Inject. It is the socket-free stand-in for a distributed machine: the
// shares agree on an epoch before either runs, and a share that fails takes
// its peer down, as a node closing its mesh does.
type joined struct{ a, b *rtm.Machine }

func joinShares(cfg rtm.Config) *joined {
	j := &joined{}
	j.a = rtm.NewShare(cfg, 0, 1, func(m *substrate.Msg) bool { return j.b.Inject(m) })
	j.b = rtm.NewShare(cfg, 1, math.MaxInt, func(m *substrate.Msg) bool { return j.a.Inject(m) })
	return j
}

func (j *joined) Spawn(name string, body func(substrate.Endpoint)) {
	j.a.Spawn(name, body)
	j.b.Spawn(name, body)
}

func (j *joined) Account(i int) *substrate.Account {
	if i == 0 {
		return j.a.Account(0)
	}
	return j.b.Account(i)
}

func (j *joined) Fail(err error) {
	j.a.Fail(err)
	j.b.Fail(err)
}

func (j *joined) Run() error {
	epoch := time.Now()
	j.a.SetEpoch(epoch)
	j.b.SetEpoch(epoch)
	errs := make(chan error, 2)
	for _, m := range []*rtm.Machine{j.a, j.b} {
		go func(m *rtm.Machine) {
			err := m.Run()
			if err != nil {
				j.Fail(nil)
			}
			errs <- err
		}(m)
	}
	err := <-errs
	if err2 := <-errs; err == nil {
		err = err2
	}
	return err
}

// onBothShapes runs an endpoint-contract test on a whole machine and on two
// joined shares of one: the contract may not depend on where a rank lives.
func onBothShapes(t *testing.T, test func(t *testing.T, newMachine func(rtm.Config) machine)) {
	t.Run("whole", func(t *testing.T) {
		test(t, func(cfg rtm.Config) machine { return rtm.New(cfg) })
	})
	t.Run("two-shares", func(t *testing.T) {
		test(t, func(cfg rtm.Config) machine { return joinShares(cfg) })
	})
}

// TestPerPairFIFOUnderLatency: the injected latency model must preserve
// per-(src,dst) order even when arrival times collide.
func TestPerPairFIFOUnderLatency(t *testing.T) {
	onBothShapes(t, func(t *testing.T, newMachine func(rtm.Config) machine) {
		const n = 300
		m := newMachine(rtm.Config{
			TimeScale: 1e-6, // scheduled arrivals are all in the past: worst case for reordering
			Latency:   50 * substrate.Microsecond,
			PerByte:   10 * substrate.Nanosecond,
			Seed:      1,
		})
		var got []int
		m.Spawn("recv", func(ep substrate.Endpoint) {
			for len(got) < n {
				msg := ep.Recv(substrate.CatIdle)
				got = append(got, msg.Kind)
			}
		})
		m.Spawn("send", func(ep substrate.Endpoint) {
			for i := 0; i < n; i++ {
				ep.Send(&substrate.Msg{Dst: 0, Kind: i, Size: 64}, substrate.CatMessaging)
			}
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		for i, k := range got {
			if k != i {
				t.Fatalf("message %d arrived in position %d", k, i)
			}
		}
	})
}

// TestPerSenderFIFODirectPath: with no injected latency a message arrives
// the moment it is sent; each sender's order must still hold.
func TestPerSenderFIFODirectPath(t *testing.T) {
	onBothShapes(t, func(t *testing.T, newMachine func(rtm.Config) machine) {
		const n = 200
		m := newMachine(rtm.Config{TimeScale: 1e-3, Seed: 1})
		bySrc := map[int][]int{}
		m.Spawn("recv", func(ep substrate.Endpoint) {
			for total := 0; total < 2*n; total++ {
				msg := ep.Recv(substrate.CatIdle)
				bySrc[msg.Src] = append(bySrc[msg.Src], msg.Kind)
			}
		})
		for s := 1; s <= 2; s++ {
			m.Spawn("send", func(ep substrate.Endpoint) {
				for i := 0; i < n; i++ {
					ep.Send(&substrate.Msg{Dst: 0, Kind: i}, substrate.CatMessaging)
				}
			})
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		for src, ks := range bySrc {
			if len(ks) != n {
				t.Fatalf("src %d delivered %d of %d", src, len(ks), n)
			}
			for i, k := range ks {
				if k != i {
					t.Fatalf("src %d: message %d in position %d", src, k, i)
				}
			}
		}
	})
}

// TestAdvanceChargesMeasuredTime: Advance must burn at least the requested
// virtual duration and charge what the monotonic clock measured.
func TestAdvanceChargesMeasuredTime(t *testing.T) {
	m := rtm.New(rtm.Config{TimeScale: 1e-3, Seed: 1})
	m.Spawn("p", func(ep substrate.Endpoint) {
		ep.Advance(20*substrate.Millisecond, substrate.CatCompute)
		ep.Advance(-substrate.Second, substrate.CatCompute) // non-positive: no-op
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Account(0)[substrate.CatCompute]; got < 20*substrate.Millisecond {
		t.Fatalf("compute charged %v, want >= 20ms", got)
	}
	if m.Makespan() < 20*substrate.Millisecond {
		t.Fatalf("makespan %v", m.Makespan())
	}
}

func TestWaitMsgForTimesOut(t *testing.T) {
	onBothShapes(t, func(t *testing.T, newMachine func(rtm.Config) machine) {
		m := newMachine(rtm.Config{TimeScale: 1e-3, Seed: 1})
		m.Spawn("lonely", func(ep substrate.Endpoint) {
			t0 := ep.Now()
			if ep.WaitMsgFor(10*substrate.Millisecond, substrate.CatIdle) {
				t.Error("reported a message on an empty network")
			}
			if el := ep.Now() - t0; el < 10*substrate.Millisecond {
				t.Errorf("returned after %v, before the deadline", el)
			}
			if ep.TryRecv(substrate.CatMessaging) != nil {
				t.Error("TryRecv returned a phantom message")
			}
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if got := m.Account(0)[substrate.CatIdle]; got < 10*substrate.Millisecond {
			t.Errorf("idle charged %v", got)
		}
	})
}

func TestTryRecvTagFiltering(t *testing.T) {
	onBothShapes(t, func(t *testing.T, newMachine func(rtm.Config) machine) {
		m := newMachine(rtm.Config{TimeScale: 1e-3, Seed: 1})
		m.Spawn("recv", func(ep substrate.Endpoint) {
			for ep.InboxLen() < 3 {
				ep.WaitMsgFor(substrate.Millisecond, substrate.CatIdle)
			}
			if msg := ep.TryRecvTag(substrate.TagSystem, substrate.CatMessaging); msg == nil || msg.Kind != 1 {
				t.Errorf("tag recv got %+v", msg)
			}
			if msg := ep.TryRecvTag(substrate.TagSystem, substrate.CatMessaging); msg != nil {
				t.Errorf("second tag recv got %+v", msg)
			}
			if a := ep.TryRecv(substrate.CatMessaging); a == nil || a.Kind != 0 {
				t.Errorf("app recv got %+v", a)
			}
		})
		m.Spawn("send", func(ep substrate.Endpoint) {
			ep.Send(&substrate.Msg{Dst: 0, Kind: 0, Tag: substrate.TagApp}, substrate.CatMessaging)
			ep.Send(&substrate.Msg{Dst: 0, Kind: 1, Tag: substrate.TagSystem}, substrate.CatMessaging)
			ep.Send(&substrate.Msg{Dst: 0, Kind: 2, Tag: substrate.TagApp}, substrate.CatMessaging)
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPanicTearsDownMachine: one processor panicking must surface as Run's
// error and release processors blocked in substrate calls.
func TestPanicTearsDownMachine(t *testing.T) {
	onBothShapes(t, func(t *testing.T, newMachine func(rtm.Config) machine) {
		m := newMachine(rtm.Config{TimeScale: 1e-3, Seed: 1})
		m.Spawn("waiter", func(ep substrate.Endpoint) {
			ep.WaitMsg(substrate.CatIdle) // would block forever
		})
		m.Spawn("bad", func(ep substrate.Endpoint) {
			panic("boom")
		})
		err := m.Run()
		if err == nil || !strings.Contains(err.Error(), "bad") || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("err = %v", err)
		}
	})
}

// TestStopKillsBlockedProcessors: stopping the machine (Fail, as dist does
// when a peer is lost — here without a cause) must unblock processors
// mid-Advance without reporting an error.
func TestStopKillsBlockedProcessors(t *testing.T) {
	onBothShapes(t, func(t *testing.T, newMachine func(rtm.Config) machine) {
		m := newMachine(rtm.Config{TimeScale: 1, Seed: 1})
		m.Spawn("sleeper", func(ep substrate.Endpoint) {
			ep.Advance(3600*substrate.Second, substrate.CatCompute) // an hour of wall-clock unless killed
		})
		m.Spawn("stopper", func(ep substrate.Endpoint) {
			m.Fail(nil)
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestStopReleasesSenderBlockedOnFullLink: a sender back-pressured by a full
// delivery queue — the destination's inbox feed, reached directly or through
// the other share's Inject — must die when the machine stops, not hang it.
func TestStopReleasesSenderBlockedOnFullLink(t *testing.T) {
	onBothShapes(t, func(t *testing.T, newMachine func(rtm.Config) machine) {
		m := newMachine(rtm.Config{TimeScale: 1, Seed: 1})
		var sent atomic.Int64
		m.Spawn("deaf", func(ep substrate.Endpoint) {
			ep.Advance(3600*substrate.Second, substrate.CatCompute) // never receives
		})
		m.Spawn("flood", func(ep substrate.Endpoint) {
			for {
				ep.Send(&substrate.Msg{Dst: 0}, substrate.CatMessaging)
				sent.Add(1)
			}
		})
		go func() {
			for sent.Load() < rtm.ChanCap {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(5 * time.Millisecond) // let send ChanCap+1 block
			m.Fail(nil)
		}()
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestInjectAfterStop: once a share's bodies have returned Inject reports
// false, and to a sender on a share that is still running that is a dead
// letter, not its own death.
func TestInjectAfterStop(t *testing.T) {
	j := joinShares(rtm.Config{TimeScale: 1e-3, Seed: 1})
	finished := make(chan struct{})
	j.Spawn("early", func(ep substrate.Endpoint) {})
	j.Spawn("late", func(ep substrate.Endpoint) {
		<-finished
		ep.Send(&substrate.Msg{Dst: 0}, substrate.CatMessaging)
		ep.Advance(substrate.Millisecond, substrate.CatCompute) // still alive
	})
	go func() {
		<-j.a.Stopped()
		close(finished)
	}()
	if err := j.Run(); err != nil {
		t.Fatal(err)
	}
	if j.a.Inject(&substrate.Msg{Dst: 0}) {
		t.Error("Inject into a stopped share reported delivery")
	}
	if got := j.b.Account(1)[substrate.CatCompute]; got < substrate.Millisecond {
		t.Errorf("late sender was killed by a dead letter (compute %v)", got)
	}
}

func TestEndpointIdentity(t *testing.T) {
	m := rtm.New(rtm.Config{TimeScale: 1e-3, Seed: 42})
	m.Spawn("a", func(ep substrate.Endpoint) {
		if ep.ID() != 0 || ep.NumPeers() != 2 {
			t.Errorf("identity: id=%d peers=%d", ep.ID(), ep.NumPeers())
		}
		if ep.Rand() == nil {
			t.Error("nil rng")
		}
	})
	m.Spawn("b", func(ep substrate.Endpoint) {
		if ep.ID() != 1 {
			t.Errorf("identity: id=%d", ep.ID())
		}
	})
	if m.NumProcs() != 2 {
		t.Fatalf("NumProcs = %d", m.NumProcs())
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}
