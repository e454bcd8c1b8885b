package rtm_test

import (
	"runtime"
	"testing"
	"time"

	"prema/internal/rtm"
	"prema/internal/sim"
	"prema/internal/substrate"
)

// TestDefaultConfigMirrorsSimNetwork: DefaultConfig claims the simulator's
// Fast Ethernet model; the two cost tables are written twice, so pin them.
func TestDefaultConfigMirrorsSimNetwork(t *testing.T) {
	c, n := rtm.DefaultConfig(), sim.DefaultNetwork()
	if c.Latency != n.Latency || c.PerByte != n.PerByte || c.SendCPU != n.SendCPU || c.RecvCPU != n.RecvCPU {
		t.Errorf("rtm.DefaultConfig() = %+v, sim.DefaultNetwork() = %+v", c, n)
	}
}

// TestMachineFootprintIsLinear: a machine of P ranks costs P feeds and P
// goroutines — nothing per (src,dst) pair — so the paper's 128 processors
// fit in a few megabytes with the latency model on.
func TestMachineFootprintIsLinear(t *testing.T) {
	t.Run("alloc", func(t *testing.T) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m := rtm.New(rtm.DefaultConfig())
		for p := 0; p < 128; p++ {
			m.Spawn("p", func(substrate.Endpoint) {})
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<20 {
			t.Errorf("a 128-rank machine allocated %d MiB, want < 64", got>>20)
		}
	})
	t.Run("goroutines", func(t *testing.T) {
		const procs = 64
		before := runtime.NumGoroutine()
		m := rtm.New(rtm.DefaultConfig())
		m.Spawn("root", func(ep substrate.Endpoint) {
			if got := runtime.NumGoroutine(); got > before+procs+8 {
				t.Errorf("%d goroutines mid-run, %d before: want at most one per rank", got, before)
			}
			for dst := 1; dst < procs; dst++ {
				ep.Send(&substrate.Msg{Dst: dst}, substrate.CatMessaging)
			}
		})
		for p := 1; p < procs; p++ {
			m.Spawn("leaf", func(ep substrate.Endpoint) { ep.WaitMsg(substrate.CatIdle) })
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// slowNet is a machine in real time whose messages fly for 50 ms of wall
// clock plus a microsecond a byte: long enough for a test to look at the
// receiver while a message is in flight.
func slowNet() *rtm.Machine {
	return rtm.New(rtm.Config{TimeScale: 1, Latency: 50 * substrate.Millisecond, PerByte: substrate.Microsecond, Seed: 1})
}

// TestMessageInvisibleUntilArrival: the simulator's inbox semantics — a
// message in flight is in nobody's inbox — hold on the wall clock, for the
// polling calls and for both blocking ones.
func TestMessageInvisibleUntilArrival(t *testing.T) {
	m := slowNet()
	sent := make(chan struct{})
	m.Spawn("recv", func(ep substrate.Endpoint) {
		<-sent
		ep.Advance(10*substrate.Millisecond, substrate.CatCompute)
		if n := ep.InboxLen(); n != 0 {
			t.Errorf("InboxLen = %d with the message in flight", n)
		}
		if msg := ep.TryRecvTag(substrate.TagSystem, substrate.CatMessaging); msg != nil {
			t.Errorf("TryRecvTag returned a message in flight: %+v", msg)
		}
		if msg := ep.TryRecv(substrate.CatMessaging); msg != nil {
			t.Errorf("TryRecv returned a message in flight: %+v", msg)
		}
		if ep.WaitMsgFor(10*substrate.Millisecond, substrate.CatIdle) {
			t.Error("WaitMsgFor shorter than the flight reported a message")
		}
		ep.WaitMsg(substrate.CatIdle)
		now := ep.Now()
		msg := ep.TryRecvTag(substrate.TagSystem, substrate.CatMessaging)
		if msg == nil {
			t.Error("WaitMsg returned with nothing to receive: the timed-out wait lost the message")
			return
		}
		if msg.ArrivedAt < msg.SentAt+50*substrate.Millisecond {
			t.Errorf("flight of %v, want at least the 50ms latency", msg.ArrivedAt-msg.SentAt)
		}
		if now < msg.ArrivedAt {
			t.Errorf("WaitMsg returned at %v, before the arrival at %v", now, msg.ArrivedAt)
		}
	})
	m.Spawn("send", func(ep substrate.Endpoint) {
		ep.Send(&substrate.Msg{Dst: 0, Tag: substrate.TagSystem}, substrate.CatMessaging)
		close(sent)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestDeliveryInArrivalOrder: a bulk sender's messages (150 ms in flight;
// the later, smaller ones queue behind the first) are already held by the
// receiver when a second sender's short ones (51 ms) go out, and the short
// ones are delivered first: arrival order across senders, send order within
// each.
func TestDeliveryInArrivalOrder(t *testing.T) {
	m := slowNet()
	bulkSent, held := make(chan struct{}), make(chan struct{})
	var got []*substrate.Msg
	m.Spawn("recv", func(ep substrate.Endpoint) {
		<-bulkSent
		if n := ep.InboxLen(); n != 0 { // takes the bulk messages off the feed
			t.Errorf("InboxLen = %d with every message in flight", n)
		}
		close(held)
		for len(got) < 6 {
			got = append(got, ep.Recv(substrate.CatIdle))
		}
	})
	m.Spawn("bulk", func(ep substrate.Endpoint) {
		for i, size := range []int{100000, 10000, 0} {
			ep.Send(&substrate.Msg{Dst: 0, Kind: i, Size: size}, substrate.CatMessaging)
		}
		close(bulkSent)
	})
	m.Spawn("short", func(ep substrate.Endpoint) {
		<-held
		for i := 0; i < 3; i++ {
			ep.Send(&substrate.Msg{Dst: 0, Kind: i, Size: 1000}, substrate.CatMessaging)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for i, msg := range got {
		if want := 2 - i/3; msg.Src != want || msg.Kind != i%3 {
			t.Errorf("delivery %d is message %d of rank %d, want message %d of rank %d", i, msg.Kind, msg.Src, i%3, want)
		}
		if i > 0 && msg.ArrivedAt < got[i-1].ArrivedAt {
			t.Errorf("delivery %d arrived at %v, before delivery %d at %v", i, msg.ArrivedAt, i-1, got[i-1].ArrivedAt)
		}
	}
}

// TestSendToFinishedRankIsDeadLetter: once a rank's body has returned,
// nothing drains its feed, so a message for it is dropped instead of
// blocking the sender when the feed is full — by Send and by Inject alike.
// Before the drop, the ChanCap+1st send here blocked for good.
func TestSendToFinishedRankIsDeadLetter(t *testing.T) {
	m := rtm.New(rtm.DefaultConfig())
	m.Spawn("finished", func(substrate.Endpoint) {})
	m.Spawn("sender", func(ep substrate.Endpoint) {
		ep.Advance(substrate.Millisecond, substrate.CatCompute)
		for i := 0; i <= rtm.ChanCap; i++ {
			ep.Send(&substrate.Msg{Dst: 0, Size: 8}, substrate.CatMessaging)
		}
		for i := 0; i <= rtm.ChanCap; i++ {
			if !m.Inject(&substrate.Msg{Src: 1, Dst: 0, Size: 8}) {
				t.Errorf("Inject %d reported a stopped machine while the sender runs", i)
				return
			}
		}
	})
	ran := make(chan error, 1)
	go func() { ran <- m.Run() }()
	select {
	case err := <-ran:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sends to a finished rank still blocked after 5 s")
	}
}
