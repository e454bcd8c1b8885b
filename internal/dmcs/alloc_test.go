package dmcs

import (
	"runtime"
	"testing"
	"unsafe"

	"prema/internal/faulty"
	"prema/internal/sim"
	"prema/internal/substrate"
	"prema/internal/wire"
)

// msgMallocs returns how many objects the runtime has allocated in the size
// class that holds a substrate.Msg.
func msgMallocs(ms *runtime.MemStats) uint64 {
	size := uint32(unsafe.Sizeof(substrate.Msg{}))
	for _, c := range ms.BySize {
		if c.Size >= size {
			return c.Mallocs
		}
	}
	panic("no size class holds a substrate.Msg")
}

// roundTripAllocs plays warm+n ping-pong round trips between dmcs processor
// 0 and peers others on the simulator, rotating over them, decorated by wrap
// when it is not nil, and returns, per round trip after the warm-up, the
// allocations of every kind, those in a Msg's size class, and the acks all
// processors sent. The pings and pongs carry no payload, so nothing boxes.
// The simulator runs every processor on one thread, so processor 0 may read
// its peers' counters.
func roundTripAllocs(t *testing.T, reliable bool, peers int, wrap func(substrate.Machine) substrate.Machine) (all, msgs, acks float64) {
	const warm, n = 500, 5000
	var ms0, ms1 runtime.MemStats
	comms := make([]*Comm, 1+peers)
	acksSent := func() int {
		sum := 0
		for _, c := range comms {
			sum += c.RelStats().AcksSent
		}
		return sum
	}
	var acks0, acks1 int
	var m substrate.Machine = sim.NewMachine(sim.Config{Seed: 1})
	if wrap != nil {
		m = wrap(m)
	}
	for id := 0; id <= peers; id++ {
		m.Spawn("p", func(ep substrate.Endpoint) {
			c := New(ep)
			comms[id] = c
			if reliable {
				c.EnableReliable(DefaultRelConfig())
			}
			got := 0
			var h HandlerID
			h = c.Register(func(c *Comm, src int, data any, size int) {
				got++
				if id != 0 {
					c.SendTagged(0, h, nil, 8, substrate.TagSystem)
				}
			})
			if id != 0 {
				// Round trip r pings peer 1 + r%peers.
				for got < (warm+n-id+peers)/peers {
					c.WaitPoll(substrate.CatIdle)
				}
				c.Quiesce()
				return
			}
			for r := 0; r < warm+n; r++ {
				if r == warm {
					acks0 = acksSent()
					runtime.ReadMemStats(&ms0)
				}
				c.SendTagged(1+r%peers, h, nil, 8, substrate.TagSystem)
				for got <= r {
					c.WaitPoll(substrate.CatIdle)
				}
			}
			runtime.ReadMemStats(&ms1)
			acks1 = acksSent()
			c.Quiesce()
		})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return float64(ms1.Mallocs-ms0.Mallocs) / n, float64(msgMallocs(&ms1)-msgMallocs(&ms0)) / n, float64(acks1-acks0) / n
}

// TestCommSteadyStateZeroAllocs: once warm, a dmcs round trip allocates
// nothing — every send reuses a message the processor has consumed, and a
// reliable-mode ack is header-only (its tag boxes without allocating). That
// holds over the wire loopback too, which decodes each frame into the shell
// the previous send gave up, and with round trips rotating over seven peers
// through the fault injector, whose plan overrides one link the test never
// uses: finding a peer's stream and resolving a link's faults allocate
// nothing either.
func TestCommSteadyStateZeroAllocs(t *testing.T) {
	const slack = 0.01 // runtime-internal allocations
	unusedLink := faulty.Plan{Links: map[faulty.Link]faulty.LinkFaults{{Src: 3, Dst: 5}: {Drop: 0.5}}}
	for _, tc := range []struct {
		name     string
		reliable bool
		peers    int
		wrap     func(substrate.Machine) substrate.Machine
	}{
		{"plain", false, 1, nil},
		{"reliable", true, 1, nil},
		{"reliable+wire", true, 1, func(m substrate.Machine) substrate.Machine { return wire.Wrap(m) }},
		{"reliable+wire+faulty, 7 peers", true, 7, func(m substrate.Machine) substrate.Machine {
			return faulty.Wrap(wire.Wrap(m), unusedLink, 1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			all, msgs, acks := roundTripAllocs(t, tc.reliable, tc.peers, tc.wrap)
			if all > slack || msgs > slack {
				t.Errorf("a round trip allocates %.4f objects, %.4f of them Msg-sized; want 0", all, msgs)
			}
			if tc.reliable && acks < 1 {
				t.Errorf("a round trip sent %.4f acks, want at least one", acks)
			}
		})
	}
}

// BenchmarkReliableWireRoundTrip times one reliable round trip between two
// processors over the wire loopback with light loss and duplication
// (drop=0.01,dup=0.01, fig3_chaos's plan): the stream lookups, acks, codec
// round trips, fault draws and retransmissions a faulted message costs the
// host.
func BenchmarkReliableWireRoundTrip(b *testing.B) {
	plan, err := faulty.ParsePlan("drop=0.01,dup=0.01")
	if err != nil {
		b.Fatal(err)
	}
	m := faulty.Wrap(wire.Wrap(sim.NewMachine(sim.Config{Seed: 1})), plan, 1)
	n := b.N
	for id := 0; id < 2; id++ {
		m.Spawn("p", func(ep substrate.Endpoint) {
			c := New(ep)
			c.EnableReliable(DefaultRelConfig())
			got := 0
			var h HandlerID
			h = c.Register(func(c *Comm, src int, data any, size int) {
				got++
				if id == 1 {
					c.SendTagged(0, h, data, 8, substrate.TagSystem)
				}
			})
			for r := 0; r < n; r++ {
				if id == 0 {
					c.SendTagged(1, h, r&127, 8, substrate.TagSystem)
				}
				for got <= r {
					c.WaitPoll(substrate.CatIdle)
				}
			}
			c.Quiesce()
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
}
