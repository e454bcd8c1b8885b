package dmcs

import (
	"runtime"
	"testing"
	"unsafe"

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

// roundTripAllocs plays warm+n ping-pong round trips between two dmcs
// processors on the simulator, decorated by wrap when it is not nil, and
// returns, per round trip after the warm-up, the allocations of every kind,
// those in a Msg's size class, and the acks both sent. The pings and pongs
// carry no payload, so nothing boxes. The simulator runs both processors on
// one thread, so processor 0 may read its peer's counters.
func roundTripAllocs(t *testing.T, reliable bool, wrap func(substrate.Machine) substrate.Machine) (all, msgs, acks float64) {
	const warm, n = 500, 5000
	var ms0, ms1 runtime.MemStats
	var comms [2]*Comm
	acksSent := func() int { return comms[0].RelStats().AcksSent + comms[1].RelStats().AcksSent }
	var acks0, acks1 int
	var m substrate.Machine = sim.NewMachine(sim.Config{Seed: 1})
	if wrap != nil {
		m = wrap(m)
	}
	for id := 0; id < 2; id++ {
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
				if id == 1 {
					c.SendTagged(0, h, nil, 8, substrate.TagSystem)
				}
			})
			for r := 0; r < warm+n; r++ {
				if id == 0 {
					if r == warm {
						acks0 = acksSent()
						runtime.ReadMemStats(&ms0)
					}
					c.SendTagged(1, h, nil, 8, substrate.TagSystem)
				}
				for got <= r {
					c.WaitPoll(substrate.CatIdle)
				}
			}
			if id == 0 {
				runtime.ReadMemStats(&ms1)
				acks1 = acksSent()
			}
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
// the previous send gave up.
func TestCommSteadyStateZeroAllocs(t *testing.T) {
	const slack = 0.01 // runtime-internal allocations
	for _, tc := range []struct {
		name     string
		reliable bool
		wrap     func(substrate.Machine) substrate.Machine
	}{
		{"plain", false, nil},
		{"reliable", true, nil},
		{"reliable+wire", true, func(m substrate.Machine) substrate.Machine { return wire.Wrap(m) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			all, msgs, acks := roundTripAllocs(t, tc.reliable, tc.wrap)
			if all > slack || msgs > slack {
				t.Errorf("a round trip allocates %.4f objects, %.4f of them Msg-sized; want 0", all, msgs)
			}
			if tc.reliable && acks < 1 {
				t.Errorf("a round trip sent %.4f acks, want at least one", acks)
			}
		})
	}
}
