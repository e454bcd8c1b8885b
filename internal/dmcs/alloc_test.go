package dmcs

import (
	"runtime"
	"testing"
	"unsafe"

	"prema/internal/sim"
	"prema/internal/substrate"
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
// processors on the simulator and returns, per round trip after the warm-up,
// the allocations of every kind, those in a Msg's size class, and the acks
// both sent. The pings and pongs carry no payload, so nothing boxes. The
// simulator runs both processors on one thread, so processor 0 may read its
// peer's counters.
func roundTripAllocs(t *testing.T, reliable bool) (all, msgs, acks float64) {
	const warm, n = 500, 5000
	var ms0, ms1 runtime.MemStats
	var comms [2]*Comm
	acksSent := func() int { return comms[0].RelStats().AcksSent + comms[1].RelStats().AcksSent }
	var acks0, acks1 int
	m := sim.NewMachine(sim.Config{Seed: 1})
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

// TestCommSteadyStateZeroAllocs: once warm, a dmcs round trip allocates no
// message — every send reuses one the processor has consumed. In
// fire-and-forget mode it allocates nothing at all; in reliable mode the only
// allocation left is each ack's boxed payload.
func TestCommSteadyStateZeroAllocs(t *testing.T) {
	const slack = 0.01 // runtime-internal allocations
	t.Run("plain", func(t *testing.T) {
		all, msgs, _ := roundTripAllocs(t, false)
		if all > slack || msgs > slack {
			t.Errorf("a round trip allocates %.4f objects, %.4f of them Msg-sized; want 0", all, msgs)
		}
	})
	t.Run("reliable", func(t *testing.T) {
		all, msgs, acks := roundTripAllocs(t, true)
		if msgs > slack {
			t.Errorf("a round trip allocates %.4f Msg-sized objects, want 0", msgs)
		}
		if acks < 1 || all > acks+slack {
			t.Errorf("a round trip allocates %.4f objects with %.4f acks sent, want at most one per ack", all, acks)
		}
	})
}
