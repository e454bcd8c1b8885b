package dmcs

import (
	"fmt"
	"hash/fnv"
	"testing"

	"prema/internal/faulty"
	"prema/internal/sim"
	"prema/internal/substrate"
)

// schedulePins holds, per ping-pong, the simulator's event count and a hash
// of both processors' ledgers and of every value the waiting call returned.
// A poll or wait loop that parks, wakes or fires one more time than before —
// an extra empty receive that costs time, a wait cut short or stretched —
// moves one of them. The values were recorded while each delivery mode still
// had a poll loop and a wait loop of its own.
var schedulePins = []struct {
	mode, link, op string
	events         uint64
	calls          int
	hash           uint64
}{
	{"plain", "clean", "PollTag", 122, 48, 0x16bfa598ec08cf69},
	{"plain", "clean", "WaitPoll", 98, 24, 0x6d10c7fbe45be689},
	{"plain", "clean", "WaitPollFor", 122, 24, 0x6d10c7fbe45be689},
	{"plain", "faulted", "PollTag", 151, 64, 0x3536d3f42ed08c1f},
	{"plain", "faulted", "WaitPoll", 111, 24, 0xee6c9788af2865a7},
	{"plain", "faulted", "WaitPollFor", 146, 35, 0xb1abb308c14840e7},
	{"reliable", "clean", "PollTag", 197, 48, 0x8a317fe4109b0377},
	{"reliable", "clean", "WaitPoll", 196, 24, 0xe661c1c64c7534d7},
	{"reliable", "clean", "WaitPollFor", 197, 24, 0xe661c1c64c7534d7},
	{"reliable", "faulted", "PollTag", 234, 80, 0x33504ab0233bfe0b},
	{"reliable", "faulted", "WaitPoll", 214, 24, 0xbb68d87067e5c193},
	{"reliable", "faulted", "WaitPollFor", 229, 38, 0x871fd094582e1593},
}

// waits are the three ways a processor waits for its peer's message.
var waits = map[string]func(c *Comm) int{
	"PollTag": func(c *Comm) int {
		n := c.PollTag(substrate.TagSystem)
		if n == 0 {
			c.Proc().WaitMsgFor(2*substrate.Millisecond, substrate.CatIdle)
		}
		return n
	},
	"WaitPoll":    func(c *Comm) int { return c.WaitPoll(substrate.CatIdle) },
	"WaitPollFor": func(c *Comm) int { return c.WaitPollFor(3*substrate.Millisecond, substrate.CatIdle) },
}

// pingPong plays rounds of ping (processor 0) and pong (processor 1) on the
// simulator, each side waiting with wait, optionally behind a fault plan that
// duplicates, delays and reorders (drops would stall plain mode). It returns
// the engine's event count, the number of wait calls and a hash of the
// ledgers and the calls' return values.
func pingPong(t *testing.T, reliable, faulted bool, wait func(c *Comm) int) (uint64, int, uint64) {
	const rounds = 12
	sm := sim.NewMachine(sim.Config{Seed: 3})
	var m substrate.Machine = sm
	if faulted {
		plan, err := faulty.ParsePlan("dup=0.2,delay=0.3:5ms,reorder=0.3")
		if err != nil {
			t.Fatal(err)
		}
		m = faulty.Wrap(sm, plan, 7)
	}
	var rets []int
	for id := 0; id < 2; id++ {
		m.Spawn("p", func(ep substrate.Endpoint) {
			c := New(ep)
			if reliable {
				c.EnableReliable(DefaultRelConfig())
			}
			last := -1 // highest round seen from the peer; duplicates repeat one
			var h HandlerID
			h = c.Register(func(c *Comm, src int, data any, size int) {
				r := data.(int)
				if r > last {
					last = r
					if id == 1 {
						c.SendTagged(0, h, r, 8, substrate.TagSystem)
					}
				}
			})
			for r := 0; r < rounds; r++ {
				if id == 0 {
					c.SendTagged(1, h, r, 8, substrate.TagSystem)
				}
				for last < r {
					rets = append(rets, wait(c))
				}
			}
			c.Quiesce()
		})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for i := 0; i < 2; i++ {
		fmt.Fprint(h, *sm.Account(i))
	}
	fmt.Fprint(h, rets)
	return sm.EventsFired(), len(rets), h.Sum64()
}

// TestSchedulePinned pins the schedule of DMCS's poll and wait loops in both
// delivery modes, over a clean and over a faulted link.
func TestSchedulePinned(t *testing.T) {
	for _, pin := range schedulePins {
		events, calls, hash := pingPong(t, pin.mode == "reliable", pin.link == "faulted", waits[pin.op])
		if events != pin.events || calls != pin.calls || hash != pin.hash {
			t.Errorf("%s/%s/%s: got %d events, %d calls, hash %#x; pinned %d, %d, %#x",
				pin.mode, pin.link, pin.op, events, calls, hash, pin.events, pin.calls, pin.hash)
		}
	}
}
