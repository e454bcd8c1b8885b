package dmcs

import (
	"testing"

	"prema/internal/sim"
)

// harness spins up n processors, calls setup on each to build per-proc state
// and register handlers, then runs each body.
func harness(t *testing.T, n int, body func(c *Comm)) {
	t.Helper()
	e := sim.NewEngine(sim.Config{Seed: 1})
	for i := 0; i < n; i++ {
		e.Spawn("p", func(p *sim.Proc) {
			body(New(p))
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestHandlerInvocation(t *testing.T) {
	var got []int
	harness(t, 2, func(c *Comm) {
		h := c.Register(func(c *Comm, src int, data any, size int) {
			got = append(got, data.(int), src, size)
		})
		switch c.Proc().ID() {
		case 0:
			c.Proc().WaitMsg(sim.CatIdle)
			c.Poll()
		case 1:
			c.Send(0, h, 99, 16)
		}
	})
	if len(got) != 3 || got[0] != 99 || got[1] != 1 || got[2] != 16 {
		t.Fatalf("got = %v", got)
	}
}

func TestPollDispatchesAllQueued(t *testing.T) {
	count := 0
	harness(t, 2, func(c *Comm) {
		h := c.Register(func(c *Comm, src int, data any, size int) { count++ })
		switch c.Proc().ID() {
		case 0:
			// Let all three arrive first.
			c.Proc().Advance(sim.Second, sim.CatCompute)
			if n := c.Poll(); n != 3 {
				t.Errorf("poll dispatched %d", n)
			}
		case 1:
			for i := 0; i < 3; i++ {
				c.Send(0, h, i, 0)
			}
		}
	})
	if count != 3 {
		t.Fatalf("count = %d", count)
	}
}

func TestPollTagLeavesAppTraffic(t *testing.T) {
	var order []string
	harness(t, 2, func(c *Comm) {
		app := c.Register(func(c *Comm, src int, data any, size int) { order = append(order, "app") })
		sys := c.Register(func(c *Comm, src int, data any, size int) { order = append(order, "sys") })
		switch c.Proc().ID() {
		case 0:
			c.Proc().Advance(sim.Second, sim.CatCompute)
			if n := c.PollTag(sim.TagSystem); n != 1 {
				t.Errorf("system poll dispatched %d", n)
			}
			if len(order) != 1 || order[0] != "sys" {
				t.Errorf("system message should be dispatched first: %v", order)
			}
			c.Poll()
		case 1:
			c.Send(0, app, nil, 0)
			c.SendTagged(0, sys, nil, 0, sim.TagSystem)
			c.Send(0, app, nil, 0)
		}
	})
	if len(order) != 3 || order[1] != "app" || order[2] != "app" {
		t.Fatalf("order = %v", order)
	}
}

func TestHandlersMayReply(t *testing.T) {
	done := false
	harness(t, 2, func(c *Comm) {
		var ping, pong HandlerID
		ping = c.Register(func(c *Comm, src int, data any, size int) {
			c.SendTagged(src, pong, data.(int)+1, 0, sim.TagApp)
		})
		pong = c.Register(func(c *Comm, src int, data any, size int) {
			if data.(int) != 8 {
				t.Errorf("pong = %d", data.(int))
			}
			done = true
		})
		switch c.Proc().ID() {
		case 0:
			c.Send(1, ping, 7, 0)
			for !done {
				c.WaitPoll(sim.CatIdle)
			}
		case 1:
			for !done {
				if c.WaitPollFor(sim.Second, sim.CatIdle) > 0 {
					return
				}
			}
		}
	})
	if !done {
		t.Fatal("round trip incomplete")
	}
}

func TestDispatchChargesCallback(t *testing.T) {
	e := sim.NewEngine(sim.Config{Seed: 1})
	var cb sim.Time
	e.Spawn("recv", func(p *sim.Proc) {
		c := New(p)
		c.Register(func(c *Comm, src int, data any, size int) {})
		c.WaitPoll(sim.CatIdle)
		cb = p.Account()[sim.CatCallback]
	})
	e.Spawn("send", func(p *sim.Proc) {
		c := New(p)
		h := c.Register(func(c *Comm, src int, data any, size int) {})
		c.Send(0, h, nil, 0)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if cb != 2*sim.Microsecond {
		t.Fatalf("callback time = %v", cb)
	}
}
