package dmcs

import (
	"testing"

	"prema/internal/substrate"
)

// TestMarkDeadUnblocksQuiesce: a sender with unacked messages toward a peer
// that will never ack (it stopped polling — the effect of a fail-stop) used
// to sit in Quiesce retransmitting until DrainTimeout. With a dead-peer
// verdict the pending buffer is discarded, nothing is left unacknowledged, and
// Quiesce returns after Linger instead of the 60s drain cap.
func TestMarkDeadUnblocksQuiesce(t *testing.T) {
	backends(t, func(t *testing.T, m substrate.Machine) {
		const n = 5
		var senderStats RelStats
		var quiesceDur substrate.Time
		m.Spawn("dead", func(ep substrate.Endpoint) {
			c := New(ep)
			c.EnableReliable(DefaultRelConfig())
			c.Register(func(c *Comm, src int, data any, size int) {})
			// Fail-stop: never poll, never ack, just let time pass so the
			// sender's RTOs and Linger can elapse.
			ep.Advance(10*substrate.Second, substrate.CatIdle)
		})
		m.Spawn("send", func(ep substrate.Endpoint) {
			c := New(ep)
			c.EnableReliable(DefaultRelConfig())
			h := c.Register(func(c *Comm, src int, data any, size int) {})
			for i := 0; i < n; i++ {
				c.Send(0, h, i, 8)
			}
			// Let a couple of RTOs expire so retransmission really is in
			// progress when the verdict lands.
			for i := 0; i < 3; i++ {
				c.WaitPollFor(200*substrate.Millisecond, substrate.CatIdle)
			}
			if !c.rel.hasPending() {
				t.Error("pending buffer empty before MarkDead; test is vacuous")
			}
			c.MarkDead(0)
			if c.rel.hasPending() {
				t.Error("messages still unacknowledged after MarkDead")
			}
			if got := len(c.rel.dead); got != 1 {
				t.Errorf("%d dead peers, want 1", got)
			}
			// Sends to a dead peer are fire-and-forget: nothing buffered.
			c.Send(0, h, 99, 8)
			if c.rel.hasPending() {
				t.Error("a send to a dead peer was buffered")
			}
			t0 := ep.Now()
			c.Quiesce()
			quiesceDur = ep.Now() - t0
			senderStats = c.RelStats()
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if senderStats.DeadDropped != n {
			t.Errorf("DeadDropped = %d, want %d", senderStats.DeadDropped, n)
		}
		if senderStats.DeadSent != 1 {
			t.Errorf("DeadSent = %d, want 1", senderStats.DeadSent)
		}
		// Quiesce must exit on the Linger path, nowhere near DrainTimeout.
		if limit := DefaultRelConfig().DrainTimeout / 2; quiesceDur >= limit {
			t.Errorf("Quiesce took %v, want well under the %v drain cap", quiesceDur, limit)
		}
	})
}

// TestMarkAliveRealignsStreams: after MarkDead dropped the streams, a
// rejoined peer's fresh Comm and the survivor must agree on sequencing in
// both directions — messages exchanged after MarkAlive are delivered exactly
// once, in order, and both sides drain cleanly.
func TestMarkAliveRealignsStreams(t *testing.T) {
	backends(t, func(t *testing.T, m substrate.Machine) {
		const n = 4
		var got []int
		m.Spawn("peer", func(ep substrate.Endpoint) {
			// First incarnation: crash immediately (no polling at all).
			// Rejoin as a fresh Comm after the survivor has marked us dead.
			ep.Advance(2*substrate.Second, substrate.CatIdle)
			for ep.InboxLen() > 0 { // crashed incarnation's inbox is lost
				if ep.TryRecv(substrate.CatMessaging) == nil {
					break
				}
			}
			c := New(ep)
			c.EnableReliable(DefaultRelConfig())
			c.Register(func(c *Comm, src int, data any, size int) {
				c.Send(src, HandlerID(0), data, 8)
			})
			deadline := ep.Now() + 30*substrate.Second
			for c.RelStats().DataSent < n && ep.Now() < deadline {
				c.WaitPollFor(10*substrate.Millisecond, substrate.CatIdle)
			}
			c.Quiesce()
		})
		m.Spawn("survivor", func(ep substrate.Endpoint) {
			c := New(ep)
			c.EnableReliable(DefaultRelConfig())
			c.Register(func(c *Comm, src int, data any, size int) {
				got = append(got, data.(int))
			})
			hEcho := HandlerID(0)
			// Send into the dead incarnation, then declare it down.
			c.Send(0, hEcho, -1, 8)
			c.WaitPollFor(500*substrate.Millisecond, substrate.CatIdle)
			c.MarkDead(0)
			// Wait out the rejoin, then resume sequenced traffic.
			ep.Advance(2*substrate.Second, substrate.CatIdle)
			c.MarkAlive(0)
			for i := 0; i < n; i++ {
				c.Send(0, hEcho, i, 8)
			}
			deadline := ep.Now() + 30*substrate.Second
			for len(got) < n && ep.Now() < deadline {
				c.WaitPollFor(10*substrate.Millisecond, substrate.CatIdle)
			}
			c.Quiesce()
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("survivor got %d echoes (%v), want %d", len(got), got, n)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("echoes out of order: got %v", got)
			}
		}
	})
}
