package dmcs

import (
	"testing"

	"prema/internal/faulty"
	"prema/internal/rtm"
	"prema/internal/sim"
	"prema/internal/substrate"
)

// TestWaitPollForNonPositive: a zero or negative duration must never block —
// the call degenerates to a plain Poll of whatever is queued. This was
// backend-dependent before it was pinned down (immediate on the simulator, a
// clamped one-microsecond wait on the real-time machine); now it is part of
// the documented contract, in both classic and reliable modes.
func TestWaitPollForNonPositive(t *testing.T) {
	for _, mode := range []string{"classic", "reliable"} {
		for _, d := range []substrate.Time{0, -substrate.Millisecond} {
			mode, d := mode, d
			t.Run(mode, func(t *testing.T) {
				backends(t, func(t *testing.T, m substrate.Machine) {
					const total = 3
					got := 0
					m.Spawn("recv", func(ep substrate.Endpoint) {
						c := New(ep)
						if mode == "reliable" {
							c.EnableReliable(DefaultRelConfig())
						}
						c.Register(func(c *Comm, src int, data any, size int) { got++ })
						waitQueued(ep, total)
						if n := c.WaitPollFor(d, substrate.CatIdle); n != total {
							t.Errorf("WaitPollFor(%v) dispatched %d, want %d", d, n, total)
						}
						// Empty queue: must return 0 without blocking. On the
						// simulator an empty poll costs no virtual time at all.
						t0 := ep.Now()
						if n := c.WaitPollFor(d, substrate.CatIdle); n != 0 {
							t.Errorf("WaitPollFor(%v) on empty queue dispatched %d", d, n)
						}
						if _, isSim := m.(*sim.Machine); isSim && ep.Now() != t0 {
							t.Errorf("WaitPollFor(%v) advanced virtual time by %v on an empty queue", d, ep.Now()-t0)
						}
					})
					m.Spawn("send", func(ep substrate.Endpoint) {
						c := New(ep)
						if mode == "reliable" {
							c.EnableReliable(DefaultRelConfig())
						}
						h := c.Register(func(c *Comm, src int, data any, size int) {})
						for i := 0; i < total; i++ {
							c.Send(0, h, i, 8)
						}
						c.Quiesce()
					})
					if err := m.Run(); err != nil {
						t.Fatal(err)
					}
					if got != total {
						t.Fatalf("dispatched %d messages, want %d", got, total)
					}
				})
			})
		}
	}
}

// relPair runs a two-processor reliable-mode exchange on machine m: proc 1
// sends n messages on each of the two traffic classes to proc 0, which must
// dispatch every one exactly once, in per-stream order. It returns the
// receiver's protocol stats.
func relPair(t *testing.T, m substrate.Machine, cfg RelConfig, n int) (gotApp, gotSys []int, sender RelStats) {
	t.Helper()
	m.Spawn("recv", func(ep substrate.Endpoint) {
		c := New(ep)
		c.EnableReliable(cfg)
		c.Register(func(c *Comm, src int, data any, size int) { gotApp = append(gotApp, data.(int)) })
		c.Register(func(c *Comm, src int, data any, size int) { gotSys = append(gotSys, data.(int)) })
		deadline := ep.Now() + 600*substrate.Second
		for len(gotApp)+len(gotSys) < 2*n && ep.Now() < deadline {
			c.WaitPollFor(5*substrate.Millisecond, substrate.CatIdle)
		}
		c.Quiesce()
	})
	m.Spawn("send", func(ep substrate.Endpoint) {
		c := New(ep)
		c.EnableReliable(cfg)
		hApp := c.Register(func(c *Comm, src int, data any, size int) {})
		hSys := c.Register(func(c *Comm, src int, data any, size int) {})
		_ = hApp
		for i := 0; i < n; i++ {
			c.SendTagged(0, hApp, i, 8, substrate.TagApp)
			c.SendTagged(0, hSys, i, 8, substrate.TagSystem)
		}
		// Quiesce retransmits until everything is acknowledged (bounded by
		// the drain timeout), which is the whole point of reliable mode.
		c.Quiesce()
		if c.rel.hasPending() {
			t.Error("sender still has unacked messages after Quiesce")
		}
		sender = c.RelStats()
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return gotApp, gotSys, sender
}

// checkInOrder asserts that got is exactly 0..n-1.
func checkInOrder(t *testing.T, label string, got []int, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("%s: dispatched %d messages, want %d (%v)", label, len(got), n, got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("%s: position %d got %d — out of order or duplicated (%v)", label, i, v, got)
		}
	}
}

// TestReliableCleanNetwork: with no faults, reliable mode must deliver
// everything exactly once in order — and on the deterministic simulator it
// must do so without a single retransmission (acks return well inside the
// initial RTO, so timers never fire).
func TestReliableCleanNetwork(t *testing.T) {
	const n = 50
	backends(t, func(t *testing.T, m substrate.Machine) {
		gotApp, gotSys, sender := relPair(t, m, DefaultRelConfig(), n)
		checkInOrder(t, "app", gotApp, n)
		checkInOrder(t, "sys", gotSys, n)
		if sender.DataSent != 2*n {
			t.Errorf("sender DataSent=%d, want %d", sender.DataSent, 2*n)
		}
		if _, isSim := m.(*sim.Machine); isSim && sender.Retransmits != 0 {
			t.Errorf("clean simulated network produced %d retransmits", sender.Retransmits)
		}
	})
}

// TestReliableLossyNetwork is the package-level chaos test: a quarter of all
// messages dropped, some duplicated, delayed, and reordered — on both
// backends — and the reliable layer must still deliver every message exactly
// once, in per-stream order.
func TestReliableLossyNetwork(t *testing.T) {
	const n = 100
	plan := faulty.Plan{Default: faulty.LinkFaults{
		Drop:    0.25,
		Dup:     0.15,
		Delay:   0.10,
		Reorder: 0.25,
	}}
	// The receiver must outlive the sender's longest backoff gap, so its
	// quiesce linger exceeds RTOMax; the drain timeout bounds the whole
	// shutdown even if the RNG is maximally unkind.
	cfg := RelConfig{
		Enabled:      true,
		RTO:          10 * substrate.Millisecond,
		RTOMax:       40 * substrate.Millisecond,
		Linger:       500 * substrate.Millisecond,
		DrainTimeout: 120 * substrate.Second, // ~1 s of wall clock on the real leg: a loaded host can starve it for 100 ms
	}
	run := func(t *testing.T, inner substrate.Machine) {
		fm := faulty.Wrap(inner, plan, 42)
		gotApp, gotSys, sender := relPair(t, fm, cfg, n)
		checkInOrder(t, "app", gotApp, n)
		checkInOrder(t, "sys", gotSys, n)
		st := fm.Stats()
		if st.Dropped == 0 || st.Dupped == 0 || st.Reordered == 0 {
			t.Errorf("fault injection too quiet: %+v", st)
		}
		if sender.Retransmits == 0 {
			t.Errorf("messages were dropped (%d) but nothing was retransmitted", st.Dropped)
		}
	}
	t.Run("sim", func(t *testing.T) {
		run(t, sim.NewMachine(sim.Config{Seed: 2}))
	})
	t.Run("real", func(t *testing.T) {
		cfg := rtm.DefaultConfig()
		cfg.Seed = 2
		cfg.TimeScale = 1e-2 // keep sub-RTO waits above the host timer floor
		run(t, rtm.New(cfg))
	})
}

// TestReliableCachedClockwork: the count of due acks and the earliest
// retransmission deadline, which tick and NextDeadline read instead of
// walking every stream, agree with a walk after every send, poll and
// dead-peer verdict, through loss, duplication, reordering and backoff.
func TestReliableCachedClockwork(t *testing.T) {
	const procs, n = 4, 60
	plan := faulty.Plan{Default: faulty.LinkFaults{Drop: 0.2, Dup: 0.1, Reorder: 0.2}}
	cfg := RelConfig{
		Enabled:      true,
		RTO:          5 * substrate.Millisecond,
		RTOMax:       20 * substrate.Millisecond,
		Linger:       50 * substrate.Millisecond,
		DrainTimeout: 5 * substrate.Second,
	}
	bad := 0
	check := func(c *Comm) {
		r := c.rel
		acks, due := 0, substrate.Never
		for _, st := range r.recvOrder {
			if st.ackDue {
				acks++
			}
		}
		for _, st := range r.sendOrder {
			if st.deadline != 0 && st.deadline < due {
				due = st.deadline
			}
		}
		if got := c.nextDeadline(); r.acksDue != acks || got != due {
			if bad++; bad <= 5 {
				t.Errorf("at %d ns: %d acks due and earliest deadline %d ns; a walk reads %d and %d ns", c.p.Now(), r.acksDue, got, acks, due)
			}
		}
	}
	m := faulty.Wrap(sim.NewMachine(sim.Config{Seed: 5}), plan, 9)
	for i := 0; i < procs; i++ {
		m.Spawn("p", func(ep substrate.Endpoint) {
			c := New(ep)
			c.EnableReliable(cfg)
			heard := 0
			h := c.Register(func(c *Comm, src int, data any, size int) {
				check(c)
				// Processor 0 declares the last one dead from inside a poll,
				// with an ack to it due.
				if ep.ID() == 0 && src == procs-1 {
					if heard++; heard == n/8 {
						c.MarkDead(src)
						check(c)
					}
				}
			})
			rng := ep.Rand()
			for k := 0; k < n; k++ {
				dst := (ep.ID() + 1 + rng.Intn(procs-1)) % procs
				c.SendTagged(dst, h, k, 8, []int{substrate.TagApp, substrate.TagSystem}[rng.Intn(2)])
				check(c)
				c.WaitPollFor(substrate.Time(rng.Intn(3))*substrate.Millisecond, substrate.CatIdle)
				check(c)
			}
			c.Quiesce()
			check(c)
		})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestReliableDeadPeerDeadline: a dead-peer verdict that drops the stream
// holding the earliest retransmission deadline hands the deadline on to the
// next stream's.
func TestReliableDeadPeerDeadline(t *testing.T) {
	m := sim.NewMachine(sim.Config{Seed: 1})
	m.Spawn("send", func(ep substrate.Endpoint) {
		c := New(ep)
		c.EnableReliable(DefaultRelConfig())
		h := c.Register(func(c *Comm, src int, data any, size int) {})
		c.Send(2, h, 0, 8)
		ep.Advance(substrate.Millisecond, substrate.CatCompute)
		want := ep.Now() + DefaultRelConfig().RTO
		c.Send(1, h, 0, 8)
		c.MarkDead(2)
		if got := c.NextDeadline(substrate.TagSystem); got != want {
			t.Errorf("after dropping the earliest stream: deadline %v, want the other stream's %v", got, want)
		}
	})
	for i := 0; i < 2; i++ {
		m.Spawn("peer", func(ep substrate.Endpoint) {})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

// sendLog records the time and sequence number of every message its
// endpoint sends.
type sendLog struct {
	substrate.Endpoint
	sends []loggedSend
}

type loggedSend struct {
	at    substrate.Time
	dst   int
	seq   uint64
	isAck bool
}

func (l *sendLog) Send(m *substrate.Msg, cat substrate.Category) {
	l.sends = append(l.sends, loggedSend{at: l.Now(), dst: m.Dst, seq: m.Seq, isAck: m.Kind == ackKind})
	l.Endpoint.Send(m, cat)
}

// TestExpiredDeadlineRetransmitsAtOnce: a retransmission deadline that
// expires while a poll is flushing acks must be served when the poll ends,
// not when the surrounding wait does. Processor 0 sends one message to a
// processor that does not poll for seconds, then — just before that stream's
// deadline — polls with an ack due: the ack's send CPU carries the clock past
// the deadline after tick has read it. The wait that follows must retransmit
// at once instead of blocking for its whole second.
func TestExpiredDeadlineRetransmitsAtOnce(t *testing.T) {
	net := substrate.DefaultNetwork()
	rto := DefaultRelConfig().RTO
	m := sim.NewMachine(sim.Config{Seed: 1})
	log := &sendLog{}
	m.Spawn("waiter", func(ep substrate.Endpoint) {
		log.Endpoint = ep
		c := New(log)
		c.EnableReliable(DefaultRelConfig())
		h := c.Register(func(c *Comm, src int, data any, size int) {})
		c.Send(1, h, nil, 8) // stream deadline: 0 + rto
		// Receiving the held message and flushing its ack straddle the deadline.
		ep.Advance(rto-net.RecvCPU-net.SendCPU/2-ep.Now(), substrate.CatCompute)
		if n := c.WaitPollFor(substrate.Second, substrate.CatIdle); n != 0 {
			t.Errorf("WaitPollFor dispatched %d, want 0", n)
		}
		c.Quiesce()
	})
	m.Spawn("late", func(ep substrate.Endpoint) {
		c := New(ep)
		c.EnableReliable(DefaultRelConfig())
		got := false
		c.Register(func(c *Comm, src int, data any, size int) { got = true })
		ep.Advance(3*substrate.Second, substrate.CatCompute)
		for !got {
			c.WaitPollFor(substrate.Millisecond, substrate.CatIdle)
		}
		c.Quiesce()
	})
	m.Spawn("holder", func(ep substrate.Endpoint) {
		// Sequence number 2 with 1 never sent: processor 0 holds it and owes
		// an ack, but dispatches nothing.
		ep.Send(&substrate.Msg{Dst: 0, Tag: substrate.TagApp, Seq: 2, Size: 8}, substrate.CatMessaging)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	var first, retransmit substrate.Time = -1, -1
	for _, s := range log.sends {
		if s.dst != 1 || s.isAck || s.seq != 1 {
			continue
		}
		if first < 0 {
			first = s.at
		} else if retransmit < 0 {
			retransmit = s.at
		}
	}
	if first != 0 || retransmit < 0 {
		t.Fatalf("sends of sequence 1 to processor 1 at %v and %v, want a send at 0 and a retransmission", first, retransmit)
	}
	if late := retransmit - rto; late < 0 || late > net.SendCPU {
		t.Errorf("retransmitted %v after the deadline, want within one send (%v)", late.Duration(), net.SendCPU.Duration())
	}
}

// TestReliablePollTagPreemption: in reliable mode, PollTag(TagSystem) must
// dispatch only system-tagged traffic while application data keeps moving
// through the protocol (acked, deduplicated) without being delivered — the
// invariant PREMA's preemptive polling thread depends on.
func TestReliablePollTagPreemption(t *testing.T) {
	const nSys, nApp = 4, 6
	backends(t, func(t *testing.T, m substrate.Machine) {
		var gotApp, gotSys []int
		m.Spawn("recv", func(ep substrate.Endpoint) {
			c := New(ep)
			c.EnableReliable(DefaultRelConfig())
			c.Register(func(c *Comm, src int, data any, size int) { gotApp = append(gotApp, data.(int)) })
			c.Register(func(c *Comm, src int, data any, size int) { gotSys = append(gotSys, data.(int)) })
			deadline := ep.Now() + 60*substrate.Second
			for len(gotSys) < nSys && ep.Now() < deadline {
				c.PollTag(substrate.TagSystem)
				if len(gotSys) < nSys {
					ep.WaitMsgFor(substrate.Millisecond, substrate.CatIdle)
				}
			}
			if len(gotApp) != 0 {
				t.Errorf("PollTag(TagSystem) leaked %d application messages", len(gotApp))
			}
			for len(gotApp) < nApp && ep.Now() < deadline {
				c.WaitPollFor(substrate.Millisecond, substrate.CatIdle)
			}
			c.Quiesce()
		})
		m.Spawn("send", func(ep substrate.Endpoint) {
			c := New(ep)
			c.EnableReliable(DefaultRelConfig())
			hApp := c.Register(func(c *Comm, src int, data any, size int) {})
			hSys := c.Register(func(c *Comm, src int, data any, size int) {})
			for i := 0; i < nApp; i++ {
				c.SendTagged(0, hApp, i, 8, substrate.TagApp)
			}
			for i := 0; i < nSys; i++ {
				c.SendTagged(0, hSys, i, 8, substrate.TagSystem)
			}
			c.Quiesce()
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		checkInOrder(t, "sys", gotSys, nSys)
		checkInOrder(t, "app", gotApp, nApp)
	})
}

// TestReliableUnsequencedPassthrough: a message with Seq 0 (sent by a peer
// running in classic mode) must pass straight through a reliable receiver —
// delivered, unacked, never buffered.
func TestReliableUnsequencedPassthrough(t *testing.T) {
	backends(t, func(t *testing.T, m substrate.Machine) {
		got := 0
		m.Spawn("recv", func(ep substrate.Endpoint) {
			c := New(ep)
			c.EnableReliable(DefaultRelConfig())
			c.Register(func(c *Comm, src int, data any, size int) { got++ })
			deadline := ep.Now() + 30*substrate.Second
			for got < 2 && ep.Now() < deadline {
				c.WaitPollFor(substrate.Millisecond, substrate.CatIdle)
			}
			if st := c.RelStats(); st.AcksSent != 0 {
				t.Errorf("acked %d unsequenced messages", st.AcksSent)
			}
		})
		m.Spawn("send", func(ep substrate.Endpoint) {
			c := New(ep) // classic fire-and-forget
			h := c.Register(func(c *Comm, src int, data any, size int) {})
			c.Send(0, h, 1, 8)
			c.Send(0, h, 2, 8)
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if got != 2 {
			t.Fatalf("dispatched %d messages, want 2", got)
		}
	})
}

// TestNextDeadline: the WakeBy of a polled advance. Fire-and-forget mode
// never acts on an empty poll; reliable mode acts at its earliest
// retransmission deadline — and at once while a handler runs with acks
// still due or a released message of the polled tag still waiting.
func TestNextDeadline(t *testing.T) {
	m := sim.NewMachine(sim.Config{Seed: 1})
	var inHandler, afterPoll, unacked, classic substrate.Time
	var handled, sentAt substrate.Time
	m.Spawn("recv", func(ep substrate.Endpoint) {
		c := New(ep)
		c.EnableReliable(DefaultRelConfig())
		first := true
		c.Register(func(c *Comm, src int, data any, size int) {
			if first { // the second message is released but not yet dispatched
				first = false
				inHandler, handled = c.NextDeadline(substrate.TagSystem), ep.Now()
			}
		})
		waitQueued(ep, 2)
		c.PollTag(substrate.TagSystem)
		afterPoll = c.NextDeadline(substrate.TagSystem)
		c.Quiesce()
	})
	m.Spawn("send", func(ep substrate.Endpoint) {
		c := New(ep)
		classic = c.NextDeadline(substrate.TagSystem)
		c.EnableReliable(DefaultRelConfig())
		h := c.Register(func(c *Comm, src int, data any, size int) {})
		sentAt = ep.Now()
		c.SendTagged(0, h, 1, 8, substrate.TagSystem)
		c.SendTagged(0, h, 2, 8, substrate.TagSystem)
		unacked = c.NextDeadline(substrate.TagSystem)
		c.Quiesce()
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if classic != substrate.Never {
		t.Errorf("fire-and-forget: %v, want Never", classic)
	}
	if want := sentAt + DefaultRelConfig().RTO; unacked != want {
		t.Errorf("with unacked data: %v, want the retransmission deadline %v", unacked, want)
	}
	if inHandler != handled {
		t.Errorf("inside a handler with work still pending: %v, want now (%v)", inHandler, handled)
	}
	if afterPoll != substrate.Never {
		t.Errorf("after a complete poll with nothing outstanding: %v, want Never", afterPoll)
	}
}
