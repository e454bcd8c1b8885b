package sim

import (
	"testing"

	"prema/internal/substrate"
)

// The absorption tests hold Proc.absorb's rule: an Advance fires in place
// only the deliveries to its own processor that are the shard's next
// events, ties with a wake going to the delivery, and a polled advance
// never does.

// TestAbsorbOwnDelivery: an Advance cut short only by a message to its own
// processor finishes without parking and finds the message in the inbox,
// stamped with its arrival. The receiver moves the shard clock to 10 µs on
// the fast path and then asks for 200 µs; the message lands at 100 µs, the
// shard's only event. The run switches into the two bodies once each, and
// fires the five events it would parked: two starts, the first Advance's
// wake, the delivery and the second's wake.
func TestAbsorbOwnDelivery(t *testing.T) {
	for _, lockstep := range []bool{false, true} {
		e := NewEngine(Config{Network: rlNet(), Lockstep: lockstep})
		e.Spawn("tx", func(p *Proc) { p.Send(&Msg{Dst: 1, Kind: 7}, CatMessaging) })
		e.Spawn("rx", func(p *Proc) {
			p.Advance(10*Microsecond, CatCompute)
			p.Advance(200*Microsecond, CatCompute)
			if p.InboxLen() != 1 || p.Now() != 210*Microsecond {
				t.Errorf("lockstep=%v: at %v with %d queued, want 210µs and the message", lockstep, p.Now(), p.InboxLen())
			}
			if m := p.TryRecv(CatMessaging); m == nil || m.ArrivedAt != 100*Microsecond {
				t.Errorf("lockstep=%v: got %+v, want the message that arrived at 100µs", lockstep, m)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if e.Transfers() != 2 || e.EventsFired() != 5 {
			t.Errorf("lockstep=%v: %d transfers for %d events, want 2 for 5", lockstep, e.Transfers(), e.EventsFired())
		}
		if got := e.Proc(1).Account()[CatCompute]; got != 210*Microsecond {
			t.Errorf("lockstep=%v: receiver computed %v, want 210µs", lockstep, got)
		}
	}
}

// TestAbsorbTiesWake: a delivery that ties a wake is still the shard's next
// event, because deliveries sort first. Here the message to the receiver and
// a waiter's timeout both fall at 100 µs: the receiver's Advance to 195 µs
// absorbs the message and, with run-ahead, goes on past the waiter's wake,
// whose send lands after it, at 200 µs. It returns at 195 µs holding exactly
// one message, having cost no switch of its own: four switches, the three
// starts and the waiter's timeout. In lockstep it parks after absorbing, one
// switch more.
func TestAbsorbTiesWake(t *testing.T) {
	for _, lockstep := range []bool{false, true} {
		e := NewEngine(Config{Network: rlNet(), Lockstep: lockstep})
		e.Spawn("tx", func(p *Proc) { p.Send(&Msg{Dst: 2}, CatMessaging) })
		e.Spawn("waiter", func(p *Proc) {
			if p.WaitMsgFor(100*Microsecond, CatIdle) {
				t.Error("the waiter got a message")
			}
			p.Send(&Msg{Dst: 2}, CatMessaging)
		})
		e.Spawn("rx", func(p *Proc) {
			p.Advance(10*Microsecond, CatCompute)
			p.Advance(185*Microsecond, CatCompute)
			if p.InboxLen() != 1 || p.Now() != 195*Microsecond {
				t.Errorf("lockstep=%v: at %v with %d queued, want 195µs and one message", lockstep, p.Now(), p.InboxLen())
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		want := uint64(4)
		if lockstep {
			want = 5
		}
		if e.Transfers() != want {
			t.Errorf("lockstep=%v: %d transfers, want %d", lockstep, e.Transfers(), want)
		}
	}
}

// TestAbsorbWaitsForEarlierWake: a delivery behind another processor's
// wake is not the shard's next event, and absorbing it would move the
// shard clock past that wake. Here a waiter's timeout at 90 µs comes before
// the receiver's message at 100 µs, and the waiter then sends one landing at
// 190 µs. The receiver's Advance to 195 µs must park and see both; had it
// absorbed the message at 100 µs, the horizon (200 µs) would let it run
// ahead past the second.
func TestAbsorbWaitsForEarlierWake(t *testing.T) {
	e := NewEngine(Config{Network: rlNet()})
	e.Spawn("tx", func(p *Proc) { p.Send(&Msg{Dst: 1}, CatMessaging) })
	e.Spawn("rx", func(p *Proc) {
		p.Advance(10*Microsecond, CatCompute)
		p.Advance(185*Microsecond, CatCompute)
		if p.InboxLen() != 2 || p.Now() != 195*Microsecond {
			t.Errorf("at %v with %d queued, want 195µs and both messages", p.Now(), p.InboxLen())
		}
	})
	e.Spawn("waiter", func(p *Proc) {
		p.WaitMsgFor(90*Microsecond, CatIdle)
		p.Send(&Msg{Dst: 1}, CatMessaging)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPolledAdvanceDoesNotAbsorb: a polled advance parks even when the
// shard's next event is a message to its own processor, because the
// delivery must move its wake to the poll that sees the message
// (pollArrival). The receiver enters a 1 ms advance at 10 µs, polling every
// 21 µs; the system message lands at 100 µs, so the advance comes back at
// the poll of 115 µs having computed 100 µs over 5 polls. Absorbing the
// message instead would leave the wake at the end of the advance, 1,057 µs,
// and the ledger would show all of it computed.
func TestPolledAdvanceDoesNotAbsorb(t *testing.T) {
	ps := substrate.PollSpec{Interval: 20 * Microsecond, Cost: Microsecond, Tag: TagSystem, WakeBy: substrate.Never}
	e := NewEngine(Config{Network: rlNet()})
	e.Spawn("tx", func(p *Proc) { p.Send(&Msg{Dst: 1, Tag: TagSystem}, CatMessaging) })
	e.Spawn("rx", func(p *Proc) {
		p.Advance(10*Microsecond, CatCompute)
		done, polls := p.AdvancePolled(Millisecond, ps)
		if done != 100*Microsecond || polls != 5 || p.Now() != 115*Microsecond {
			t.Errorf("returned (%v, %d) at %v, want (100µs, 5) at 115µs", done, polls, p.Now())
		}
		if m := p.TryRecvTag(TagSystem, CatMessaging); m == nil || m.ArrivedAt != 100*Microsecond {
			t.Errorf("got %+v, want the message that arrived at 100µs", m)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	acct := e.Proc(1).Account()
	if acct[CatCompute] != 110*Microsecond || acct[CatPollThread] != 5*Microsecond {
		t.Errorf("ledger compute %v, poll thread %v; want 110µs and 5µs", acct[CatCompute], acct[CatPollThread])
	}
}
