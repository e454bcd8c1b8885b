package sim

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"prema/internal/substrate"
)

// The run-ahead tests hold Proc.skipTo's guards one at a time: each
// scenario has an Advance that would cross an event the processor must see
// if that guard were gone.

// rlNet is a 100 µs network with no CPU overheads, so every clock in the
// scenarios below is a sum of the Advances written in them.
func rlNet() *substrate.Network { return &substrate.Network{Latency: 100 * Microsecond} }

// TestRunAheadWaitsForDeliveryInFlight: a delivery already in the heap
// lands inside the next Advance, even when the Advance ends inside the
// horizon. The receiver moves the shard clock to 90 µs on the fast path,
// then asks for 20 µs more: 110 µs is past the message's arrival at 100 µs
// and before the horizon at 190 µs, so only the arrival in flight stops it.
func TestRunAheadWaitsForDeliveryInFlight(t *testing.T) {
	e := NewEngine(Config{Network: rlNet()})
	e.Spawn("tx", func(p *Proc) { p.Send(&Msg{Dst: 1, Kind: 7}, CatMessaging) })
	e.Spawn("rx", func(p *Proc) {
		p.Advance(60*Microsecond, CatCompute)
		p.Advance(30*Microsecond, CatCompute)
		p.Advance(20*Microsecond, CatCompute)
		m := p.TryRecv(CatMessaging)
		if m == nil || m.ArrivedAt != 100*Microsecond || p.Now() != 110*Microsecond {
			t.Errorf("at %v got %+v, want the message that arrived at 100µs", p.Now(), m)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRunAheadPastLaterDelivery: a delivery in flight that lands after an
// Advance ends does not stop the Advance from running ahead, and still
// arrives when it should. The receiver's start is queued behind a third
// processor's at 0, so no Advance of it takes the fast path; its 50 µs and
// 40 µs Advances end before the message lands at 100 µs, inside the
// horizon, and run ahead: four switches, where parking on the first
// (lockstep) takes five. Both runs fire the same events.
func TestRunAheadPastLaterDelivery(t *testing.T) {
	run := func(lockstep bool) *Engine {
		e := NewEngine(Config{Network: rlNet(), Lockstep: lockstep})
		e.Spawn("tx", func(p *Proc) { p.Send(&Msg{Dst: 1}, CatMessaging) })
		e.Spawn("rx", func(p *Proc) {
			p.Advance(50*Microsecond, CatCompute)
			p.Advance(40*Microsecond, CatCompute)
			m := p.Recv(CatIdle)
			if m.ArrivedAt != 100*Microsecond || p.Now() != 100*Microsecond {
				t.Errorf("lockstep=%v: at %v got %+v, want the message that arrived at 100µs", lockstep, p.Now(), m)
			}
		})
		e.Spawn("late", func(p *Proc) {})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e
	}
	lock, ahead := run(true), run(false)
	if ahead.EventsFired() != lock.EventsFired() || ahead.Transfers() != 4 || lock.Transfers() != 5 {
		t.Errorf("run-ahead: %d transfers for %d events; lockstep %d for %d; want 4 and 5",
			ahead.Transfers(), ahead.EventsFired(), lock.Transfers(), lock.EventsFired())
	}
}

// TestRunAheadStopsAtArrival: an Advance that ends exactly when a delivery
// in flight lands parks, and sees the message when it resumes: the delivery
// sorts before the wake at equal times. The receiver moves the shard clock
// to 10 µs on the fast path; its next Advance ends at the arrival, 100 µs,
// inside the horizon at 110 µs.
func TestRunAheadStopsAtArrival(t *testing.T) {
	e := NewEngine(Config{Network: rlNet()})
	e.Spawn("tx", func(p *Proc) { p.Send(&Msg{Dst: 1}, CatMessaging) })
	e.Spawn("rx", func(p *Proc) {
		p.Advance(10*Microsecond, CatCompute)
		p.Advance(90*Microsecond, CatCompute)
		if m := p.TryRecv(CatMessaging); m == nil || m.ArrivedAt != 100*Microsecond {
			t.Errorf("at %v got %+v, want the message that arrived at 100µs", p.Now(), m)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRunAheadEarliestArrival: with two deliveries in flight the guard is
// the earlier arrival, whichever was sent first. One sender's message
// lands at 100 µs, the other's, 50 bytes at 1 µs a byte, at 150 µs; the
// receiver moves the shard clock to 10 µs on the fast path and then asks
// for 95 µs, past the first arrival only.
func TestRunAheadEarliestArrival(t *testing.T) {
	for _, sizes := range [][2]int{{0, 50}, {50, 0}} {
		e := NewEngine(Config{Network: &substrate.Network{Latency: 100 * Microsecond, PerByte: Microsecond}})
		for _, size := range sizes {
			e.Spawn("tx", func(p *Proc) { p.Send(&Msg{Dst: 2, Size: size}, CatMessaging) })
		}
		e.Spawn("rx", func(p *Proc) {
			p.Advance(10*Microsecond, CatCompute)
			p.Advance(95*Microsecond, CatCompute)
			if m := p.TryRecv(CatMessaging); m == nil || m.ArrivedAt != 100*Microsecond || p.InboxLen() != 0 {
				t.Errorf("sizes %v: at %v got %+v with %d queued, want only the message that arrived at 100µs", sizes, p.Now(), m, p.InboxLen())
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunAheadSeesExchangedDelivery: on two shards a delivery handed over
// at the window barrier counts as in flight like a local one. The sender
// on the other shard sends at 50 µs, arriving at 150 µs; the first windows
// end at 100 µs, so the receiver's first Advance parks until 100 µs, and
// the barrier before that resume moves the message into its heap. Its next
// Advance, to 160 µs, is inside the horizon (200 µs) and the window
// (300 µs): only the exchanged arrival stops it.
func TestRunAheadSeesExchangedDelivery(t *testing.T) {
	e := NewEngine(Config{Network: rlNet(), Shards: 2})
	e.Spawn("rx", func(p *Proc) {
		p.Advance(100*Microsecond, CatCompute)
		p.Advance(60*Microsecond, CatCompute)
		if m := p.TryRecv(CatMessaging); m == nil || m.ArrivedAt != 150*Microsecond {
			t.Errorf("at %v got %+v, want the message that arrived at 150µs", p.Now(), m)
		}
	})
	e.Spawn("tx", func(p *Proc) {
		p.Advance(50*Microsecond, CatCompute)
		p.Send(&Msg{Dst: 0}, CatMessaging)
	})
	if e.shardOf(0) == e.shardOf(1) {
		t.Fatal("fixture needs the two processors on different shards")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRunAheadPolledBoundaryArrival: a polled advance whose wake-up is the
// poll boundary where a delivery in flight lands parks, so that poll sees
// the message, as it would stepped. The receiver moves the shard clock to
// 16 µs on the fast path and enters a polled advance with polls every
// 21 µs from there and WakeBy 90 µs: it is due back at poll 4, at 100 µs,
// exactly when the message arrives, inside the horizon at 116 µs.
func TestRunAheadPolledBoundaryArrival(t *testing.T) {
	ps := substrate.PollSpec{Interval: 20 * Microsecond, Cost: Microsecond, Tag: TagSystem, WakeBy: 90 * Microsecond}
	e := NewEngine(Config{Network: rlNet()})
	e.Spawn("tx", func(p *Proc) { p.Send(&Msg{Dst: 1, Tag: TagSystem}, CatMessaging) })
	e.Spawn("rx", func(p *Proc) {
		p.Advance(16*Microsecond, CatCompute)
		done, polls := p.AdvancePolled(Millisecond, ps)
		m := p.TryRecvTag(TagSystem, CatMessaging)
		if done != 80*Microsecond || polls != 4 || m == nil || m.ArrivedAt != 100*Microsecond {
			t.Errorf("returned (%v, %d) and got %+v; want (80µs, 4) and the message that arrived at 100µs", done, polls, m)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRunAheadHorizon: a peer's send at the loop clock lands before an
// Advance longer than the latency ends. The receiver runs first at time 0
// with the sender's start still queued, so only the horizon (0 + 100 µs)
// stops its 110 µs Advance from running ahead of the send.
func TestRunAheadHorizon(t *testing.T) {
	e := NewEngine(Config{Network: rlNet()})
	e.Spawn("rx", func(p *Proc) {
		p.Advance(110*Microsecond, CatCompute)
		if m := p.TryRecv(CatMessaging); m == nil || m.ArrivedAt != 100*Microsecond {
			t.Errorf("at %v got %+v, want the message that arrived at 100µs", p.Now(), m)
		}
	})
	e.Spawn("tx", func(p *Proc) { p.Send(&Msg{Dst: 0}, CatMessaging) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRunAheadWindowEnd: on two shards a delivery from the other shard waits
// in a mailbox until the window barrier, where no in-flight arrival sees it.
// Both shards start at 0, so the first windows end at 100 µs, the earliest
// the peer's send at 0 can land. The receiver's second Advance, 60 µs to
// 160 µs, has an empty heap and is inside the horizon: only the window end
// stops it.
func TestRunAheadWindowEnd(t *testing.T) {
	e := NewEngine(Config{Network: rlNet(), Shards: 2})
	e.Spawn("rx", func(p *Proc) {
		p.Advance(60*Microsecond, CatCompute)
		p.Advance(100*Microsecond, CatCompute)
		if m := p.TryRecv(CatMessaging); m == nil || m.ArrivedAt != 100*Microsecond {
			t.Errorf("at %v got %+v, want the message that arrived at 100µs", p.Now(), m)
		}
	})
	e.Spawn("tx", func(p *Proc) { p.Send(&Msg{Dst: 0}, CatMessaging) })
	if e.shardOf(0) == e.shardOf(1) {
		t.Fatal("fixture needs the two processors on different shards")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRunAheadAfterInterruptedPoll: an interrupted polled advance leaves
// nothing of its own in the heap, so the processor runs ahead over the
// instant its end would have been, and fires the same events and sees the
// same trail as in lockstep. Here a message at 200 µs interrupts a 250 µs
// polled advance at the poll of 210 µs, before its end at 262 µs. The next
// Advance, to 270 µs, is inside the horizon with nothing in flight, and the
// polled advance after it is parked when 262 µs passes.
func TestRunAheadAfterInterruptedPoll(t *testing.T) {
	ps := substrate.PollSpec{Interval: 20 * Microsecond, Cost: Microsecond, Tag: TagSystem, WakeBy: substrate.Never}
	run := func(lockstep bool) (events uint64, trail [3]Time) {
		e := NewEngine(Config{Network: &substrate.Network{Latency: 200 * Microsecond}, Lockstep: lockstep})
		e.Spawn("victim", func(p *Proc) {
			done, _ := p.AdvancePolled(250*Microsecond, ps)
			if p.TryRecvTag(TagSystem, CatMessaging) == nil {
				t.Error("the polled advance was not interrupted")
			}
			p.Advance(60*Microsecond, CatCompute)
			wake := ps
			wake.WakeBy = p.Now() + 200*Microsecond
			done2, _ := p.AdvancePolled(Millisecond, wake)
			trail = [3]Time{done, done2, p.Now()}
		})
		e.Spawn("tx", func(p *Proc) { p.Send(&Msg{Dst: 0, Tag: TagSystem}, CatMessaging) })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.EventsFired(), trail
	}
	wantEvents, wantTrail := run(true)
	if events, trail := run(false); events != wantEvents || trail != wantTrail {
		t.Errorf("run-ahead fired %d events, trail %v; lockstep %d, %v", events, trail, wantEvents, wantTrail)
	}
}

// TestLockstepKeepsTransfers: with run-ahead off the trail programs switch
// into processor bodies a pinned number of times, and with it on they fire
// the same events with fewer switches. The count was recorded before
// run-ahead (115,739) and re-recorded when the heap stopped holding
// superseded events: in lockstep an Advance skips the switch only when it
// ends before the head of the heap, and 415 of them no longer find a
// superseded event there (115,324). It was re-recorded again when 13
// no-lookahead programs stopped running on the default network instead of
// the free one they draw.
func TestLockstepKeepsTransfers(t *testing.T) {
	const lockstepTransfers = 113508
	var lock, ahead, lockEvents, aheadEvents uint64
	for seed := int64(1); seed <= trailPrograms; seed++ {
		e, _ := runTrailProgram(t, seed, Config{Lockstep: true})
		lock += e.Transfers()
		lockEvents += e.EventsFired()
		e, _ = runTrailProgram(t, seed, Config{})
		ahead += e.Transfers()
		aheadEvents += e.EventsFired()
	}
	if lock != lockstepTransfers {
		t.Errorf("lockstep: %d transfers, want %d", lock, lockstepTransfers)
	}
	if aheadEvents != lockEvents || ahead >= lock {
		t.Errorf("run-ahead: %d transfers for %d events; lockstep %d for %d", ahead, aheadEvents, lock, lockEvents)
	}
}

// stealStorm is a steal storm in miniature, the pattern of PREMA's
// work stealing on a wide machine of fine units: a few processors hold
// work and compute it in polled slices, answering a steal request at every
// poll with a refusal (15 µs receive and send overheads, 60 µs latency);
// the rest are idle and ask random peers again the moment a refusal
// arrives. probe, if not nil, is called between every two operations of
// every body. It returns one hash of every processor's ledger and the
// requests it saw.
func stealStorm(t *testing.T, cfg Config, probe func(*Proc)) (*Engine, uint64) {
	const (
		procs   = 24
		workers = 3
		until   = 40 * Millisecond
		request = 1
		refusal = 2
	)
	e := NewEngine(cfg)
	seen := make([]int, procs)
	if probe == nil {
		probe = func(*Proc) {}
	}
	for i := 0; i < procs; i++ {
		e.Spawn("p", func(p *Proc) {
			rng := p.Rand()
			if p.ID() < workers {
				ps := substrate.PollSpec{Interval: 100 * Microsecond, Cost: 5 * Microsecond, Tag: TagSystem, WakeBy: substrate.Never}
				for p.Now() < until {
					left := Time(1+rng.Intn(8)) * Millisecond
					for left > 0 {
						done, _ := p.AdvancePolled(left, ps)
						probe(p)
						left -= done
						for m := p.TryRecvTag(TagSystem, CatPollThread); m != nil; m = p.TryRecvTag(TagSystem, CatPollThread) {
							seen[p.ID()]++
							probe(p)
							p.Send(&Msg{Dst: m.Src, Kind: refusal, Tag: TagSystem, Size: 16}, CatPollThread)
							probe(p)
						}
					}
				}
				return
			}
			for p.Now() < until {
				p.Advance(3*Microsecond, CatScheduling)
				probe(p)
				p.Send(&Msg{Dst: rng.Intn(workers), Kind: request, Tag: TagSystem, Size: 16}, CatMessaging)
				probe(p)
				for p.WaitMsgFor(Millisecond, CatIdle) {
					probe(p)
					if p.TryRecv(CatMessaging).Kind == refusal {
						seen[p.ID()]++
						break
					}
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var b [8]byte
	for i := range seen {
		binary.LittleEndian.PutUint64(b[:], uint64(seen[i]))
		h.Write(b[:])
		for _, v := range e.Proc(i).Account() {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	return e, h.Sum64()
}

// TestStealStormTransfers: in a steal storm most events are the overheads
// of short sends and receives, which run ahead, so the event loop switches
// into a body for at most 0.30 of the events serially and 0.40 on two
// shards (0.26 and 0.36; 0.40 and 0.43 while any delivery in flight stopped
// run-ahead) — against four in five in lockstep — and every ledger and
// request count is the same.
func TestStealStormTransfers(t *testing.T) {
	lock, wantSum := stealStorm(t, Config{Seed: 3, Lockstep: true}, nil)
	for _, c := range []struct {
		shards int
		most   float64
	}{{1, 0.30}, {2, 0.40}} {
		e, sum := stealStorm(t, Config{Seed: 3, Shards: c.shards}, nil)
		if sum != wantSum || e.EventsFired() != lock.EventsFired() {
			t.Errorf("shards=%d: %d events, hash %#x; lockstep %d, %#x", c.shards, e.EventsFired(), sum, lock.EventsFired(), wantSum)
		}
		if r := float64(e.Transfers()) / float64(e.EventsFired()); r > c.most {
			t.Errorf("shards=%d: %d transfers for %d events (%.2f), want at most %.2f", c.shards, e.Transfers(), e.EventsFired(), r, c.most)
		}
	}
	if r := float64(lock.Transfers()) / float64(lock.EventsFired()); r < 0.75 {
		t.Errorf("lockstep: %d transfers for %d events (%.2f); the fixture no longer storms", lock.Transfers(), lock.EventsFired(), r)
	}
}

// TestNowAfterRunAhead: when the last act of a run is run ahead, the shard
// clock stops behind it; Engine.Now still reads the makespan. Processor a
// runs ahead to 50 µs with b's start queued at 0; b then ends at 20 µs on
// the fast path, the last event the loop sees.
func TestNowAfterRunAhead(t *testing.T) {
	e := NewEngine(Config{})
	e.Spawn("a", func(p *Proc) { p.Advance(50*Microsecond, CatCompute) })
	e.Spawn("b", func(p *Proc) { p.Advance(20*Microsecond, CatCompute) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Makespan() != 50*Microsecond || e.Now() != e.Makespan() {
		t.Errorf("Now %v, makespan %v; want 50µs for both", e.Now(), e.Makespan())
	}
	if e.Transfers() != 2 || e.EventsFired() != 4 {
		t.Errorf("%d transfers for %d events; want 2 for 4", e.Transfers(), e.EventsFired())
	}
}

// TestSpawnAfterRunAhead: a processor spawned from a body that ran ahead
// starts at the body's clock, not at the loop's.
func TestSpawnAfterRunAhead(t *testing.T) {
	e := NewEngine(Config{})
	var childAt Time
	e.Spawn("parent", func(p *Proc) {
		p.Advance(40*Microsecond, CatCompute)
		e.Spawn("child", func(c *Proc) { childAt = c.Now() })
	})
	e.Spawn("other", func(p *Proc) {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childAt != 40*Microsecond {
		t.Errorf("child started at %v, want 40µs", childAt)
	}
}

// TestPanicAfterRunAhead: a processor that panics after running ahead ends
// the run at its own clock: a peer parked in a polled advance settles the
// polls before that instant, as in lockstep. The panicking processor runs
// ahead to 45 µs past a third processor's start at 0, which the panic
// leaves unrun.
func TestPanicAfterRunAhead(t *testing.T) {
	ps := substrate.PollSpec{Interval: 10 * Microsecond, Cost: Microsecond, Tag: TagSystem, WakeBy: substrate.Never}
	run := func(lockstep bool) Account {
		e := NewEngine(Config{Network: rlNet(), Lockstep: lockstep})
		e.Spawn("victim", func(p *Proc) { p.AdvancePolled(Second, ps) })
		e.Spawn("boom", func(p *Proc) {
			p.Advance(45*Microsecond, CatCompute)
			panic("boom")
		})
		e.Spawn("late", func(p *Proc) {})
		if err := e.Run(); err == nil {
			t.Fatal("panic did not surface")
		}
		return *e.Proc(0).Account()
	}
	want := run(true)
	if want[CatPollThread] != 4*Microsecond {
		t.Fatalf("lockstep victim ledger %v, want four polls", want)
	}
	if got := run(false); got != want {
		t.Errorf("victim ledger %v, lockstep %v", got, want)
	}
}
