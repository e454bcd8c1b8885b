package sim

import "prema/internal/substrate"

// shard owns one partition of the simulated processors: their delivery ring
// and wake heap, local virtual clock and outgoing cross-shard mailboxes.
// Processors are assigned by Config.Partition (round-robin when nil;
// internal/bench places them in contiguous blocks).
//
// Everything a shard touches while a window executes is owned by that shard
// — the engine-level structures (procs slice, config, lookahead) are
// read-only during Run. Shards communicate only through the outboxes, which
// the coordinator drains between windows while every worker is parked at
// the barrier.
type shard struct {
	eng *Engine
	id  int

	now       Time
	end       Time // current window bound; 0 outside runWindow (closes Proc.skipTo)
	ahead     Time // run-ahead horizon past now: the lookahead, 0 under Config.Lockstep
	ring      deliveryRing
	heap      eventHeap
	fired     uint64 // events executed (Engine.EventsFired)
	elided    uint64 // poll wake-ups charged arithmetically by AdvancePolled
	transfers uint64 // switches into a processor body (Engine.Transfers, in runahead_test.go)

	net substrate.Network

	// out[d] buffers deliveries destined for shard d's processors during
	// the current window; the coordinator moves them into d's ring at the
	// barrier. Entries are reused across windows (zero-alloc steady state).
	out [][]delivery

	err error // first processor panic on this shard

	// Barrier channels (sharded mode only): the coordinator sends the
	// window end time, the worker replies when the window is drained.
	start chan Time
	done  chan struct{}
}

func newShard(e *Engine, id, nShards int) *shard {
	return &shard{
		eng: e,
		id:  id,
		net: *e.cfg.Network,
		out: make([][]delivery, nShards),
	}
}

// next returns the time of the shard's earliest event, or maxTime when it
// has none.
func (s *shard) next() Time { return min(s.ring.next(), s.heap.next()) }

// atWake schedules p's wake at time at (never before now), p's one entry in
// the heap until it fires or a delivery removes or moves it. A processor
// already holding a wake is an engine bug: the older wake would fire for a
// processor not parked on it.
func (s *shard) atWake(at Time, p *Proc) {
	if p.hidx >= 0 {
		panic("sim: processor " + p.name + " already has a wake")
	}
	s.heap.Push(at, p)
}

// enqueue puts a delivery to one of this shard's processors on its ring.
func (s *shard) enqueue(x delivery) {
	s.eng.procs[x.m.Dst].inflight.push(x.at)
	s.ring.push(x)
}

// post injects m, arriving at arrival, into the network, charging no CPU.
// The sender has already stamped Src/SentAt, consumed its send overhead and
// computed the arrival from its own clock (Proc.arrival). Local deliveries
// go straight onto this shard's ring; cross-shard deliveries wait in the
// outbox until the window barrier. Both carry the delivery-band (src,
// sendSeq) ordering key, so where the destination lives does not change
// when — or in what order — the delivery fires.
func (s *shard) post(m *Msg, arrival Time, sendSeq uint64) {
	x := delivery{at: arrival, ord: deliverOrd(m.Src, sendSeq), m: m}
	if d := s.eng.shardOf(m.Dst); d != s.id {
		s.out[d] = append(s.out[d], x)
		return
	}
	s.enqueue(x)
}

// deliver appends m to its destination inbox and wakes the destination if
// it is parked waiting for a message; a destination parked in a polled
// advance has its wake moved forward to the poll that will see m.
func (s *shard) deliver(m *Msg) {
	p := s.eng.procs[m.Dst]
	p.inflight.pop() // the earliest, at s.now
	m.ArrivedAt = s.now
	p.inbox.Push(substrate.Arrival{}, m)
	if p.waitingMsg {
		// The message beat the wait's timeout: take the timeout out of the
		// heap rather than leave it to fire dead. Every other event keeps
		// its (at, ord) key, so the live pop order does not change.
		if p.hidx >= 0 {
			s.heap.Remove(int(p.hidx))
		}
		s.transfer(p)
	} else if p.polled {
		p.pollArrival(m)
	}
}

// transfer switches this shard's thread of control into p's coroutine until
// p blocks or finishes, with p's clock set to the loop's. It must only be
// called from the shard's event loop; processors never call it directly.
func (s *shard) transfer(p *Proc) {
	s.transfers++
	p.now = s.now
	p.next()
}

// runWindow drains this shard's events up to (excluding) end. The
// conservative lookahead guarantees no cross-shard delivery can land inside
// the current window, so the pop order below — (at, ord) over exclusively
// owned queues — is the shard's one and only event order, independent of S.
//
// It publishes the bound in s.end while draining so Proc.skipTo can move a
// clock in place inside the window, and clears it on exit so no processor
// resumed outside a window (teardown) can advance the clock.
func (s *shard) runWindow(end Time) {
	s.end = end
	s.drain(end)
	s.end = 0
}

// drain is runWindow's loop body: it fires whichever of the ring's and the
// heap's heads is earlier. Deliveries sort before wakes at equal times, so a
// tie goes to the ring. A wake always finds its processor parked on it, or
// not yet started, so the root's processor records slot 0; anything else is
// an engine bug, caught here rather than left to switch into the wrong
// processor.
func (s *shard) drain(end Time) {
	for s.err == nil {
		d, w := s.ring.next(), s.heap.next()
		at := min(d, w)
		if at >= end {
			return
		}
		if at < s.now {
			panic("sim: event scheduled in the past")
		}
		s.now = at
		s.fired++
		if d <= w {
			s.deliver(s.ring.pop())
			continue
		}
		p := s.heap.e[0].p
		if p.hidx != 0 {
			panic("sim: a wake fired for processor " + p.name + ", which is not parked on it")
		}
		s.heap.Remove(0)
		s.transfer(p)
	}
}

// work is the persistent worker loop of one shard in sharded mode: execute
// each window the coordinator hands out, then park at the barrier. The
// loop exits when the coordinator closes the start channel.
func (s *shard) work() {
	for end := range s.start {
		s.runWindow(end)
		s.done <- struct{}{}
	}
}
