package sim

import "prema/internal/substrate"

// shard owns one partition of the simulated processors: their event heap,
// event free list, local virtual clock and outgoing cross-shard mailboxes.
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
	end       Time  // current window bound; 0 outside runWindow (closes Proc.skipTo)
	ahead     Time  // run-ahead horizon past now: the lookahead, 0 under Config.Lockstep
	cur       *Proc // the processor last switched into (Spawn inside a body)
	heap      eventHeap
	fired     uint64 // events executed (Engine.EventsFired)
	elided    uint64 // poll wake-ups charged arithmetically by AdvancePolled
	transfers uint64 // switches into a processor body (Engine.Transfers)

	free     *event // recycled fired events (intrusive list via event.next)
	allocSeq uint64 // local-band ordering counter (see event.go)

	net substrate.Network

	// out[d] buffers deliveries destined for shard d's processors during
	// the current window; the coordinator moves them into d's heap at the
	// barrier. Entries are reused across windows (zero-alloc steady state).
	out [][]mailEntry

	err error // first processor panic on this shard

	// Barrier channels (sharded mode only): the coordinator sends the
	// window end time, the worker replies when the window is drained.
	start chan Time
	done  chan struct{}
}

// mailEntry is one cross-shard message delivery waiting at the window
// barrier: the precomputed arrival time and band-1 ordering key plus the
// message itself. The destination shard turns it into a heap event at the
// exchange, drawing from its own free list.
type mailEntry struct {
	at  Time
	ord uint64
	m   *Msg
}

func newShard(e *Engine, id, nShards int) *shard {
	s := &shard{
		eng:  e,
		id:   id,
		heap: eventHeap{e: make([]heapEntry, 0, 1024)},
		net:  *e.cfg.Network,
		out:  make([][]mailEntry, nShards),
	}
	return s
}

// alloc takes an event from the free list, or heap-allocates when the list
// is empty (cold start and queue-depth high-water marks only).
func (s *shard) alloc() *event {
	ev := s.free
	if ev == nil {
		ev = &event{}
	} else {
		s.free = ev.next
		ev.next = nil
	}
	return ev
}

// release returns a fired event to the free list, dropping its operand
// references so recycled events retain nothing.
func (s *shard) release(ev *event) {
	*ev = event{next: s.free}
	s.free = ev
}

// ordNext returns the next local-band ordering key (wakes, the events that
// never cross a shard boundary).
func (s *shard) ordNext() uint64 {
	s.allocSeq++
	return ordLocalBand | s.allocSeq
}

// atWake schedules p's wake at time at (never before now) and records it in
// p.wake, p's one event in the heap until it fires or a delivery removes or
// moves it.
func (s *shard) atWake(at Time, p *Proc) {
	ev := s.alloc()
	ev.kind = evWake
	ev.proc = p
	p.wake = ev
	s.heap.Push(at, s.ordNext(), ev)
}

// post injects m, arriving at arrival, into the network, charging no CPU.
// The sender has already stamped Src/SentAt, consumed its send overhead and
// computed the arrival from its own clock (Proc.arrival). Local deliveries
// go straight onto this shard's heap; cross-shard deliveries wait in the
// outbox until the window barrier. Both carry the delivery-band (src,
// sendSeq) ordering key, so where the destination lives does not change
// when — or in what order — the delivery fires.
func (s *shard) post(m *Msg, arrival Time, sendSeq uint64) {
	ord := deliverOrd(m.Src, sendSeq)
	d := s.eng.shardOf(m.Dst)
	if d == s.id {
		ev := s.alloc()
		ev.kind = evDeliver
		ev.msg = m
		s.eng.procs[m.Dst].inflight.push(arrival)
		s.heap.Push(arrival, ord, ev)
		return
	}
	s.out[d] = append(s.out[d], mailEntry{at: arrival, ord: ord, m: m})
}

// deliver appends m to its destination inbox and wakes the destination if
// it is parked waiting for a message; a destination parked in a polled
// advance has its wake moved forward to the poll that will see m.
func (s *shard) deliver(m *Msg) {
	p := s.eng.procs[m.Dst]
	p.inflight.pop() // the earliest, at s.now
	m.ArrivedAt = s.now
	p.inbox.push(m)
	if p.waitingMsg {
		// The message beat the wait's timeout: take the timeout out of the
		// heap rather than leave it to fire dead. Every other event keeps
		// its (at, ord) key, so the live pop order does not change.
		if ev := p.wake; ev != nil {
			p.wake = nil
			s.heap.Remove(int(ev.idx))
			s.release(ev)
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
	s.cur = p
	p.next()
}

// runWindow drains this shard's heap up to (excluding) end. The conservative
// lookahead guarantees no cross-shard delivery can land inside the current
// window, so the pop order below — (at, ord) over an exclusively-owned heap
// — is the shard's one and only event order, independent of S.
//
// It publishes the bound in s.end while draining so Proc.skipTo can move a
// clock in place inside the window, and clears it on exit so no processor
// resumed outside a window (teardown) can advance the clock.
func (s *shard) runWindow(end Time) {
	s.end = end
	s.drain(end)
	s.end = 0
}

// drain is runWindow's loop body. The wake and deliver arms, one per event
// kind, are inlined here rather than dispatched through a helper: keeping
// them in the loop body keeps the whole hot path — pop, clock bump,
// dispatch, free-list release — in one frame. A wake always finds its
// processor parked on it, or not yet started; anything else is an engine
// bug, caught here rather than left to switch into the wrong processor.
func (s *shard) drain(end Time) {
	for s.err == nil {
		if len(s.heap.e) == 0 || s.heap.e[0].at >= end {
			return
		}
		top := s.heap.Pop()
		if top.at < s.now {
			panic("sim: event scheduled in the past")
		}
		s.now = top.at
		s.fired++
		ev := top.ev
		switch ev.kind {
		case evWake:
			p := ev.proc
			if p.wake != ev {
				panic("sim: a wake fired for processor " + p.name + ", which is not parked on it")
			}
			p.wake = nil
			s.transfer(p)
		case evDeliver:
			s.deliver(ev.msg)
		}
		s.release(ev)
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
