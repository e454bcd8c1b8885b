package sim

import (
	"errors"
	"math/rand"

	"prema/internal/substrate"
)

var errKilled = errors.New("sim: processor killed")

// Proc is a simulated processor. A Proc's body function runs as a coroutine
// (iter.Pull) and only ever while its owning shard has switched to it, so
// bodies may freely touch their shard's state (schedule events, send
// messages) without synchronization.
//
// A processor keeps its own clock. The shard sets it to the loop clock at
// every switch into the body; while the body runs, an Advance that no event
// can interrupt moves only the processor's clock (run-ahead, see Advance),
// so it may lead the shard's by less than one network latency.
//
// All methods that advance virtual time (Advance, Send, Recv*, Wait*) must be
// called from the Proc's own body; calling them from another goroutine or
// from an engine event handler corrupts the handoff protocol.
type Proc struct {
	id   int
	name string
	sh   *shard
	now  Time // the processor's clock: never behind its shard's while it runs

	// The coroutine's three ends. The shard calls next to run the body until
	// it blocks or finishes; the body calls yield to block, and a false
	// return means the engine is tearing it down; stop is that teardown.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	// hidx is the slot of the processor's one wake in its shard's heap
	// (-1 = none): the wake that starts it, or, while it is parked, the one
	// that resumes it (a wait with no deadline has none). A running
	// processor has none.
	hidx       int32
	waitingMsg bool // parked in wait: a delivery ends the wait
	done       bool
	finishedAt Time

	// Polled-advance state (polled.go): polled marks a park inside
	// AdvancePolled, whose wake a matching delivery may move.
	polled bool
	poll   polledPark

	sendSeq  uint64     // per-processor message send counter (ordering band 1)
	fifo     []Time     // per-destination substrate.Network.Arrival slots of this sender
	inflight arrivals   // when the deliveries to this processor in its shard's ring land
	rng      *rand.Rand // lazily built deterministic per-processor stream

	inbox substrate.Queue[substrate.Arrival]
	acct  Account
}

// ID returns the processor's dense ID (spawn order).
func (p *Proc) ID() int { return p.id }

// Now returns the processor's virtual time: its shard's clock, or ahead of
// it while the body runs ahead (Advance).
func (p *Proc) Now() Time { return p.now }

// Account returns the processor's time ledger. The pointer stays valid for
// the lifetime of the simulation; read it after Run for final figures.
func (p *Proc) Account() *Account { return &p.acct }

// park blocks the processor, attributing the blocked duration to cat.
// The caller must have arranged for a wake-up (a wake in the heap, or for a
// wait a delivery) before calling park. A processor torn down while parked
// unwinds its body from here, uncharged.
func (p *Proc) park(cat Category) {
	start := p.now
	if !p.yield(struct{}{}) {
		panic(errKilled)
	}
	p.acct[cat] += p.now - start
}

// Advance consumes d of CPU time, attributed to cat. It models computation
// (CatCompute), runtime bookkeeping (CatScheduling, CatCallback, ...), or any
// other busy occupancy. Control returns after virtual time has advanced.
//
// When no event can interrupt the advance, the processor moves its clock in
// place (skipTo) instead of parking on a wake in the heap, which would hand
// control to the event loop only for it to hand control straight back; a
// delivery to itself that comes first it fires in place (absorb).
func (p *Proc) Advance(d Time, cat Category) {
	if d <= 0 {
		return
	}
	at := p.now + d
	for !p.skipTo(at) {
		if !p.absorb(at) {
			p.sh.atWake(at, p)
			p.park(cat)
			return
		}
	}
	p.acct[cat] += d
}

// absorb fires the shard's next event in place when it is a delivery to p
// due by at, and reports whether it did. Parked on a wake at at, p would see
// the same: the delivery fires first (it is next, and wins a tie), and only
// appends to the inbox of a processor neither waiting nor in a polled
// advance. AdvancePolled must not absorb: its deliveries move its wake
// (pollArrival).
func (p *Proc) absorb(at Time) bool {
	s := p.sh
	d := s.ring.next()
	if d > at || d > s.heap.next() || d >= s.end || s.err != nil || s.ring.buf[s.ring.head].m.Dst != p.id {
		return false
	}
	s.now = d
	s.fired++
	s.deliver(s.ring.pop())
	return true
}

// skipTo moves p's clock to at without yielding when nothing p could see
// fires before at, counting the wake it elides as fired; it reports whether
// it did. Either of two arms allows it, inside the current window:
//
//   - Fast path: at is before the shard's earliest event. The wake would be
//     the very next event the shard pops, so the shard clock moves too. Ties
//     take the slow path, where the ordering key decides: an equal-time
//     delivery fires first, equal-time wakes in processor-ID order.
//   - Run-ahead: at is before the earliest delivery to p in the ring
//     (inflight), and less than one latency past the shard clock (the
//     horizon), so no message sent from now on lands first. The first
//     bound is strict like the others: a delivery at exactly at fires
//     before the wake (deliveries sort first), so p must park to see it.
//     A running processor has no wake of its own in the heap (Proc.hidx),
//     so nothing else of p's can fire in between.
//     Only p's clock moves. Events of other processors before at fire later
//     in host order than in virtual order, which is invisible: processors
//     share no mutable state, and every event that crosses between them is
//     a delivery keyed by its sender. Config.Lockstep closes this arm (a
//     zero horizon).
func (p *Proc) skipTo(at Time) bool {
	s := p.sh
	if at >= s.end || s.err != nil {
		return false
	}
	if at < s.next() {
		s.now = at
	} else if at >= p.inflight.first || at >= s.now+s.ahead {
		return false
	}
	p.now = at
	s.fired++
	return true
}

// Send transmits m across the simulated network, stamping Src and SentAt.
// The sender is charged the per-message send CPU overhead against cat
// (normally CatMessaging). Delivery is asynchronous and FIFO per (src,dst).
func (p *Proc) Send(m *Msg, cat Category) {
	m.Src = p.id
	m.SentAt = p.now
	if o := p.sh.net.SendCPU; o > 0 {
		p.Advance(o, cat)
	}
	p.sendSeq++
	p.sh.post(m, p.arrival(m.Dst, m.Size), p.sendSeq)
}

// arrival computes when a message of the given size that p sends now
// arrives at dst, by the network's FIFO rule. The sender owns the slots, so
// they are the same under any partition and need no lock; the rule only
// ever moves arrivals later, which keeps Latency a valid lower bound on time
// in flight — the property the sharded engine's windows and run-ahead rely
// on.
func (p *Proc) arrival(dst, size int) Time {
	if dst >= len(p.fifo) {
		n := max(dst+1, len(p.sh.eng.procs))
		p.fifo = append(p.fifo, make([]Time, n-len(p.fifo))...)
	}
	return p.sh.net.Arrival(p.now, size, &p.fifo[dst])
}

// InboxLen returns the number of queued, undelivered-to-application messages.
func (p *Proc) InboxLen() int { return p.inbox.Len() }

// TryRecv pops the oldest queued message, charging receive CPU overhead to
// cat. It returns nil when the inbox is empty.
func (p *Proc) TryRecv(cat Category) *Msg { return p.received(p.inbox.Pop(), cat) }

// TryRecvTag pops the oldest queued message with the given tag, preserving
// the relative order of the remaining messages. It returns nil when no such
// message is queued. This implements PREMA's separation of system
// (load-balancer) traffic from application traffic (§4.2 of the paper).
func (p *Proc) TryRecvTag(tag int, cat Category) *Msg { return p.received(p.inbox.PopTag(tag), cat) }

// received charges the receive CPU of m, if there is one, to cat.
func (p *Proc) received(m *Msg, cat Category) *Msg {
	if o := p.sh.net.RecvCPU; o > 0 && m != nil {
		p.Advance(o, cat)
	}
	return m
}

// Recv blocks until a message is available and returns it, attributing
// blocked time to waitCat (normally CatIdle) and receive overhead to
// CatMessaging.
func (p *Proc) Recv(waitCat Category) *Msg {
	p.WaitMsg(waitCat)
	return p.TryRecv(CatMessaging)
}

// WaitMsg blocks until at least one message is queued, attributing the wait
// to cat.
func (p *Proc) WaitMsg(cat Category) { p.wait(substrate.Never, cat) }

// WaitMsgFor blocks until a message is queued or d elapses, attributing the
// wait to cat. It reports whether a message is available.
func (p *Proc) WaitMsgFor(d Time, cat Category) bool { return p.wait(p.now+d, cat) }

// wait parks until a message is queued or the clock reaches deadline; with
// substrate.Never no timer is armed and only a delivery wakes it. The timer
// is p's wake while parked: a delivery removes it from the heap
// (shard.deliver), so it fires only when it, not a message, ends the wait.
func (p *Proc) wait(deadline Time, cat Category) bool {
	for p.inbox.Len() == 0 && p.now < deadline {
		if deadline != substrate.Never {
			p.sh.atWake(deadline, p)
		}
		p.waitingMsg = true
		p.park(cat)
		p.waitingMsg = false
	}
	return p.inbox.Len() > 0
}
