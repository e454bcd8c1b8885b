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
// All methods that advance virtual time (Advance, Send, Recv*, Wait*) must be
// called from the Proc's own body; calling them from another goroutine or
// from an engine event handler corrupts the handoff protocol.
type Proc struct {
	id   int
	name string
	sh   *shard

	// The coroutine's three ends. The shard calls next to run the body until
	// it blocks or finishes; the body calls yield to block, and a false
	// return means the engine is tearing it down; stop is that teardown.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	blocked    bool
	waitingMsg bool
	waitGen    uint64
	done       bool
	finishedAt Time

	// Polled-advance state (polled.go): polled marks a park inside
	// AdvancePolled; endAt is when the processor's one end-of-advance event
	// in the heap fires (0 = none queued).
	polled bool
	endAt  Time
	poll   polledPark

	sendSeq uint64     // per-processor message send counter (ordering band 1)
	rng     *rand.Rand // lazily built deterministic per-processor stream

	inbox msgRing
	acct  Account
}

// ID returns the processor's dense ID (spawn order).
func (p *Proc) ID() int { return p.id }

// Now returns the current virtual time on the processor's shard.
func (p *Proc) Now() Time { return p.sh.now }

// Account returns the processor's time ledger. The pointer stays valid for
// the lifetime of the simulation; read it after Run for final figures.
func (p *Proc) Account() *Account { return &p.acct }

// Charge adds virtual time to a category without advancing the clock. It is
// used to re-attribute time (e.g. splitting a receive between messaging and
// callback overhead); prefer Advance for real time consumption.
func (p *Proc) Charge(cat Category, d Time) { p.acct[cat] += d }

// park blocks the processor, attributing the blocked duration to cat.
// The caller must have arranged for a wake-up (timer event or message
// delivery) before calling park. A processor torn down while parked unwinds
// its body from here, uncharged.
func (p *Proc) park(cat Category) {
	start := p.sh.now
	p.blocked = true
	if !p.yield(struct{}{}) {
		panic(errKilled)
	}
	p.blocked = false
	p.acct[cat] += p.sh.now - start
}

// Advance consumes d of CPU time, attributed to cat. It models computation
// (CatCompute), runtime bookkeeping (CatScheduling, CatCallback, ...), or any
// other busy occupancy. Control returns after virtual time has advanced.
//
// Fast path: when the wake would be the very next event the shard pops —
// nothing else is pending strictly before it, and it lands inside the
// current window — firing it through the heap would hand control to the
// event loop only for it to hand control straight back. Instead the clock
// is bumped in place, skipping the heap round trip and the two coroutine
// switches of park/transfer. Ties must take the slow path: a fresh wake
// carries the largest ordering key, so an equal-time entry already in the
// heap fires first.
func (p *Proc) Advance(d Time, cat Category) {
	if d <= 0 {
		return
	}
	p.waitGen++
	s := p.sh
	at := s.now + d
	if at < s.end && s.err == nil &&
		(len(s.heap.e) == 0 || at < s.heap.e[0].at) {
		s.now = at
		s.fired++
		p.acct[cat] += d
		return
	}
	s.atWake(d, p, p.waitGen)
	p.park(cat)
}

// Send transmits m across the simulated network, stamping Src and SentAt.
// The sender is charged the per-message send CPU overhead against cat
// (normally CatMessaging). Delivery is asynchronous and FIFO per (src,dst).
func (p *Proc) Send(m *Msg, cat Category) {
	m.Src = p.id
	m.SentAt = p.sh.now
	if o := p.sh.net.cfg.SendCPU; o > 0 {
		p.Advance(o, cat)
	}
	p.sendSeq++
	p.sh.post(m, p.sendSeq)
}

// InboxLen returns the number of queued, undelivered-to-application messages.
func (p *Proc) InboxLen() int { return p.inbox.Len() }

// hasMsg reports whether any queued message carries the given tag.
func (p *Proc) hasMsg(tag int) bool {
	for i := 0; i < p.inbox.Len(); i++ {
		if p.inbox.at(i).Tag == tag {
			return true
		}
	}
	return false
}

// TryRecv pops the oldest queued message, charging receive CPU overhead to
// cat. It returns nil when the inbox is empty.
func (p *Proc) TryRecv(cat Category) *Msg {
	if p.inbox.Len() == 0 {
		return nil
	}
	return p.take(0, cat)
}

// TryRecvTag pops the oldest queued message with the given tag, preserving
// the relative order of the remaining messages. It returns nil when no such
// message is queued. This implements PREMA's separation of system
// (load-balancer) traffic from application traffic (§4.2 of the paper).
func (p *Proc) TryRecvTag(tag int, cat Category) *Msg {
	for i := 0; i < p.inbox.Len(); i++ {
		if p.inbox.at(i).Tag == tag {
			return p.take(i, cat)
		}
	}
	return nil
}

// take removes the i-th queued message, charging the receive CPU to cat.
func (p *Proc) take(i int, cat Category) *Msg {
	m := p.inbox.removeAt(i)
	if o := p.sh.net.cfg.RecvCPU; o > 0 {
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
func (p *Proc) WaitMsgFor(d Time, cat Category) bool { return p.wait(p.sh.now+d, cat) }

// wait parks until a message is queued or the clock reaches deadline; with
// substrate.Never no timer is armed and only a delivery wakes it.
func (p *Proc) wait(deadline Time, cat Category) bool {
	for p.inbox.Len() == 0 && p.sh.now < deadline {
		p.waitGen++
		if deadline != substrate.Never {
			p.sh.atWake(deadline-p.sh.now, p, p.waitGen)
		}
		p.waitingMsg = true
		p.park(cat)
		p.waitingMsg = false
	}
	return p.inbox.Len() > 0
}
