package rtm

import (
	"math/rand"
	"time"

	"prema/internal/substrate"
)

// Endpoint is one real processor: a goroutine plus its delivery channel,
// inbox, ledger, and random source. All substrate methods must be called
// from the processor's own body goroutine. A rank hosted elsewhere keeps
// only its identity and a zero ledger.
type Endpoint struct {
	m    *Machine
	id   int
	name string
	body func(substrate.Endpoint)

	// in is the one delivery feed (written by senders and Inject, each
	// message already stamped with its arrival time); inbox is what this
	// goroutine has drained from it, owned exclusively by it. A message is
	// held until its arrival time — as in the simulator, it is not in the
	// inbox before it arrives — and then taken by arrival time, ties in feed
	// order.
	in    chan *substrate.Msg
	inbox substrate.Queue[arrival]
	// done is closed when the body returns: nothing drains in after that,
	// so a send to this rank is a dead letter rather than a block.
	done chan struct{}

	// fifo[dst] is this endpoint's substrate.Network.Arrival slot for dst:
	// one past its last arrival there, which keeps per-(src,dst) FIFO under
	// the injected latency model. Only the owning goroutine touches it.
	fifo []substrate.Time

	acct       substrate.Account
	rng        *rand.Rand
	finishedAt substrate.Time
}

var _ substrate.Endpoint = (*Endpoint)(nil)

// arrival keys the inbox by arrival time. A message fed after others that
// arrived later, but already due itself, is filed ahead of them.
type arrival substrate.Time

func (a arrival) Before(o arrival) bool { return a < o }

// ID implements substrate.Endpoint.
func (e *Endpoint) ID() int { return e.id }

// NumPeers implements substrate.Endpoint.
func (e *Endpoint) NumPeers() int { return len(e.m.eps) }

// Now implements substrate.Clock.
func (e *Endpoint) Now() substrate.Time { return e.m.Now() }

// Rand returns this endpoint's private random source, seeded Seed+ID as the
// simulator seeds its per-processor streams; concurrent goroutines never
// share unsynchronized state.
func (e *Endpoint) Rand() *rand.Rand { return e.rng }

// Advance burns d of CPU time (scaled wall-clock) and attributes the
// measured elapsed time to cat. Measured — not nominal — time is charged, so
// accounts reflect what the monotonic clock actually saw, including
// scheduler overshoot.
func (e *Endpoint) Advance(d substrate.Time, cat substrate.Category) {
	if d <= 0 {
		return
	}
	t0 := e.m.Now()
	for e.m.Now() < t0+d {
		e.pause(t0+d, nil, nil)
	}
	e.acct[cat] += e.m.Now() - t0
}

// AdvancePolled implements substrate.Endpoint: a quiet stretch of a
// polled computation is one wait, not a slice-and-poll step every Interval.
// It waits until the end of the advance, or until the first poll boundary at
// or after ps.WakeBy or the arrival of the earliest queued message that
// matches ps, re-aiming whenever the feed delivers. The skipped polls are
// charged at their nominal Cost; the rest of the measured time, scheduler
// overshoot included, is compute. It declines when there is nothing to skip
// or it is told to step.
func (e *Endpoint) AdvancePolled(d substrate.Time, ps substrate.PollSpec) (done substrate.Time, polls int) {
	t0 := e.m.Now()
	if !ps.Elides(d, t0) {
		return 0, 0
	}
	g := substrate.NewPollGrid(t0, d, ps)
	target := g.Due(substrate.Never)
	for {
		e.arrived()
		first := e.inbox.NextRelease(ps) // by arrival: a held match is later than any due
		if m := e.inbox.Peek(ps); m != nil {
			first = m.ArrivedAt
		}
		target = min(target, g.Due(first))
		if e.m.Now() >= target {
			break
		}
		e.pause(target, e.in, nil)
	}
	done, polls = g.Settle(target)
	cost := substrate.Time(polls) * ps.Cost
	e.acct[substrate.CatPollThread] += cost
	e.acct[substrate.CatCompute] += e.m.Now() - t0 - cost
	return done, polls
}

// pause is one step of every wait and the one place a wait sleeps. It sleeps
// toward virtual time target (substrate.Never: no instant), less if feed
// delivers (the message is held) or timeout fires, which it reports; nil
// channels do neither. The host timer overshoots, and the caller charges the
// overshoot as the measured time it is. Asleep, the caller dies when the
// machine stops.
func (e *Endpoint) pause(target substrate.Time, feed <-chan *substrate.Msg, timeout <-chan time.Time) (timedOut bool) {
	var sleep <-chan time.Time
	if target != substrate.Never {
		t := time.NewTimer(e.m.wall(target - e.m.Now()))
		defer t.Stop()
		sleep = t.C
	}
	select {
	case m := <-feed:
		e.inbox.Hold(m.ArrivedAt, arrival(m.ArrivedAt), m)
	case <-sleep:
	case <-timeout:
		return true
	case <-e.m.stop:
		panic(errKilled)
	}
	return false
}

// Send transmits m: it stamps Src and SentAt, charges per-message send CPU,
// stamps the arrival time the injected latency model gives — strictly after
// this sender's previous message to the same rank, which is per-(src,dst)
// FIFO — and puts m on the destination's feed, or, for a rank outside this
// machine's share, hands it to the remote link. A message for a rank whose
// body has returned is dropped, a dead letter. The caller must not touch m
// (or ownership-transferred payload objects) afterwards.
func (e *Endpoint) Send(m *substrate.Msg, cat substrate.Category) {
	m.Src = e.id
	m.SentAt = e.m.Now()
	if o := e.m.cfg.Network.SendCPU; o > 0 {
		e.Advance(o, cat)
	}
	mach := e.m
	if !mach.hosts(m.Dst) {
		if !mach.remote(m) {
			// Some machine stopped. If it is this one the sender dies;
			// otherwise the destination is gone and m was a dead letter.
			select {
			case <-mach.stop:
				panic(errKilled)
			default:
			}
		}
		return
	}
	m.ArrivedAt = mach.cfg.Network.Arrival(mach.Now(), m.Size, &e.fifo[m.Dst])
	dst := mach.eps[m.Dst]
	select {
	case dst.in <- m:
	case <-dst.done: // nobody will drain the feed again
	case <-mach.stop: // back-pressured by a full feed during teardown
		panic(errKilled)
	}
}

// arrived empties the feed into the inbox without blocking, releases every
// message whose arrival time has passed and returns how many have arrived.
func (e *Endpoint) arrived() int {
	for {
		select {
		case m := <-e.in:
			e.inbox.Hold(m.ArrivedAt, arrival(m.ArrivedAt), m)
		default:
			e.inbox.Release(e.m.Now())
			return e.inbox.Len()
		}
	}
}

// InboxLen implements substrate.Endpoint.
func (e *Endpoint) InboxLen() int { return e.arrived() }

// TryRecv implements substrate.Endpoint.
func (e *Endpoint) TryRecv(cat substrate.Category) *substrate.Msg {
	e.arrived()
	return e.received(e.inbox.Pop(), cat)
}

// TryRecvTag implements substrate.Endpoint.
func (e *Endpoint) TryRecvTag(tag int, cat substrate.Category) *substrate.Msg {
	e.arrived()
	return e.received(e.inbox.PopTag(tag), cat)
}

// received charges the per-message receive CPU of m, if there is one, to
// cat.
func (e *Endpoint) received(m *substrate.Msg, cat substrate.Category) *substrate.Msg {
	if o := e.m.cfg.Network.RecvCPU; o > 0 && m != nil {
		e.Advance(o, cat)
	}
	return m
}

// Recv implements substrate.Endpoint.
func (e *Endpoint) Recv(waitCat substrate.Category) *substrate.Msg {
	e.WaitMsg(waitCat)
	return e.TryRecv(substrate.CatMessaging)
}

// WaitMsg blocks until at least one message has arrived, attributing the
// measured wait to cat.
func (e *Endpoint) WaitMsg(cat substrate.Category) { e.wait(-1, cat) }

// minWait floors timed waits so that aggressively scaled machines still
// yield the host CPU instead of degenerating into a hot poll loop.
const minWait = time.Microsecond

// WaitMsgFor blocks until a message has arrived or d elapses, attributing
// the measured wait to cat. It reports whether a message is available.
func (e *Endpoint) WaitMsgFor(d substrate.Time, cat substrate.Category) bool {
	return e.wait(max(e.m.wall(d), minWait), cat)
}

// wait is the one blocking receive: until a message has arrived, the machine
// stops, or — when wall is not negative — wall has elapsed. It blocks on the
// feed and, once it holds a message still in flight, on that arrival too.
func (e *Endpoint) wait(wall time.Duration, cat substrate.Category) bool {
	if e.arrived() > 0 {
		return true
	}
	t0 := e.m.Now() // before the timer starts: the charge covers all of wall
	var timeout <-chan time.Time
	if wall >= 0 {
		t := time.NewTimer(wall)
		defer t.Stop()
		timeout = t.C
	}
	n, timedOut := 0, false
	for n == 0 && !timedOut {
		timedOut = e.pause(e.inbox.NextRelease(substrate.PollSpec{AnyTag: true}), e.in, timeout)
		n = e.arrived()
	}
	e.acct[cat] += e.m.Now() - t0
	return n > 0
}
