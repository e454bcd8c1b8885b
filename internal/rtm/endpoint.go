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

	// in is the merged delivery feed (written by senders, latency
	// forwarders, or Inject); inbox is the drained, application-visible
	// queue, owned exclusively by this goroutine.
	in    chan *substrate.Msg
	inbox []*substrate.Msg

	// lastArrival[dst] is the latest arrival time this endpoint has
	// scheduled toward dst; it enforces per-(src,dst) FIFO under the
	// injected latency model. Only the owning goroutine touches it.
	lastArrival []substrate.Time

	acct       substrate.Account
	rng        *rand.Rand
	finishedAt substrate.Time
}

var _ substrate.Endpoint = (*Endpoint)(nil)

// ID implements substrate.Endpoint.
func (e *Endpoint) ID() int { return e.id }

// Name implements substrate.Endpoint.
func (e *Endpoint) Name() string { return e.name }

// NumPeers implements substrate.Endpoint.
func (e *Endpoint) NumPeers() int { return len(e.m.eps) }

// Now implements substrate.Clock.
func (e *Endpoint) Now() substrate.Time { return e.m.Now() }

// Rand returns this endpoint's private seeded random source. Unlike the
// simulator (where all endpoints share the engine's stream), each rtm
// endpoint owns its stream so concurrent goroutines never share
// unsynchronized state.
func (e *Endpoint) Rand() *rand.Rand { return e.rng }

// Account implements substrate.Endpoint; read it after the machine's Run
// returns.
func (e *Endpoint) Account() *substrate.Account { return &e.acct }

// Charge implements substrate.Endpoint.
func (e *Endpoint) Charge(cat substrate.Category, d substrate.Time) { e.acct[cat] += d }

// killed panics errKilled; the body wrapper in Run recovers it.
func (e *Endpoint) killed() { panic(errKilled) }

// Advance burns d of CPU time (scaled wall-clock, sleeping or spinning) and
// attributes the measured elapsed time to cat. Measured — not nominal —
// time is charged, so accounts reflect what the monotonic clock actually
// saw, including scheduler overshoot.
func (e *Endpoint) Advance(d substrate.Time, cat substrate.Category) {
	if d <= 0 {
		return
	}
	t0 := e.m.Now()
	e.m.sleepUntil(t0+d, e.killed)
	e.acct[cat] += e.m.Now() - t0
}

// Send transmits m, stamping Src and SentAt, charging per-message send CPU,
// and scheduling FIFO per-(src,dst) delivery under the injected latency
// model — or, for a rank outside this machine's share, handing it to the
// remote link. The caller must not touch m (or ownership-transferred
// payload objects) afterwards.
func (e *Endpoint) Send(m *substrate.Msg, cat substrate.Category) {
	m.Src = e.id
	m.SentAt = e.m.Now()
	if o := e.m.cfg.SendCPU; o > 0 {
		e.Advance(o, cat)
	}
	mach := e.m
	if !mach.hosts(m.Dst) {
		if !mach.remote(m) {
			// Some machine stopped. If it is this one the sender dies;
			// otherwise the destination is gone and m was a dead letter.
			select {
			case <-mach.stop:
				e.killed()
			default:
			}
		}
		return
	}
	if mach.links == nil {
		// No injected latency: hand the message straight to the
		// destination feed. Channel order preserves per-sender FIFO.
		m.ArrivedAt = mach.Now()
		e.deliver(mach.eps[m.Dst].in, m)
		return
	}
	arrival := mach.Now() + mach.cfg.Latency + substrate.Time(m.Size)*mach.cfg.PerByte
	if last := e.lastArrival[m.Dst]; arrival <= last {
		arrival = last + 1
	}
	e.lastArrival[m.Dst] = arrival
	m.ArrivedAt = arrival // the forwarder holds the message until then
	e.deliver(mach.links[e.id][m.Dst], m)
}

// deliver pushes onto a delivery channel, aborting if the machine stops
// while the channel is full (back-pressure during teardown).
func (e *Endpoint) deliver(ch chan *substrate.Msg, m *substrate.Msg) {
	select {
	case ch <- m:
	case <-e.m.stop:
		e.killed()
	}
}

// drain moves everything currently buffered in the delivery feed into the
// inbox without blocking.
func (e *Endpoint) drain() {
	for {
		select {
		case m := <-e.in:
			e.inbox = append(e.inbox, m)
		default:
			return
		}
	}
}

// InboxLen implements substrate.Endpoint.
func (e *Endpoint) InboxLen() int {
	e.drain()
	return len(e.inbox)
}

// HasMsg implements substrate.Endpoint.
func (e *Endpoint) HasMsg(tag int) bool {
	e.drain()
	for _, m := range e.inbox {
		if m.Tag == tag {
			return true
		}
	}
	return false
}

// TryRecv implements substrate.Endpoint.
func (e *Endpoint) TryRecv(cat substrate.Category) *substrate.Msg {
	e.drain()
	if len(e.inbox) == 0 {
		return nil
	}
	m := e.inbox[0]
	e.inbox = e.inbox[1:]
	if len(e.inbox) == 0 {
		e.inbox = nil
	}
	if o := e.m.cfg.RecvCPU; o > 0 {
		e.Advance(o, cat)
	}
	return m
}

// TryRecvTag implements substrate.Endpoint.
func (e *Endpoint) TryRecvTag(tag int, cat substrate.Category) *substrate.Msg {
	e.drain()
	for i, m := range e.inbox {
		if m.Tag == tag {
			e.inbox = append(e.inbox[:i], e.inbox[i+1:]...)
			if o := e.m.cfg.RecvCPU; o > 0 {
				e.Advance(o, cat)
			}
			return m
		}
	}
	return nil
}

// Recv implements substrate.Endpoint.
func (e *Endpoint) Recv(waitCat substrate.Category) *substrate.Msg {
	e.WaitMsg(waitCat)
	return e.TryRecv(substrate.CatMessaging)
}

// WaitMsg blocks until at least one message is queued, attributing the
// measured wait to cat.
func (e *Endpoint) WaitMsg(cat substrate.Category) { e.wait(-1, cat) }

// minWait floors timed waits so that aggressively scaled machines still
// yield the host CPU instead of degenerating into a hot poll loop.
const minWait = time.Microsecond

// WaitMsgFor blocks until a message is queued or d elapses, attributing the
// measured wait to cat. It reports whether a message is available.
func (e *Endpoint) WaitMsgFor(d substrate.Time, cat substrate.Category) bool {
	return e.wait(max(e.m.wall(d), minWait), cat)
}

// wait is the one blocking receive: until a message is queued, the machine
// stops, or — when wall is not negative — wall has elapsed.
func (e *Endpoint) wait(wall time.Duration, cat substrate.Category) bool {
	if len(e.inbox) > 0 || e.InboxLen() > 0 {
		return true
	}
	t0 := e.m.Now() // before the timer starts: the charge covers all of wall
	var timeout <-chan time.Time
	if wall >= 0 {
		t := time.NewTimer(wall)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case m := <-e.in:
		e.inbox = append(e.inbox, m)
	case <-timeout:
	case <-e.m.stop:
		e.killed()
	}
	e.acct[cat] += e.m.Now() - t0
	return len(e.inbox) > 0
}
