// Package dmcs implements PREMA's Data Movement and Communication Substrate:
// a single-sided, Active-Messages-style communication layer (Barker et al.,
// "Data movement and control substrate for parallel adaptive applications",
// Concurrency P&E 2002; von Eicken et al., ISCA 1992).
//
// A message names a handler to run at the destination; handlers execute when
// the destination polls (there are no matching receives). Handlers are
// registered per processor, and every processor must register the same
// handlers in the same order so that handler IDs agree across the machine —
// exactly the SPMD registration discipline of the C library.
//
// The layer is written against substrate.Endpoint, so the same DMCS code
// runs on the deterministic simulator (internal/sim) and on the
// real-concurrency goroutine machine (internal/rtm).
package dmcs

import (
	"prema/internal/substrate"
	"prema/internal/trace"
)

// HandlerID names a registered active-message handler.
type HandlerID int

// Handler is an active-message handler. It runs on the destination
// processor's execution context (it may compute, send, and poll), with src
// the sending processor and data/size the payload.
type Handler func(c *Comm, src int, data any, size int)

// dispatchCPU is charged (to substrate.CatCallback) around every handler
// invocation, modeling the user-level dispatch cost of the AM layer.
const dispatchCPU = 2 * substrate.Microsecond

// Comm is a processor-local communication endpoint.
type Comm struct {
	p        substrate.Endpoint
	handlers []Handler
	// rel is non-nil in reliable-delivery mode (see reliable.go): sequenced
	// exactly-once delivery with acks and poll-driven retransmission,
	// built for lossy transports such as internal/faulty.
	rel *reliable
	// tr is the trace recorder behind p (nil when the run is untraced; the
	// nil recorder's methods are no-ops).
	tr *trace.Recorder
	// free holds zeroed messages this processor has finished with, for its
	// next sends (substrate.Msg says why a delivered message is ours to
	// reuse). Only the processor's own goroutine or coroutine runs a Comm,
	// so the list needs no locking.
	free []*substrate.Msg
}

// freeCap bounds a Comm's free list: a burst of deliveries larger than this
// leaves its surplus to the garbage collector.
const freeCap = 64

// New wraps a substrate endpoint in a DMCS endpoint.
func New(p substrate.Endpoint) *Comm {
	return &Comm{p: p, tr: trace.Of(p), free: make([]*substrate.Msg, 0, freeCap)}
}

// newMsg returns a message holding v, recycled when one is free.
func (c *Comm) newMsg(v substrate.Msg) *substrate.Msg {
	var m *substrate.Msg
	if n := len(c.free); n > 0 {
		m = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		m = new(substrate.Msg)
	}
	*m = v
	return m
}

// recycle zeroes a delivered message dmcs has finished with and keeps it for
// a later send. Zeroing drops the payload, so a kept message pins nothing.
func (c *Comm) recycle(m *substrate.Msg) {
	if len(c.free) < freeCap {
		*m = substrate.Msg{}
		c.free = append(c.free, m)
	}
}

// Proc returns the underlying substrate endpoint.
func (c *Comm) Proc() substrate.Endpoint { return c.p }

// Register installs h and returns its ID. Registration order must match on
// every processor.
func (c *Comm) Register(h Handler) HandlerID {
	c.handlers = append(c.handlers, h)
	return HandlerID(len(c.handlers) - 1)
}

// Send posts a single-sided active message: handler h runs at dst with the
// given payload once dst polls. Size models the payload's wire size. The
// send charges the sender's per-message CPU overhead.
func (c *Comm) Send(dst int, h HandlerID, data any, size int) {
	c.SendTagged(dst, h, data, size, substrate.TagApp)
}

// SendTagged is Send with an explicit traffic-class tag. Load balancer
// traffic uses substrate.TagSystem so it can be drained preemptively by
// PREMA's polling thread without touching application messages. In reliable
// mode the message is sequenced and buffered for retransmission until the
// destination acknowledges it.
func (c *Comm) SendTagged(dst int, h HandlerID, data any, size int, tag int) {
	m := c.newMsg(substrate.Msg{Dst: dst, Kind: int(h), Tag: tag, Data: data, Size: size})
	c.sequence(m)
	c.p.Send(m, substrate.CatMessaging)
}

// dispatch runs the handler named by m, then recycles m: a handler sees the
// payload, never the message.
func (c *Comm) dispatch(m *substrate.Msg) {
	c.p.Advance(dispatchCPU, substrate.CatCallback)
	c.handlers[m.Kind](c, m.Src, m.Data, m.Size)
	c.recycle(m)
}

// Poll receives and dispatches every queued message, returning the number
// dispatched. This is the explicit polling operation of the PREMA model:
// both application- and system-generated messages are processed. In
// reliable mode Poll also ticks the protocol: due acks are flushed and
// expired streams retransmitted.
func (c *Comm) Poll() int { return c.poll(0, true) }

// PollTag dispatches every queued message carrying tag, leaving other
// traffic untouched. It returns the number dispatched. PollTag with
// substrate.TagSystem is the core of implicit (preemptive) load balancing:
// the polling thread drains balancer messages without delivering application
// messages, preserving PREMA's single-threaded application model (§4.2).
// In reliable mode, messages of other tags still move through the protocol
// (dedup, ordering, acks) but stay queued for a later matching poll, so
// preemptive balancing never leaks an application message — and the
// polling thread doubles as the retransmission timer.
func (c *Comm) PollTag(tag int) int { return c.poll(tag, false) }

// poll is Poll (anyTag) and PollTag: dispatch until nothing deliverable is
// left, then tick the protocol.
func (c *Comm) poll(tag int, anyTag bool) int {
	n := 0
	for m := c.next(tag, anyTag); m != nil; m = c.next(tag, anyTag) {
		c.dispatch(m)
		n++
	}
	c.tick()
	return n
}

// next returns the next deliverable message (of tag unless anyTag), or nil.
// Fire-and-forget mode takes it straight off the endpoint; reliable mode
// runs the inbox through the protocol first.
func (c *Comm) next(tag int, anyTag bool) *substrate.Msg {
	switch {
	case c.rel != nil:
		c.pump()
		if anyTag {
			return c.rel.ready.Pop()
		}
		return c.rel.ready.PopTag(tag)
	case anyTag:
		return c.p.TryRecv(substrate.CatMessaging)
	default:
		return c.p.TryRecvTag(tag, substrate.CatMessaging)
	}
}

// WaitPoll blocks until at least one message is dispatched (attributing the
// wait to cat, normally substrate.CatIdle), then polls everything queued.
// In reliable mode an arrival that turns out to be a duplicate or an ack
// dispatches nothing, so the wait continues — bounded by the protocol's
// own retransmission deadlines.
func (c *Comm) WaitPoll(cat substrate.Category) int { return c.waitPoll(substrate.Never, cat) }

// WaitPollFor blocks until a message arrives or d elapses, then polls. It
// returns the number of messages dispatched.
//
// A zero or negative d never blocks: the call degenerates to a plain Poll
// of whatever is already queued, on every backend. In reliable mode the wait
// also wakes for retransmission deadlines, so an idle processor blocked
// here — ilb's idle loop — keeps the protocol moving even when nothing
// arrives.
func (c *Comm) WaitPollFor(d substrate.Time, cat substrate.Category) int {
	return c.waitPoll(c.p.Now()+d, cat)
}

// waitPoll polls until something is dispatched or the clock reaches
// deadline (substrate.Never: no deadline), blocking in between.
func (c *Comm) waitPoll(deadline substrate.Time, cat substrate.Category) int {
	for {
		if n := c.Poll(); n > 0 {
			return n
		}
		now := c.p.Now()
		if now >= deadline {
			return 0
		}
		c.block(now, deadline, cat)
	}
}

// block waits, from now, for a message until the earlier of until
// (substrate.Never: unbounded) and the protocol's next retransmission
// deadline, attributing the wait to cat. A deadline already due does not
// wait at all: tick reads the clock once, and its own sends can carry it past
// a stream's deadline, which the caller's next poll then serves.
func (c *Comm) block(now, until substrate.Time, cat substrate.Category) {
	until = min(until, c.nextDeadline())
	switch {
	case until == substrate.Never:
		c.p.WaitMsg(cat)
	case until > now:
		c.p.WaitMsgFor(until-now, cat)
	}
}
