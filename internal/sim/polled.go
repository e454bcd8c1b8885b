package sim

import "prema/internal/substrate"

// This file is the simulator's exact poll elision (substrate.PolledAdvancer):
// a processor computing under a polling thread parks once per quiet stretch
// instead of firing a compute wake and a poll wake every PollSpec.Interval.
// The processor's wake-up is moved to a poll boundary only when a poll there
// would find something to do, and on resume the skipped empty polls are
// charged arithmetically — clock and Account end up exactly where the
// stepped loop (substrate.StepPolled) leaves them. The engine records no
// spans: trace.Endpoint.AdvancePolled replays the elided polls into the one
// trace stream from the (done, polls) returned here.

// polledPark is the state of one AdvancePolled call while its processor is
// parked: the advance's poll grid, and when the processor is currently due
// back — the grid's End, or an earlier c_j.
type polledPark struct {
	substrate.PollGrid
	target Time
}

var _ substrate.PolledAdvancer = (*Proc)(nil)

// AdvancePolled implements substrate.PolledAdvancer. The processor parks
// until the end of the advance, or until the first poll boundary c_j at
// which a matching message is queued or ps.WakeBy has passed; deliveries
// that land while it is parked pull the wake-up forward (shard.deliver).
//
// At most one end-of-advance event per processor is ever in the heap. An
// interrupted advance leaves its end event behind; the re-entered advance —
// whose end can only be later, since handling the interruption took time —
// adopts it instead of pushing another, and the event loop re-arms it for
// the current end when it fires early. A victim interrupted thousands of
// times inside one work unit would otherwise keep thousands of dead events
// alive.
func (p *Proc) AdvancePolled(d Time, ps substrate.PollSpec) (done Time, polls int) {
	s := p.sh
	if !ps.Elides(d, s.now) {
		return substrate.StepPolled(p, d, ps) // nothing to skip, or told to step
	}
	pk := &p.poll
	pk.PollGrid = substrate.NewPollGrid(s.now, d, ps)
	queued := substrate.Never
	if ps.AnyTag && p.inbox.Len() > 0 || !ps.AnyTag && p.hasMsg(ps.Tag) {
		queued = s.now
	}
	pk.target = pk.Due(queued)

	p.waitGen++
	// Fast path, as in Advance: the wake would be the next event popped.
	if pk.target < s.end && s.err == nil &&
		(len(s.heap.e) == 0 || pk.target < s.heap.e[0].at) {
		s.now = pk.target
		s.fired++
		return p.settlePolled()
	}
	switch {
	case pk.target < pk.End:
		s.atWake(pk.target-s.now, p, p.waitGen)
	case p.endAt == 0:
		ev := s.alloc()
		ev.kind = evPollEnd
		ev.proc = p
		s.heap.Push(pk.End, s.ordNext(), ev)
		p.endAt = pk.End
	case p.endAt > pk.End:
		// Only a caller that re-enters with less compute than it left with
		// gets here: the queued end event is too late to serve this advance.
		s.atWake(pk.End-s.now, p, p.waitGen)
	}
	p.polled, p.blocked = true, true
	alive := p.yield(struct{}{})
	p.polled, p.blocked = false, false
	done, polls = p.settlePolled()
	if !alive {
		panic(errKilled)
	}
	return done, polls
}

// pollArrival is shard.deliver's hook for a processor parked in a polled
// advance: a matching message pulls the wake-up forward to the first poll
// that will see it. Deliveries sort before local events at equal times, so a
// message arriving exactly at c_j is seen by poll j, as in the stepped loop.
// Unlike a beaten wait timeout (shard.deliver), the wake this supersedes is
// not removed: it fails the waitGen check or, if it is the end event, is
// re-armed when it fires. Such wakes are rare — the paper-scale Figure 3
// run leaves none; every dead wake it used to fire was a wait timeout.
func (p *Proc) pollArrival(m *Msg) {
	pk := &p.poll
	if !pk.Spec.Matches(m) {
		return
	}
	if c := pk.AtOrAfter(p.sh.now); c < pk.target {
		pk.target = c
		p.sh.atWake(c-p.sh.now, p, p.waitGen)
	}
}

// firePollEnd handles a processor's end-of-advance event. It reports whether
// the event was re-armed (and so must not be released).
func (s *shard) firePollEnd(ev *event) (rearmed bool) {
	p := ev.proc
	if p.polled && s.now < p.poll.End {
		p.endAt = p.poll.End
		s.heap.Push(p.endAt, s.ordNext(), ev)
		return true
	}
	p.endAt = 0
	if p.polled {
		s.transfer(p)
	}
	return false
}

// settlePolled charges the part of the parked advance that lies behind the
// clock (substrate.PollGrid.Settle): every completed slice to CatCompute,
// every completed poll to CatPollThread. A normal resume lands on a poll
// boundary or on the end; only a processor torn down mid-advance sees
// anything else.
func (p *Proc) settlePolled() (done Time, polls int) {
	pk := &p.poll
	done, polls = pk.Settle(p.sh.now)
	p.acct[CatCompute] += done
	p.acct[CatPollThread] += Time(polls) * pk.Spec.Cost
	p.sh.elided += uint64(polls)
	return done, polls
}
