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
// parked. Poll j (1..last) checks the inbox at c_j = t0 + j*period.
type polledPark struct {
	spec   substrate.PollSpec
	t0     Time // entry time
	d      Time // compute requested
	period Time // spec.Interval + spec.Cost
	last   int  // K: polls the whole advance holds
	end    Time // t0 + d + K*Cost
	target Time // when the processor is currently due back: end, or an earlier c_j
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
	if ps.Interval <= 0 || d <= ps.Interval || ps.WakeBy <= s.now {
		return substrate.StepPolled(p, d, ps) // nothing to skip, or told to step
	}
	pk := &p.poll
	*pk = polledPark{spec: ps, t0: s.now, d: d, period: ps.Interval + ps.Cost, last: int((d - 1) / ps.Interval)}
	pk.end = s.now + d + Time(pk.last)*ps.Cost
	pk.target = pk.end
	switch {
	case ps.AnyTag && p.inbox.Len() > 0, !ps.AnyTag && p.hasMsg(ps.Tag):
		pk.target = pk.boundary(1)
	case ps.WakeBy < pk.end:
		pk.target = pk.boundaryAtOrAfter(ps.WakeBy)
	}

	p.waitGen++
	// Fast path, as in Advance: the wake would be the next event popped.
	if pk.target < s.end && s.err == nil &&
		(len(s.heap.e) == 0 || pk.target < s.heap.e[0].at) {
		s.now = pk.target
		s.fired++
		return p.settlePolled()
	}
	switch {
	case pk.target < pk.end:
		s.atWake(pk.target-s.now, p, p.waitGen)
	case p.endAt == 0:
		ev := s.alloc()
		ev.kind = evPollEnd
		ev.proc = p
		s.heap.Push(pk.end, s.ordNext(), ev)
		p.endAt = pk.end
	case p.endAt > pk.end:
		// Only a caller that re-enters with less compute than it left with
		// gets here: the queued end event is too late to serve this advance.
		s.atWake(pk.end-s.now, p, p.waitGen)
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

// boundary returns c_j, or the end of the advance when j is past the last
// poll.
func (pk *polledPark) boundary(j int) Time {
	if j > pk.last {
		return pk.end
	}
	return pk.t0 + Time(j)*pk.period
}

// boundaryAtOrAfter returns the smallest c_j >= t (t >= t0).
func (pk *polledPark) boundaryAtOrAfter(t Time) Time {
	j := int((t - pk.t0 + pk.period - 1) / pk.period)
	if j < 1 {
		j = 1
	}
	return pk.boundary(j)
}

// pollArrival is shard.deliver's hook for a processor parked in a polled
// advance: a matching message pulls the wake-up forward to the first poll
// that will see it. Deliveries sort before local events at equal times, so a
// message arriving exactly at c_j is seen by poll j, as in the stepped loop.
// The superseded wake (or end event) stays behind and is ignored or re-armed
// when it fires.
func (p *Proc) pollArrival(m *Msg) {
	pk := &p.poll
	if !pk.spec.AnyTag && m.Tag != pk.spec.Tag {
		return
	}
	if c := pk.boundaryAtOrAfter(p.sh.now); c < pk.target {
		pk.target = c
		p.sh.atWake(c-p.sh.now, p, p.waitGen)
	}
}

// firePollEnd handles a processor's end-of-advance event. It reports whether
// the event was re-armed (and so must not be released).
func (s *shard) firePollEnd(ev *event) (rearmed bool) {
	p := ev.proc
	if p.polled && s.now < p.poll.end {
		p.endAt = p.poll.end
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
// clock: every completed slice to CatCompute, every completed poll to
// CatPollThread. A normal resume lands on a poll boundary or on the end;
// only a processor torn down mid-advance sees anything else, and is charged
// what it finished.
func (p *Proc) settlePolled() (done Time, polls int) {
	s, pk := p.sh, &p.poll
	interval, cost := pk.spec.Interval, pk.spec.Cost
	if s.now >= pk.end {
		done, polls = pk.d, pk.last
	} else {
		polls = int((s.now - pk.t0) / pk.period)
		done = Time(polls) * interval
		if s.now-pk.t0-Time(polls)*pk.period >= interval {
			done += interval // torn down between a slice's end and its poll's
		}
	}
	p.acct[CatCompute] += done
	p.acct[CatPollThread] += Time(polls) * cost
	s.elided += uint64(polls)
	return done, polls
}
