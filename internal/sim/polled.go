package sim

import "prema/internal/substrate"

// This file is the simulator's exact poll elision (Endpoint.AdvancePolled):
// a processor computing under a polling thread parks once per quiet stretch,
// on one wake, instead of firing a compute wake and a poll wake every
// PollSpec.Interval. The wake is moved to an earlier poll boundary only when
// a poll there would find something to do, and on resume the skipped empty
// polls are charged arithmetically — clock and Account end up exactly where
// the stepped loop (substrate.StepPolled) leaves them. The engine records no
// spans: trace.Endpoint.AdvancePolled replays the elided polls into the one
// trace stream from the (done, polls) returned here.

// polledPark is the state of one AdvancePolled call while its processor is
// parked: the advance's poll grid, and when the processor is currently due
// back — the grid's End, or an earlier c_j.
type polledPark struct {
	substrate.PollGrid
	target Time
}

// AdvancePolled implements substrate.Endpoint. The processor parks on
// one wake at its target: the end of the advance, or the first poll boundary
// c_j at which a matching message is queued or ps.WakeBy has passed.
// Deliveries that land while it is parked move the wake forward
// (pollArrival); it fires once, and an interrupted advance leaves nothing
// behind in the heap. It declines when there is nothing to skip or it is
// told to step.
func (p *Proc) AdvancePolled(d Time, ps substrate.PollSpec) (done Time, polls int) {
	if !ps.Elides(d, p.now) {
		return 0, 0
	}
	pk := &p.poll
	pk.PollGrid = substrate.NewPollGrid(p.now, d, ps)
	queued := substrate.Never
	if p.inbox.Peek(ps) != nil {
		queued = p.now
	}
	pk.target = pk.Due(queued)

	// As in Advance: when no event can move the wake-up, move the clock in
	// place. No delivery lands before the target, so none would pull it
	// forward.
	if p.skipTo(pk.target) {
		return p.settlePolled()
	}
	p.sh.atWake(pk.target, p)
	p.polled = true
	alive := p.yield(struct{}{})
	p.polled = false
	done, polls = p.settlePolled()
	if !alive {
		panic(errKilled)
	}
	return done, polls
}

// pollArrival is shard.deliver's hook for a processor parked in a polled
// advance: a matching message moves the wake forward to the first poll that
// will see it; its ordering key, the processor's, stays. Deliveries sort
// before local events at equal times, so a message arriving exactly at c_j
// is seen by poll j, as in the stepped loop.
func (p *Proc) pollArrival(m *Msg) {
	pk := &p.poll
	if !pk.Spec.Matches(m) {
		return
	}
	s := p.sh
	if c := pk.AtOrAfter(s.now); c < pk.target {
		pk.target = c
		s.heap.Earlier(int(p.hidx), c)
	}
}

// settlePolled charges the part of the parked advance that lies behind the
// processor's clock (substrate.PollGrid.Settle): every completed slice to
// CatCompute, every completed poll to CatPollThread. A normal resume lands
// on a poll boundary or on the end; only a processor torn down mid-advance
// sees anything else.
func (p *Proc) settlePolled() (done Time, polls int) {
	pk := &p.poll
	done, polls = pk.Settle(p.now)
	p.acct[CatCompute] += done
	p.acct[CatPollThread] += Time(polls) * pk.Spec.Cost
	p.sh.elided += uint64(polls)
	return done, polls
}
