package dmcs

import (
	"slices"

	"prema/internal/substrate"
	"prema/internal/trace"
)

// This file implements DMCS's reliable-delivery mode: an ARQ protocol that
// makes the active-message layer survive a lossy transport (message drop,
// duplication, reordering, and delay — the faults internal/faulty injects).
//
// Protocol summary:
//
//   - Every (peer, tag) pair is an independent *stream*. Streams are
//     per-tag so that PREMA's preemptive polling (PollTag with TagSystem)
//     keeps working: a system-tagged balancer message never waits behind an
//     undelivered application message.
//   - Data messages carry per-stream sequence numbers (1, 2, 3, ...) in
//     Msg.Seq. The receiver delivers a stream strictly in sequence order,
//     buffering out-of-order arrivals and discarding duplicates, so every
//     handler runs exactly once per logical send, in per-stream FIFO order
//     — the same guarantee the substrate itself gives on a perfect network.
//   - Receivers acknowledge with cumulative acks (highest in-sequence
//     sequence number), flushed at the end of every poll that consumed or
//     re-observed stream data. An ack is a header-only control message
//     (Kind = ackKind, system-tagged): Msg.Seq holds the cumulative
//     sequence number, the way TCP's ack number sits in its header, and
//     Msg.Data the acked stream's tag as a plain int. Acks may themselves
//     be lost; a later ack or a retransmission-triggered re-ack repairs
//     that.
//   - Senders buffer unacked messages and retransmit the head of the unacked
//     window (up to retransmitBurst messages) when a per-stream deadline
//     expires, doubling the timeout up to RTOMax (capped exponential
//     backoff) and resetting it on forward progress. Retransmission is
//     driven entirely off the existing poll loop — Poll/PollTag/WaitPollFor
//     tick the protocol — so an idle processor blocked in ilb's idle-tick
//     WaitPollFor wakes and retransmits without any dedicated thread.
//
// All protocol CPU is charged through the normal substrate categories
// (sends and receives to CatMessaging), so a faulted run's extra cost shows
// up in the same per-processor ledgers the paper's figures plot.

// ackKind is the reserved Msg.Kind of cumulative-ack control messages.
// Handler IDs are non-negative, so the spaces cannot collide.
const ackKind = -1

// ackBytes models the wire size of an ack control message.
const ackBytes = 16

// RelConfig tunes reliable-delivery mode.
type RelConfig struct {
	// Enabled switches the protocol on. A zero RelConfig leaves DMCS in its
	// classic fire-and-forget mode with byte-identical behaviour to earlier
	// revisions.
	Enabled bool
	// RTO is the initial per-stream retransmission timeout.
	RTO substrate.Time
	// RTOMax caps the exponential backoff.
	RTOMax substrate.Time
	// Linger is how long Quiesce keeps polling-and-acking after the last
	// protocol activity, so peers' retransmissions still get acked during
	// shutdown.
	Linger substrate.Time
	// DrainTimeout hard-bounds Quiesce; a crashed peer that will never ack
	// cannot hold shutdown hostage beyond this.
	DrainTimeout substrate.Time
}

// DefaultRelConfig returns the tuning used by the chaos experiments.
func DefaultRelConfig() RelConfig {
	return RelConfig{
		Enabled:      true,
		RTO:          50 * substrate.Millisecond,
		RTOMax:       1 * substrate.Second,
		Linger:       200 * substrate.Millisecond,
		DrainTimeout: 60 * substrate.Second,
	}
}

// retransmitBurst caps how many unacked messages a single stream resends per
// timeout. Plain go-back-N resends the whole window, which on a slow or
// stalled receiver turns every timeout into a message storm that can starve
// the very acks that would stop it; capping keeps the protocol stable (the
// head of the window is always resent, so progress is preserved).
const retransmitBurst = 16

// RelStats counts reliable-mode protocol activity on one endpoint.
type RelStats struct {
	// DataSent is the number of first transmissions of sequenced messages.
	DataSent int
	// Retransmits is the number of data retransmissions.
	Retransmits int
	// Timeouts is the number of per-stream RTO expiries.
	Timeouts int
	// AcksSent and AcksRecv count cumulative-ack control messages.
	AcksSent, AcksRecv int
	// DupDropped is the number of received duplicates discarded.
	DupDropped int
	// Held is the number of out-of-order arrivals buffered for reordering.
	Held int
	// DeadDropped is the number of buffered unacked messages discarded when
	// their destination was declared dead (MarkDead).
	DeadDropped int
	// DeadSent counts messages sent to a dead-marked peer as unsequenced
	// fire-and-forget transmissions (delivered iff the peer rejoins in time).
	DeadSent int
}

// stream identifies one direction of one traffic class to/from one peer.
type stream struct {
	peer int
	tag  int
}

// sendState is the sender half of a stream.
type sendState struct {
	stream
	nextSeq  uint64 // sequence number of the next new message (first = 1)
	pending  []pendingMsg
	rto      substrate.Time // current (backed-off) timeout
	deadline substrate.Time // retransmit time; 0 = nothing outstanding
}

// pendingMsg is an unacked message kept for retransmission. Each
// (re)transmission sends its own substrate.Msg — a delivered message is
// owned by the receiver and must never be resent.
type pendingMsg struct {
	seq  uint64
	kind int
	data any
	size int
}

// recvState is the receiver half of a stream.
type recvState struct {
	stream
	next   uint64 // next expected sequence number (first = 1)
	hold   map[uint64]*substrate.Msg
	ackDue bool
}

// reliable is the per-endpoint protocol state.
type reliable struct {
	cfg RelConfig

	send map[stream]*sendState
	recv map[stream]*recvState
	// sendOrder and recvOrder list the streams in creation order: iteration
	// must be deterministic (map order would leak host randomness into the
	// simulator), and a poll with an ack or a retransmission due walks them,
	// so they hold the states themselves rather than keys to look up.
	sendOrder []*sendState
	recvOrder []*recvState

	// ready holds in-sequence messages awaiting dispatch, in release order.
	ready []*substrate.Msg

	// acksDue counts the receive streams with ackDue set, and due is the
	// earliest send-stream deadline (substrate.Never for none) unless
	// dueStale, so a poll walks recvOrder or sendOrder only when something
	// in it is due (see setDeadline and earliest).
	acksDue  int
	due      substrate.Time
	dueStale bool

	// dead marks peers under a fail-stop verdict: no buffering, no
	// retransmission, no sequencing toward them (see Comm.MarkDead).
	dead map[int]bool

	// lastActivity is the time of the most recent protocol event (arrival,
	// ack, retransmission); Quiesce lingers relative to it.
	lastActivity substrate.Time

	stats RelStats
}

// EnableReliable switches the endpoint into reliable-delivery mode. Call it
// immediately after New, before any traffic flows; every processor must
// agree (SPMD discipline, as for handler registration).
func (c *Comm) EnableReliable(cfg RelConfig) {
	if !cfg.Enabled {
		return
	}
	def := DefaultRelConfig()
	if cfg.RTO <= 0 {
		cfg.RTO = def.RTO
	}
	if cfg.RTOMax < cfg.RTO {
		cfg.RTOMax = def.RTOMax
	}
	if cfg.RTOMax < cfg.RTO {
		cfg.RTOMax = cfg.RTO
	}
	if cfg.Linger <= 0 {
		cfg.Linger = def.Linger
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = def.DrainTimeout
	}
	c.rel = &reliable{
		cfg:  cfg,
		send: make(map[stream]*sendState),
		recv: make(map[stream]*recvState),
		due:  substrate.Never,
	}
}

// Reliable reports whether reliable-delivery mode is on.
func (c *Comm) Reliable() bool { return c.rel != nil }

// RelStats returns a snapshot of the reliable-protocol counters (zero value
// when the mode is off).
func (c *Comm) RelStats() RelStats {
	if c.rel == nil {
		return RelStats{}
	}
	return c.rel.stats
}

func (r *reliable) sendStream(peer, tag int) *sendState {
	k := stream{peer, tag}
	st, ok := r.send[k]
	if !ok {
		st = &sendState{stream: k, nextSeq: 1, rto: r.cfg.RTO}
		r.send[k] = st
		r.sendOrder = append(r.sendOrder, st)
	}
	return st
}

func (r *reliable) recvStream(peer, tag int) *recvState {
	k := stream{peer, tag}
	st, ok := r.recv[k]
	if !ok {
		st = &recvState{stream: k, next: 1, hold: make(map[uint64]*substrate.Msg)}
		r.recv[k] = st
		r.recvOrder = append(r.recvOrder, st)
	}
	return st
}

// MarkDead records a fail-stop verdict for peer: all unacked messages
// buffered toward it are discarded (they will never be acked — counted in
// RelStats.DeadDropped) and both stream directions are forgotten, so Quiesce
// no longer waits out DrainTimeout for a processor that cannot answer.
// Subsequent sends to the peer go out once, unsequenced (see sequence), which
// is exactly the fire-and-forget semantics a dead destination deserves —
// and still reaches the peer if it rejoins before the message is consumed.
// No-op in fire-and-forget mode or when the peer is already marked.
func (c *Comm) MarkDead(peer int) {
	r := c.rel
	if r == nil || r.dead[peer] {
		return
	}
	if r.dead == nil {
		r.dead = make(map[int]bool)
	}
	r.dead[peer] = true
	r.dropPeerState(peer)
}

// MarkAlive clears a peer's dead verdict after it rejoins. The stream state
// toward the peer was already dropped at MarkDead and nothing sequenced was
// buffered since, so both sides naturally restart their streams at sequence
// 1: our next send lazily creates a fresh stream, and the rejoined
// processor's fresh Comm did the same for its own sends (its hello message,
// which triggers this call, already advanced our fresh receive stream — which
// is why no state must be dropped here). Stale in-flight messages from the
// crashed incarnation can recreate receive state early with old sequence
// numbers held; the MOL/ILB per-origin watermarks discard those if the
// rejoined stream ever reaches them.
func (c *Comm) MarkAlive(peer int) {
	r := c.rel
	if r == nil || !r.dead[peer] {
		return
	}
	delete(r.dead, peer)
}

// dropPeerState forgets all send and receive stream state toward peer.
func (r *reliable) dropPeerState(peer int) {
	sends := r.sendOrder[:0]
	for _, st := range r.sendOrder {
		if st.peer == peer {
			r.stats.DeadDropped += len(st.pending)
			r.setDeadline(st, 0)
			delete(r.send, st.stream)
			continue
		}
		sends = append(sends, st)
	}
	r.sendOrder = sends
	recvs := r.recvOrder[:0]
	for _, st := range r.recvOrder {
		if st.peer == peer {
			if st.ackDue {
				r.acksDue--
			}
			delete(r.recv, st.stream)
			continue
		}
		recvs = append(recvs, st)
	}
	r.recvOrder = recvs
}

// sequence numbers a new data message about to be sent and buffers it for
// retransmission. Fire-and-forget mode leaves it unsequenced, and so does a
// dead destination: it is transmitted once (the receiving side's accept()
// passes Seq==0 straight through) and nothing is buffered.
func (c *Comm) sequence(m *substrate.Msg) {
	r := c.rel
	if r == nil {
		return
	}
	if r.dead[m.Dst] {
		r.stats.DeadSent++
		return
	}
	st := r.sendStream(m.Dst, m.Tag)
	m.Seq = st.nextSeq
	st.nextSeq++
	st.pending = append(st.pending, pendingMsg{seq: m.Seq, kind: m.Kind, data: m.Data, size: m.Size})
	if st.deadline == 0 {
		r.setDeadline(st, c.p.Now()+st.rto)
	}
	r.stats.DataSent++
}

// setDeadline moves st's retransmission deadline to at (0 clears it) and
// keeps the cached earliest deadline exact: an earlier deadline lowers it,
// and clearing or postponing the deadline that held it leaves it stale for
// earliest to recompute.
func (r *reliable) setDeadline(st *sendState, at substrate.Time) {
	old := st.deadline
	st.deadline = at
	switch {
	case r.dueStale:
	case at != 0 && at <= r.due:
		r.due = at
	case old == r.due:
		r.dueStale = true
	}
}

// earliest returns the earliest retransmission deadline of any stream, or
// substrate.Never, walking sendOrder only when the cached value is stale.
func (r *reliable) earliest() substrate.Time {
	if r.dueStale {
		r.due = substrate.Never
		for _, st := range r.sendOrder {
			if st.deadline != 0 && st.deadline < r.due {
				r.due = st.deadline
			}
		}
		r.dueStale = false
	}
	return r.due
}

// pump drains the substrate inbox through the protocol: acks update sender
// state, sequenced data is deduplicated and released in order onto the
// ready queue.
func (c *Comm) pump() {
	for {
		m := c.p.TryRecv(substrate.CatMessaging)
		if m == nil {
			return
		}
		c.accept(m)
	}
}

// accept runs one received message through the receiver state machine.
func (c *Comm) accept(m *substrate.Msg) {
	r := c.rel
	r.lastActivity = c.p.Now()
	if m.Kind == ackKind {
		// "For your stream tagged Data toward me, I have everything
		// through Seq."
		r.stats.AcksRecv++
		st := r.sendStream(m.Src, m.Data.(int))
		before := len(st.pending)
		i := 0
		for i < len(st.pending) && st.pending[i].seq <= m.Seq {
			i++
		}
		if i > 0 {
			// Copy the survivors down so the window keeps its array and
			// pins no acked payload.
			n := copy(st.pending, st.pending[i:])
			clear(st.pending[n:])
			st.pending = st.pending[:n]
		}
		if len(st.pending) < before {
			// Forward progress: reset the backoff.
			st.rto = r.cfg.RTO
			if len(st.pending) == 0 {
				r.setDeadline(st, 0)
			} else {
				r.setDeadline(st, c.p.Now()+st.rto)
			}
		}
		c.recycle(m)
		return
	}
	if m.Seq == 0 {
		// Unsequenced message: its only source is a peer's send while it had
		// this processor marked dead (sequence, counted in DeadSent). Pass it
		// through as-is.
		r.ready = append(r.ready, m)
		return
	}
	st := r.recvStream(m.Src, m.Tag)
	if !st.ackDue {
		st.ackDue = true
		r.acksDue++
	}
	switch {
	case m.Seq == st.next:
		r.ready = append(r.ready, m)
		st.next++
		for {
			h, ok := st.hold[st.next]
			if !ok {
				break
			}
			delete(st.hold, st.next)
			r.ready = append(r.ready, h)
			st.next++
		}
	case m.Seq > st.next:
		if _, dup := st.hold[m.Seq]; dup {
			r.stats.DupDropped++
			c.recycle(m)
		} else {
			r.stats.Held++
			st.hold[m.Seq] = m
		}
	default:
		// Already delivered: a network duplicate or a retransmission that
		// crossed our ack. Re-ack so the sender stops resending.
		r.stats.DupDropped++
		c.recycle(m)
	}
}

// popReady removes and returns the oldest ready message (filtered by tag
// unless anyTag), or nil.
func (c *Comm) popReady(tag int, anyTag bool) *substrate.Msg {
	for i, m := range c.rel.ready {
		if anyTag || m.Tag == tag {
			c.rel.ready = slices.Delete(c.rel.ready, i, i+1)
			return m
		}
	}
	return nil
}

// tick advances the protocol clockwork: flush due acks, retransmit expired
// streams. It is called at the end of every poll operation, which is what
// "retransmission driven off the poll loop" means — no timers, no threads.
// Acks go out in recvOrder and retransmissions in sendOrder, whose send
// sequence orders their deliveries; a walk stops after the last due ack and
// skips sendOrder while no deadline has passed. Fire-and-forget mode has no
// clockwork.
func (c *Comm) tick() {
	r := c.rel
	if r == nil {
		return
	}
	now := c.p.Now()
	for _, st := range r.recvOrder {
		if r.acksDue == 0 {
			break
		}
		if !st.ackDue {
			continue
		}
		st.ackDue = false
		r.acksDue--
		r.stats.AcksSent++
		c.p.Send(c.newMsg(substrate.Msg{
			Dst:  st.peer,
			Kind: ackKind,
			Tag:  substrate.TagSystem,
			Data: st.tag, // a tag is below 256: boxing it allocates nothing
			Size: ackBytes,
			Seq:  st.next - 1,
		}), substrate.CatMessaging)
	}
	if now < r.earliest() {
		return
	}
	for _, st := range r.sendOrder {
		if st.deadline == 0 || now < st.deadline || len(st.pending) == 0 {
			continue
		}
		r.stats.Timeouts++
		r.lastActivity = now
		burst := st.pending
		if len(burst) > retransmitBurst {
			burst = burst[:retransmitBurst]
		}
		for _, pm := range burst {
			r.stats.Retransmits++
			c.tr.Instant(trace.EvRetransmit, now, int64(st.peer), int64(st.tag), int64(pm.seq))
			c.p.Send(c.newMsg(substrate.Msg{
				Dst:  st.peer,
				Kind: pm.kind,
				Tag:  st.tag,
				Data: pm.data,
				Size: pm.size,
				Seq:  pm.seq,
			}), substrate.CatMessaging)
		}
		st.rto *= 2
		if st.rto > r.cfg.RTOMax {
			st.rto = r.cfg.RTOMax
		}
		r.setDeadline(st, c.p.Now()+st.rto)
	}
}

// nextDeadline returns the earliest pending retransmission deadline, or
// substrate.Never — always Never in fire-and-forget mode.
func (c *Comm) nextDeadline() substrate.Time {
	if c.rel == nil {
		return substrate.Never
	}
	return c.rel.earliest()
}

// NextDeadline returns the time before which PollTag(tag) does nothing
// unless a message arrives: now when a released message of that tag or an
// ack is still waiting (a poll is pending inside a handler), else the
// earliest retransmission deadline, else substrate.Never — which is also
// the answer in fire-and-forget mode, where an empty poll never acts. It is
// the WakeBy of a polled advance (substrate.PollSpec).
func (c *Comm) NextDeadline(tag int) substrate.Time {
	r := c.rel
	if r == nil {
		return substrate.Never
	}
	for _, m := range r.ready {
		if m.Tag == tag {
			return c.p.Now()
		}
	}
	if r.acksDue > 0 {
		return c.p.Now()
	}
	return r.earliest()
}

// hasPending reports whether any stream still has unacked data.
func (r *reliable) hasPending() bool {
	for _, st := range r.sendOrder {
		if len(st.pending) > 0 {
			return true
		}
	}
	return false
}

// Quiesce drains the reliable protocol at shutdown: it keeps polling,
// acking, and retransmitting until every locally sent message has been
// acknowledged and the link has been quiet for Linger, or until
// DrainTimeout expires (a crashed peer never acks). Without this, a
// processor that exits the instant its application loop stops would strand
// its final sends — including the termination broadcast itself — the first
// time the network dropped one. It is a no-op in fire-and-forget mode.
func (c *Comm) Quiesce() {
	if c.rel == nil {
		return
	}
	r := c.rel
	start := c.p.Now()
	hard := start + r.cfg.DrainTimeout
	if r.lastActivity < start {
		r.lastActivity = start
	}
	for {
		c.Poll() // pump + dispatch stragglers + tick (acks, retransmits)
		now := c.p.Now()
		if now >= hard {
			return
		}
		idle := !r.hasPending()
		if idle && now-r.lastActivity >= r.cfg.Linger {
			return
		}
		until := hard
		if linger := r.lastActivity + r.cfg.Linger; idle && linger < until {
			until = linger
		}
		c.block(now, until, substrate.CatIdle)
	}
}
