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
	hidx     int            // slot in reliable.deadlines; -1 while deadline is 0
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
	ord  uint64 // creation rank: recvOrder lists the streams by it
	next uint64 // next expected sequence number (first = 1)
	// hold buffers out-of-order arrivals by sequence number; it is made at
	// the stream's first one.
	hold   map[uint64]*substrate.Msg
	ackDue bool
}

// peerStreams holds the streams to and from one peer, one per tag in use
// (PREMA uses two), so finding a stream scans at most a few entries.
type peerStreams struct {
	send []*sendState
	recv []*recvState
}

// reliable is the per-endpoint protocol state.
type reliable struct {
	cfg RelConfig

	// peers[p] holds the streams to and from peer p; one per processor of
	// the machine.
	peers []peerStreams
	// sendOrder and recvOrder list the streams in creation order: iteration
	// must be deterministic, and retransmissions go out in sendOrder.
	sendOrder []*sendState
	recvOrder []*recvState
	made      uint64 // receive streams created so far (the next ord)

	// ready holds in-sequence messages awaiting dispatch, in release order.
	ready substrate.Queue[substrate.Arrival]

	// acks lists the receive streams with ackDue set, in recvOrder order, so
	// a poll flushes exactly the due acks without walking recvOrder, and
	// deadlines holds the send streams with a deadline in a min-heap by it,
	// so a poll walks sendOrder only when something in it is due (see
	// setDeadline and earliest).
	acks      []*recvState
	deadlines deadlineHeap

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
		cfg:   cfg,
		peers: make([]peerStreams, c.p.NumPeers()),
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
	ps := &r.peers[peer]
	for _, st := range ps.send {
		if st.tag == tag {
			return st
		}
	}
	st := &sendState{stream: stream{peer, tag}, nextSeq: 1, rto: r.cfg.RTO, hidx: -1}
	ps.send = append(ps.send, st)
	r.sendOrder = append(r.sendOrder, st)
	return st
}

func (r *reliable) recvStream(peer, tag int) *recvState {
	ps := &r.peers[peer]
	for _, st := range ps.recv {
		if st.tag == tag {
			return st
		}
	}
	st := &recvState{stream: stream{peer, tag}, ord: r.made, next: 1}
	r.made++
	ps.recv = append(ps.recv, st)
	r.recvOrder = append(r.recvOrder, st)
	return st
}

// markAckDue marks st's ack due, keeping acks in recvOrder order: a stream
// usually falls due after those created before it, so the insertion scan
// stops at once.
func (r *reliable) markAckDue(st *recvState) {
	if st.ackDue {
		return
	}
	st.ackDue = true
	r.acks = append(r.acks, st)
	for i := len(r.acks) - 1; i > 0 && r.acks[i-1].ord > st.ord; i-- {
		r.acks[i-1], r.acks[i] = st, r.acks[i-1]
	}
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

// dropPeerState forgets all send and receive stream state toward peer: its
// slots, its entries in the creation orders and its due acks.
func (r *reliable) dropPeerState(peer int) {
	ps := &r.peers[peer]
	for _, st := range ps.send {
		r.stats.DeadDropped += len(st.pending)
		r.setDeadline(st, 0)
	}
	*ps = peerStreams{}
	r.sendOrder = slices.DeleteFunc(r.sendOrder, func(st *sendState) bool { return st.peer == peer })
	r.recvOrder = slices.DeleteFunc(r.recvOrder, func(st *recvState) bool { return st.peer == peer })
	r.acks = slices.DeleteFunc(r.acks, func(st *recvState) bool { return st.peer == peer })
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
	if len(r.dead) > 0 && r.dead[m.Dst] {
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

// setDeadline moves st's retransmission deadline to at (0 clears it),
// moving st into, within or out of the deadline heap.
func (r *reliable) setDeadline(st *sendState, at substrate.Time) {
	st.deadline = at
	h := &r.deadlines
	switch {
	case at != 0 && st.hidx < 0:
		st.hidx = len(*h)
		*h = append(*h, st)
		h.up(st.hidx)
	case at != 0:
		h.up(st.hidx)
		h.down(st.hidx)
	case st.hidx >= 0:
		i, last := st.hidx, len(*h)-1
		h.swap(i, last)
		(*h)[last] = nil
		*h = (*h)[:last]
		st.hidx = -1
		if i < last {
			moved := (*h)[i]
			h.up(i)
			h.down(moved.hidx)
		}
	}
}

// earliest returns the earliest retransmission deadline of any stream, or
// substrate.Never.
func (r *reliable) earliest() substrate.Time {
	if len(r.deadlines) == 0 {
		return substrate.Never
	}
	return r.deadlines[0].deadline
}

// deadlineHeap is a binary min-heap of send streams by deadline; each
// stream records its slot in hidx.
type deadlineHeap []*sendState

func (h deadlineHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].hidx, h[j].hidx = i, j
}

// up moves the stream at slot i toward the root while it is due earlier
// than its parent.
func (h deadlineHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h[p].deadline <= h[i].deadline {
			return
		}
		h.swap(i, p)
		i = p
	}
}

// down moves the stream at slot i toward the leaves while a child is due
// earlier.
func (h deadlineHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].deadline < h[c].deadline {
			c++
		}
		if h[i].deadline <= h[c].deadline {
			return
		}
		h.swap(i, c)
		i = c
	}
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
		r.ready.Push(substrate.Arrival{}, m)
		return
	}
	st := r.recvStream(m.Src, m.Tag)
	r.markAckDue(st)
	switch {
	case m.Seq == st.next:
		r.ready.Push(substrate.Arrival{}, m)
		st.next++
		for len(st.hold) > 0 {
			h, ok := st.hold[st.next]
			if !ok {
				break
			}
			delete(st.hold, st.next)
			r.ready.Push(substrate.Arrival{}, h)
			st.next++
		}
	case m.Seq > st.next:
		if _, dup := st.hold[m.Seq]; dup {
			r.stats.DupDropped++
			c.recycle(m)
		} else {
			r.stats.Held++
			if st.hold == nil {
				st.hold = make(map[uint64]*substrate.Msg)
			}
			st.hold[m.Seq] = m
		}
	default:
		// Already delivered: a network duplicate or a retransmission that
		// crossed our ack. Re-ack so the sender stops resending.
		r.stats.DupDropped++
		c.recycle(m)
	}
}

// tick advances the protocol clockwork: flush due acks, retransmit expired
// streams. It is called at the end of every poll operation, which is what
// "retransmission driven off the poll loop" means — no timers, no threads.
// Acks go out in recvOrder and retransmissions in sendOrder, whose send
// sequence orders their deliveries; the acks come from the due list, and
// sendOrder is skipped while no deadline has passed. Fire-and-forget mode
// has no clockwork.
func (c *Comm) tick() {
	r := c.rel
	if r == nil {
		return
	}
	now := c.p.Now()
	for _, st := range r.acks {
		st.ackDue = false
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
	clear(r.acks)
	r.acks = r.acks[:0]
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
	if r.ready.Peek(substrate.PollSpec{Tag: tag}) != nil || len(r.acks) > 0 {
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
