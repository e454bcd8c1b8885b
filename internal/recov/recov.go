// Package recov is PREMA's crash-recovery substrate: it makes internal/
// faulty's fail-stop crashes survivable instead of fatal to the computation.
//
// The design has four cooperating pieces, layered exactly where the paper's
// mobile-object architecture suggests they belong:
//
//   - Checkpointing. Every processor periodically (and on every migration)
//     snapshots its resident mobile objects into a Store — the model of
//     stable storage / a buddy processor that survives the crash of any one
//     processor. A checkpoint is the object state plus, per (object, origin),
//     the sequence number of the next work unit to execute ("done"
//     watermarks, reusing the MOL's per-origin seq discipline), so replay
//     after a crash is exactly-once by construction.
//   - Failure detection. Each processor holds a lease in the Store and
//     renews it from the ILB scheduler loop. A processor whose lease
//     expires is declared down; the first processor to observe the expiry
//     becomes the recovery coordinator for that crash. Detection is
//     virtual-time on the simulator (deterministic) and wall-clock on the
//     real backend.
//   - Directory repair. The Store keeps a location manifest for every
//     registered object (updated at registration, migration, and restore),
//     so MOL pointers that would resolve to a dead processor re-resolve
//     through the manifest instead of chasing a forwarding chain into a
//     black hole.
//   - Replay. Message envelopes are logged at their origin until the unit
//     they carry has executed; the coordinator replays every still-pending
//     envelope after a crash (covering both orphaned objects and envelopes
//     lost in a dead relay's inbox). The MOL's per-origin sequence numbers
//     discard the duplicates this necessarily creates.
//
// The Store models stable storage shared by the machine: on the simulator
// it is plain host memory touched by one goroutine at a time; on the real
// backend a mutex serializes access. Nothing in this package advances
// virtual time or touches a processor ledger: the modeled checkpoint cost is
// totalled in the store's own ledger (Stats.Charged), so every processor's
// accounts still sum to elapsed time and a run without a crash is the same
// run whether recovery is enabled or not. Proc.NextAct tells a polled
// computation when the heartbeat could next act, so its quiet polls elide
// as on any other run.
//
// Object snapshots keep a reference to the live object data rather than a
// deep copy: every backend runs in one address space, so a copy would model
// nothing the modeled cost doesn't already. Exactly-once
// execution never depends on snapshot freshness — it is guarded by the
// per-(object, origin) done watermarks, which are written synchronously at
// unit completion.
package recov

import (
	"sort"
	"sync"

	"prema/internal/substrate"
)

// ObjID names a mobile object in the store: the MOL mobile pointer's
// (home, index) pair. recov cannot import mol (mol imports recov), so the
// pair is restated here.
type ObjID struct {
	Home  int
	Index int
}

// Config tunes the recovery subsystem.
type Config struct {
	// CheckpointInterval is the period of per-processor object snapshots.
	// Zero selects the default (1s of virtual time).
	CheckpointInterval substrate.Time
	// LeaseTimeout is how long after its last renewal a processor's lease
	// survives; a processor silent for longer is declared down. Zero selects
	// the default (500ms). On the real backend this is wall-clock (scaled by
	// the machine's timescale), so it must comfortably exceed scheduling
	// jitter — see bench.RunSpec.LeaseTimeout.
	LeaseTimeout substrate.Time
}

// The modeled cost of a checkpoint: per object snapshotted and per byte
// serialized, totalled in Stats.Charged.
const (
	checkpointFixed   = 10 * substrate.Microsecond
	checkpointPerByte = 10 * substrate.Nanosecond
)

func (c Config) withDefaults() Config {
	if c.CheckpointInterval <= 0 {
		c.CheckpointInterval = substrate.Second
	}
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = 500 * substrate.Millisecond
	}
	return c
}

// Stats counts machine-wide recovery activity. Read it after the run.
type Stats struct {
	// Checkpoints is the number of per-processor checkpoint rounds taken.
	Checkpoints int
	// CheckpointObjects and CheckpointBytes total the snapshotted objects
	// and their modeled serialized sizes.
	CheckpointObjects int
	CheckpointBytes   int64
	// Charged is the total modeled checkpoint cost. It is reported here
	// only: no processor ledger carries it, since no processor spent it.
	Charged substrate.Time
	// Suspects is the number of down verdicts raised (one per crash, however
	// many processors observe it).
	Suspects int
	// ObjectsRecovered counts orphaned objects re-homed from checkpoints.
	ObjectsRecovered int
	// EnvelopesReplayed counts logged envelopes the coordinator re-sent.
	EnvelopesReplayed int
	// UnitsSkipped counts work units whose execution was skipped because the
	// done watermark showed they already ran before the crash (the replay
	// dedup doing its job).
	UnitsSkipped int
	// Rejoins counts processors that re-joined the store after a crash.
	Rejoins int
}

// Down is a failure-detector verdict delivered to one processor.
type Down struct {
	// Proc is the processor declared down.
	Proc int
	// Coordinator is true on exactly one live processor per verdict — the
	// first to observe the lease expiry — which then runs directory repair
	// and replay for the whole machine.
	Coordinator bool
}

// ReplayEnv is one logged, still-pending envelope in a recovery plan.
type ReplayEnv struct {
	Origin int
	Seq    uint64
	// Env is the opaque mol envelope (stored as any: recov sits below mol).
	Env  any
	Size int
}

// Checkpoint is one object's entry in a recovery plan.
type Checkpoint struct {
	ID ObjID
	// Data, Size, Weight are the object snapshot (Data by reference; see the
	// package comment).
	Data   any
	Size   int
	Weight float64
	// Loc is the object's manifest location when the plan was built.
	Loc int
	// Orphan is true when Loc was a dead processor: the object must be
	// re-installed from the checkpoint at a new host. When false the object
	// is alive at Loc and only its pending envelopes are replayed (they may
	// have died in a crashed relay's inbox).
	Orphan bool
	// Done is the per-origin next-to-execute watermark restored as the
	// object's reorder-buffer expectation, so replayed envelopes that
	// already ran are discarded as stale.
	Done map[int]uint64
	// Replay lists the object's logged envelopes not yet known executed,
	// ordered by (origin, seq).
	Replay []ReplayEnv
}

// loggedEnv is one origin-logged envelope awaiting execution confirmation.
type loggedEnv struct {
	env  any
	size int
}

// objRec is the store's record of one registered object.
type objRec struct {
	loc    int
	data   any
	size   int
	weight float64
	done   map[int]uint64
	log    map[int]map[uint64]loggedEnv // origin → seq → envelope
}

// Store models the machine's stable storage for recovery: leases, the
// object manifest, checkpoints, envelope logs, and execution watermarks.
// One Store is shared by every processor of a run; all methods are
// goroutine-safe.
type Store struct {
	mu  sync.Mutex
	cfg Config

	joined   []bool
	retired  []bool
	down     []bool
	everDown []bool
	leases   []substrate.Time
	// verdicts counts down verdicts per processor (a generation counter, so
	// a crash → rejoin → crash sequence produces a fresh verdict each time);
	// claimed tracks which generation already has a coordinator.
	verdicts []int
	claimed  []int
	// execBy counts units executed per processor slot; credited marks how
	// much of it has been folded into lost at a crash verdict.
	execBy   []int
	credited []int
	lost     int

	objs  map[ObjID]*objRec
	stats Stats
}

// NewStore builds the shared recovery store for one run.
func NewStore(cfg Config) *Store {
	return &Store{cfg: cfg.withDefaults(), objs: make(map[ObjID]*objRec)}
}

// Stats returns a snapshot of the machine-wide recovery counters.
func (st *Store) Stats() Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stats
}

// Downs returns the number of processors ever declared down.
func (st *Store) Downs() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, d := range st.everDown {
		if d {
			n++
		}
	}
	return n
}

// LostUnits returns the number of units executed by processors before their
// crash verdicts — work that is done but unreported by any surviving
// processor's own counters.
func (st *Store) LostUnits() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lost
}

// grow extends the per-processor slices to cover id.
func (st *Store) grow(id int) {
	for len(st.joined) <= id {
		st.joined = append(st.joined, false)
		st.retired = append(st.retired, false)
		st.down = append(st.down, false)
		st.everDown = append(st.everDown, false)
		st.leases = append(st.leases, 0)
		st.verdicts = append(st.verdicts, 0)
		st.claimed = append(st.claimed, 0)
		st.execBy = append(st.execBy, 0)
		st.credited = append(st.credited, 0)
	}
}

// Join registers a processor with the store and returns its handle. Calling
// Join for an ID currently marked down is a rejoin: the lease is renewed and
// the down verdict cleared (peers learn of the rejoin through their next
// Tick plus the runtime's hello broadcast).
func (st *Store) Join(ep substrate.Endpoint) *Proc {
	id := ep.ID()
	st.mu.Lock()
	st.grow(id)
	if st.down[id] {
		st.down[id] = false
		st.stats.Rejoins++
	}
	st.joined[id] = true
	st.retired[id] = false
	st.leases[id] = ep.Now() + st.cfg.LeaseTimeout
	st.mu.Unlock()
	return &Proc{st: st, id: id, ep: ep, nextCkpt: ep.Now() + st.cfg.CheckpointInterval}
}

// Survivors returns the live, unretired processors in ascending order. When
// every joined processor has retired it falls back to all non-down joined
// processors, so a very late crash still finds a re-homing target.
func (st *Store) Survivors() []int {
	st.mu.Lock()
	defer st.mu.Unlock()
	var live, joined []int
	for q := range st.joined {
		if !st.joined[q] || st.down[q] {
			continue
		}
		joined = append(joined, q)
		if !st.retired[q] {
			live = append(live, q)
		}
	}
	if len(live) > 0 {
		return live
	}
	return joined
}

// Proc is one processor's handle on the store.
type Proc struct {
	st *Store
	id int
	ep substrate.Endpoint

	// seen tracks which verdict generation this processor has processed per
	// peer, so each crash is surfaced exactly once per live processor.
	seen     []int
	nextCkpt substrate.Time
}

// Store returns the shared store.
func (p *Proc) Store() *Store { return p.st }

// Tick renews this processor's lease, raises down verdicts for any expired
// peers, and returns the verdicts this processor has not yet processed
// (whether raised here or by another processor). Exactly one live processor
// gets Coordinator=true per verdict. Call it from the scheduler loop; it
// never advances virtual time.
func (p *Proc) Tick() []Down {
	if p == nil {
		return nil
	}
	st := p.st
	now := p.ep.Now()
	st.mu.Lock()
	defer st.mu.Unlock()
	if t := now + st.cfg.LeaseTimeout; t > st.leases[p.id] {
		st.leases[p.id] = t
	}
	for q := range st.joined {
		if q == p.id || !st.joined[q] || st.retired[q] || st.down[q] {
			continue
		}
		if now > st.leases[q] {
			st.down[q] = true
			st.everDown[q] = true
			st.verdicts[q]++
			st.stats.Suspects++
			// Credit the crashed incarnation's executed units now: its own
			// processor body unwound without reporting them.
			st.lost += st.execBy[q] - st.credited[q]
			st.credited[q] = st.execBy[q]
		}
	}
	var downs []Down
	for q := range st.down {
		if q == p.id || !st.down[q] {
			continue
		}
		for len(p.seen) <= q {
			p.seen = append(p.seen, 0)
		}
		if p.seen[q] < st.verdicts[q] {
			coord := st.claimed[q] < st.verdicts[q]
			if coord {
				st.claimed[q] = st.verdicts[q]
			}
			p.seen[q] = st.verdicts[q]
			downs = append(downs, Down{Proc: q, Coordinator: coord})
		}
	}
	return downs
}

// NextAct returns when the heartbeat of a processor inside a polled
// computation (ilb.Scheduler.Compute) could next act, so the computation can
// sleep through the quiet polls before it (substrate.PollSpec.WakeBy): the
// earlier of its next checkpoint and the instant after the earliest live
// peer's lease, when a Tick would declare that peer down. A peer's lease
// only grows while it lives, and a rejoined peer's hello is a system message
// that ends the stretch. The computation's own lease renewals change
// nothing it can see: Extend has covered the stretch, and the fault
// injector steps the poll before a crash or stall.
func (p *Proc) NextAct() substrate.Time {
	st := p.st
	st.mu.Lock()
	defer st.mu.Unlock()
	next := p.nextCkpt
	for q, lease := range st.leases {
		if q != p.id && st.joined[q] && !st.retired[q] && !st.down[q] {
			next = min(next, lease+1)
		}
	}
	return next
}

// Extend renews the lease to cover a computation known to run until `until`
// (plus the usual timeout slack). The ILB scheduler calls it before long
// work units, during which no Tick can run in explicit mode.
func (p *Proc) Extend(until substrate.Time) {
	if p == nil {
		return
	}
	st := p.st
	st.mu.Lock()
	if t := until + st.cfg.LeaseTimeout; t > st.leases[p.id] {
		st.leases[p.id] = t
	}
	st.mu.Unlock()
}

// Retire marks this processor cleanly finished: its lease can no longer
// expire into a false crash verdict while it drains the transport.
func (p *Proc) Retire() {
	if p == nil {
		return
	}
	p.st.mu.Lock()
	p.st.retired[p.id] = true
	p.st.mu.Unlock()
}

// IsDown reports whether processor q is currently under a down verdict.
func (p *Proc) IsDown(q int) bool {
	st := p.st
	st.mu.Lock()
	defer st.mu.Unlock()
	return q >= 0 && q < len(st.down) && st.down[q]
}

// CheckpointDue reports whether this processor's periodic checkpoint timer
// has expired.
func (p *Proc) CheckpointDue() bool {
	if p == nil {
		return false
	}
	return p.ep.Now() >= p.nextCkpt
}

// FinishCheckpoint records a completed checkpoint round of `objects` object
// snapshots totalling `bytes`, with its modeled cost, and re-arms the timer.
func (p *Proc) FinishCheckpoint(objects, bytes int) {
	st := p.st
	st.mu.Lock()
	st.stats.Checkpoints++
	st.stats.CheckpointObjects += objects
	st.stats.CheckpointBytes += int64(bytes)
	st.stats.Charged += checkpointFixed*substrate.Time(objects) + checkpointPerByte*substrate.Time(bytes)
	st.mu.Unlock()
	p.nextCkpt = p.ep.Now() + st.cfg.CheckpointInterval
}

// rec returns (creating if needed) the record for id. Caller holds st.mu.
func (st *Store) rec(id ObjID) *objRec {
	r := st.objs[id]
	if r == nil {
		r = &objRec{loc: -1, done: make(map[int]uint64)}
		st.objs[id] = r
	}
	return r
}

// snapshot refreshes an object record's checkpoint fields. Caller holds mu.
func (r *objRec) snapshot(data any, size int, weight float64) {
	r.data = data
	r.size = size
	r.weight = weight
}

// ObjectHome records an object now resident on this processor — freshly
// registered, migrated or restored here, or snapshotted in a periodic round
// — refreshing its checkpoint.
func (p *Proc) ObjectHome(id ObjID, data any, size int, weight float64) {
	st := p.st
	st.mu.Lock()
	r := st.rec(id)
	r.loc = p.id
	r.snapshot(data, size, weight)
	st.mu.Unlock()
}

// ObjectDeparting flips the manifest location to dst — called after the
// migration message has been handed to the transport, so a crash before the
// send leaves the object an orphan of the sender, never double-homed. The
// migration doubles as a piggybacked checkpoint.
func (p *Proc) ObjectDeparting(id ObjID, dst int, data any, size int, weight float64) {
	st := p.st
	st.mu.Lock()
	r := st.rec(id)
	r.loc = dst
	r.snapshot(data, size, weight)
	st.mu.Unlock()
}

// Assign points the manifest at the host chosen to adopt an orphan.
func (p *Proc) Assign(id ObjID, host int) {
	st := p.st
	st.mu.Lock()
	st.rec(id).loc = host
	st.mu.Unlock()
}

// Location returns the manifest location for id.
func (p *Proc) Location(id ObjID) (int, bool) {
	st := p.st
	st.mu.Lock()
	defer st.mu.Unlock()
	r, ok := st.objs[id]
	if !ok || r.loc < 0 {
		return 0, false
	}
	return r.loc, true
}

// LogEnvelope records a sent envelope at its origin until the work unit it
// carries is known executed. Envelopes already past the done watermark are
// not logged.
func (p *Proc) LogEnvelope(id ObjID, origin int, seq uint64, env any, size int) {
	st := p.st
	st.mu.Lock()
	r := st.rec(id)
	if seq >= r.done[origin] {
		if r.log == nil {
			r.log = make(map[int]map[uint64]loggedEnv)
		}
		m := r.log[origin]
		if m == nil {
			m = make(map[uint64]loggedEnv)
			r.log[origin] = m
		}
		m[seq] = loggedEnv{env: env, size: size}
	}
	st.mu.Unlock()
}

// BeginUnit reports whether the unit (id, origin, seq) still needs to run.
// False means it already executed before a crash (its effect is durable in
// the done watermark) and the caller must skip it — the replay dedup that
// keeps execution exactly-once even if an envelope is delivered twice
// across a recovery.
func (p *Proc) BeginUnit(id ObjID, origin int, seq uint64) bool {
	st := p.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if r, ok := st.objs[id]; ok && seq < r.done[origin] {
		st.stats.UnitsSkipped++
		return false
	}
	return true
}

// FinishUnit advances the done watermark past (origin, seq) and prunes the
// origin's envelope log. It is called synchronously the moment the unit's
// handler returns — before any further substrate interaction — so a
// fail-stop can never lose the fact that a unit ran.
func (p *Proc) FinishUnit(id ObjID, origin int, seq uint64) {
	st := p.st
	st.mu.Lock()
	r := st.rec(id)
	if seq+1 > r.done[origin] {
		r.done[origin] = seq + 1
	}
	if m := r.log[origin]; m != nil {
		delete(m, seq)
	}
	st.execBy[p.id]++
	st.mu.Unlock()
}

// RecoveryPlan builds the coordinator's work list for a crash of `dead`:
// one Checkpoint per object that is orphaned (its manifest location is a
// down processor) or has pending logged envelopes to replay. Objects are
// ordered by ID and replays by (origin, seq), so the plan is deterministic.
// Scanning for *any* down location (not just `dead`) makes the plan robust
// to a coordinator itself crashing mid-restore: the next coordinator picks
// up the orphans the first one never re-homed.
func (p *Proc) RecoveryPlan(dead int) []Checkpoint {
	st := p.st
	st.mu.Lock()
	defer st.mu.Unlock()
	ids := make([]ObjID, 0, len(st.objs))
	for id := range st.objs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Home != ids[j].Home {
			return ids[i].Home < ids[j].Home
		}
		return ids[i].Index < ids[j].Index
	})
	var plan []Checkpoint
	for _, id := range ids {
		r := st.objs[id]
		orphan := r.loc >= 0 && r.loc < len(st.down) && st.down[r.loc]
		var replay []ReplayEnv
		origins := make([]int, 0, len(r.log))
		for o := range r.log {
			origins = append(origins, o)
		}
		sort.Ints(origins)
		for _, o := range origins {
			seqs := make([]uint64, 0, len(r.log[o]))
			for s := range r.log[o] {
				if s >= r.done[o] {
					seqs = append(seqs, s)
				}
			}
			sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
			for _, s := range seqs {
				le := r.log[o][s]
				replay = append(replay, ReplayEnv{Origin: o, Seq: s, Env: le.env, Size: le.size})
			}
		}
		if !orphan && len(replay) == 0 {
			continue
		}
		done := make(map[int]uint64, len(r.done))
		for o, s := range r.done {
			done[o] = s
		}
		if orphan {
			st.stats.ObjectsRecovered++
		}
		st.stats.EnvelopesReplayed += len(replay)
		plan = append(plan, Checkpoint{
			ID:     id,
			Data:   r.data,
			Size:   r.size,
			Weight: r.weight,
			Loc:    r.loc,
			Orphan: orphan,
			Done:   done,
			Replay: replay,
		})
	}
	return plan
}
