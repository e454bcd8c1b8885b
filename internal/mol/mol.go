// Package mol implements PREMA's Mobile Object Layer (Chrisochoides et al.,
// "Mobile object layer: a runtime substrate for parallel adaptive and
// irregular computations", Advances in Engineering Software 2000).
//
// The MOL provides a global name space: application data objects register as
// mobile objects identified by a MobilePtr that stays valid as the object
// migrates between processors. Messages target mobile pointers; the layer
// routes them to the object's current host, forwarding along the migration
// chain when the sender's cached location is stale, and it preserves the
// order of messages from any one origin to any one object by sequencing and
// reorder-buffering. Migration is transparent: in-flight and future messages
// reach the object at its new host without application involvement.
package mol

import (
	"fmt"
	"sort"

	"prema/internal/dmcs"
	"prema/internal/recov"
	"prema/internal/substrate"
	"prema/internal/trace"
)

// MobilePtr is a location-independent name for a mobile object: the
// processor the object was registered on (its home, which runs the directory
// entry for the object) plus a home-local index.
type MobilePtr struct {
	Home  int
	Index int
}

// Nil is the null mobile pointer (mol_mobile_ptr_is_null in the paper's API).
var Nil = MobilePtr{Home: -1}

// IsNil reports whether mp is the null mobile pointer.
func (mp MobilePtr) IsNil() bool { return mp.Home < 0 }

// String renders the pointer as home:index.
func (mp MobilePtr) String() string {
	if mp.IsNil() {
		return "mol:nil"
	}
	return fmt.Sprintf("mol:%d:%d", mp.Home, mp.Index)
}

// HandlerID names an object-message handler registered with RegisterHandler.
type HandlerID int

// ObjHandler is the application-defined routine a mol message invokes at its
// target object. src is the originating processor.
type ObjHandler func(l *Layer, obj *Object, src int, data any, size int)

// Object is an installed mobile object.
type Object struct {
	MP   MobilePtr
	Data any
	// Size is the modeled serialized size in bytes; it prices migration.
	Size int
	// Weight is the object's current computational weight estimate, used by
	// load balancing policies. The MOL itself never reads it.
	Weight float64

	// expect holds, per origin processor, the sequence number of the next
	// in-order message; held and future messages sit in hold until their
	// turn. Both structures migrate with the object.
	expect map[int]uint64
	hold   map[holdKey]*Envelope
}

type holdKey struct {
	origin int
	seq    uint64
}

// Envelope is a message in the mobile-object name space.
type Envelope struct {
	MP      MobilePtr
	Handler HandlerID
	Data    any
	Size    int
	Tag     int
	Origin  int
	Seq     uint64
	Hops    int // forwarding hops taken so far
	// Weight is the sender's estimate of the computational weight (in
	// seconds) of handling this message — the "programmer-supplied hint" of
	// the paper's taxonomy. The MOL carries it; the ILB scheduler reads it.
	Weight float64
}

// Stats counts MOL activity on one processor.
type Stats struct {
	MessagesSent   int
	MessagesLocal  int
	Delivered      int
	Forwards       int
	Held           int // messages that had to wait in the reorder buffer
	MigrationsOut  int
	MigrationsIn   int
	LocationNotify int
	// Duplicates counts stale-sequence envelopes discarded on arrival. On a
	// perfect transport (or under dmcs's reliable mode) it stays zero; a
	// lossy transport without reliable delivery can duplicate envelopes, and
	// the MOL drops them here rather than running a handler twice.
	Duplicates int
	// MigrationsDup counts duplicate migration messages ignored because the
	// object was already resident.
	MigrationsDup int
	// Recovered counts orphaned objects installed here from checkpoints
	// after a crash (recovery.go).
	Recovered int
	// RestoreHeld counts envelopes parked because their forwarding chain
	// dead-ended in a crashed processor, awaiting directory repair.
	RestoreHeld int
}

// DeliverFunc receives in-order messages for locally installed objects.
// The default delivery dispatches the registered handler immediately; the
// ILB layer overrides it to enqueue schedulable work units.
type DeliverFunc func(l *Layer, obj *Object, env *Envelope)

// Config tunes the layer's routing behaviour.
type Config struct {
	// NotifyOrigin, when true, makes a forwarding processor send the
	// message's origin a location-cache update so later sends short-cut the
	// chain. When false, stale caches keep paying forwarding hops
	// (benchmarked as an ablation).
	NotifyOrigin bool
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{NotifyOrigin: true}
}

const (
	// forwardCPU is charged on a processor that forwards a misdelivered
	// message toward the object's current location.
	forwardCPU = 5 * substrate.Microsecond
	// migrateFixed is the fixed payload overhead of a migration message,
	// added to Object.Size.
	migrateFixed = 64
)

// Layer is the processor-local mobile object layer endpoint.
type Layer struct {
	c   *dmcs.Comm
	cfg Config
	tr  *trace.Recorder

	objects   map[MobilePtr]*Object
	lastKnown map[MobilePtr]int // best-guess location for non-local objects
	nextIndex int
	nextSeq   map[MobilePtr]uint64 // per-destination sequence for local sends

	handlers []ObjHandler
	deliver  DeliverFunc

	// OnMigrateOut, if set, is invoked as an object leaves this processor;
	// its return value travels with the migration and is handed to
	// OnMigrateIn at the destination. The ILB layer uses this pair to carry
	// the object's pending work units.
	OnMigrateOut func(obj *Object) any
	OnMigrateIn  func(obj *Object, extra any)

	hEnvelope dmcs.HandlerID
	hMigrate  dmcs.HandlerID
	hLocation dmcs.HandlerID
	hRestore  dmcs.HandlerID

	// Crash-recovery state (recovery.go). rp is nil unless AttachRecov was
	// called; every recovery hook is a no-op then.
	rp          *recov.Proc
	restoreHold []*Envelope

	Stats Stats
}

type migration struct {
	obj   *Object
	extra any
}

type locationUpdate struct {
	mp  MobilePtr
	loc int
}

// New builds a MOL endpoint over a DMCS endpoint. As with dmcs.Comm,
// construction (and handler registration) order must match across
// processors.
func New(c *dmcs.Comm, cfg Config) *Layer {
	l := &Layer{
		c:         c,
		cfg:       cfg,
		tr:        trace.Of(c.Proc()),
		objects:   make(map[MobilePtr]*Object),
		lastKnown: make(map[MobilePtr]int),
		nextSeq:   make(map[MobilePtr]uint64),
	}
	l.deliver = func(l *Layer, obj *Object, env *Envelope) {
		l.Dispatch(obj, env)
	}
	l.hEnvelope = c.Register(func(c *dmcs.Comm, src int, data any, size int) {
		l.arrive(data.(*Envelope))
	})
	l.hMigrate = c.Register(func(c *dmcs.Comm, src int, data any, size int) {
		l.migrateIn(src, data.(*migration))
	})
	l.hLocation = c.Register(func(c *dmcs.Comm, src int, data any, size int) {
		u := data.(*locationUpdate)
		if _, local := l.objects[u.mp]; !local {
			l.lastKnown[u.mp] = u.loc
		}
	})
	// Registered unconditionally so handler IDs stay SPMD-consistent whether
	// or not this run attaches a recovery store.
	l.hRestore = c.Register(func(c *dmcs.Comm, src int, data any, size int) {
		l.installRecovered(data.(*recov.Checkpoint))
	})
	return l
}

// Comm returns the underlying DMCS endpoint.
func (l *Layer) Comm() *dmcs.Comm { return l.c }

// Proc returns the underlying substrate endpoint.
func (l *Layer) Proc() substrate.Endpoint { return l.c.Proc() }

// SetDeliver overrides the in-order delivery sink (see DeliverFunc).
func (l *Layer) SetDeliver(d DeliverFunc) { l.deliver = d }

// Dispatch invokes env's registered handler on obj. Delivery sinks that
// queue envelopes (like the ILB scheduler) call this when the work unit is
// finally scheduled.
func (l *Layer) Dispatch(obj *Object, env *Envelope) {
	l.handlers[env.Handler](l, obj, env.Origin, env.Data, env.Size)
}

// RegisterHandler installs an object-message handler; registration order
// must match on every processor.
func (l *Layer) RegisterHandler(h ObjHandler) HandlerID {
	l.handlers = append(l.handlers, h)
	return HandlerID(len(l.handlers) - 1)
}

// Register installs data as a new mobile object homed on this processor and
// returns its mobile pointer.
func (l *Layer) Register(data any, size int) MobilePtr {
	mp := MobilePtr{Home: l.Proc().ID(), Index: l.nextIndex}
	l.nextIndex++
	l.install(&Object{
		MP:     mp,
		Data:   data,
		Size:   size,
		expect: make(map[int]uint64),
		hold:   make(map[holdKey]*Envelope),
	})
	if l.rp != nil {
		l.rp.ObjectHome(oid(mp), data, size, 0)
	}
	return mp
}

func (l *Layer) install(obj *Object) {
	l.objects[obj.MP] = obj
	delete(l.lastKnown, obj.MP)
}

// Local returns the locally installed objects (in unspecified order).
func (l *Layer) Local() map[MobilePtr]*Object { return l.objects }

// bestGuess returns where this processor believes mp currently lives.
func (l *Layer) bestGuess(mp MobilePtr) int {
	if _, ok := l.objects[mp]; ok {
		return l.Proc().ID()
	}
	if loc, ok := l.lastKnown[mp]; ok {
		return loc
	}
	if l.rp != nil {
		// PeerDown purged cache entries through dead processors; the recovery
		// manifest knows where directory repair put the object.
		if loc, ok := l.rp.Location(oid(mp)); ok && !l.rp.IsDown(loc) {
			return loc
		}
	}
	return mp.Home // the home processor always has a directory entry
}

// Message sends an application message to the object named by mp, invoking
// handler h at the object's current host; tag is its traffic class and weight
// the computational weight hint carried to the scheduler there. Message order
// from this processor to mp is preserved across migrations.
func (l *Layer) Message(mp MobilePtr, h HandlerID, data any, size int, tag int, weight float64) {
	if mp.IsNil() {
		panic("mol: message to nil mobile pointer")
	}
	env := &Envelope{
		MP:      mp,
		Handler: h,
		Data:    data,
		Size:    size,
		Tag:     tag,
		Origin:  l.Proc().ID(),
		Seq:     l.nextSeq[mp],
		Weight:  weight,
	}
	l.nextSeq[mp]++
	if l.rp != nil {
		// Origin-side envelope log: kept until the unit is known executed, so
		// a recovery coordinator can replay anything a crash swallowed.
		l.rp.LogEnvelope(oid(mp), env.Origin, env.Seq, env, size)
	}
	if _, local := l.objects[mp]; local {
		l.Stats.MessagesLocal++
		l.arrive(env)
		return
	}
	l.Stats.MessagesSent++
	l.c.SendTagged(l.bestGuess(mp), l.hEnvelope, env, size+envelopeHeader, tag)
}

// envelopeHeader models the wire overhead of a mol envelope in bytes.
const envelopeHeader = 48

// arrive processes an envelope reaching this processor: deliver in order if
// the object is resident, otherwise forward toward the current location.
func (l *Layer) arrive(env *Envelope) {
	obj, ok := l.objects[env.MP]
	if !ok {
		l.forward(env)
		return
	}
	want := obj.expect[env.Origin]
	switch {
	case env.Seq == want:
		l.deliverInOrder(obj, env)
	case env.Seq > want:
		if _, dup := obj.hold[holdKey{env.Origin, env.Seq}]; dup {
			l.Stats.Duplicates++
			return
		}
		l.Stats.Held++
		obj.hold[holdKey{env.Origin, env.Seq}] = env
	default:
		// Stale sequence: this envelope was already delivered (a transport
		// duplicate, or a forwarded copy racing a retransmitted one).
		// Handlers must run exactly once, so the copy is dropped.
		l.Stats.Duplicates++
	}
}

func (l *Layer) deliverInOrder(obj *Object, env *Envelope) {
	obj.expect[env.Origin] = env.Seq + 1
	l.Stats.Delivered++
	l.deliver(l, obj, env)
	// Drain any held successors from the same origin.
	for {
		next, ok := obj.hold[holdKey{env.Origin, obj.expect[env.Origin]}]
		if !ok {
			return
		}
		delete(obj.hold, holdKey{env.Origin, next.Seq})
		obj.expect[env.Origin] = next.Seq + 1
		l.Stats.Delivered++
		l.deliver(l, obj, next)
	}
}

// forward relays a misdelivered envelope toward the object's current host
// and, when configured, tells the origin about the better location.
func (l *Layer) forward(env *Envelope) {
	next := l.bestGuess(env.MP)
	if next == l.Proc().ID() {
		// Stale self-reference: fall back to the home directory.
		next = env.MP.Home
	}
	if l.rp != nil && (next == l.Proc().ID() || l.rp.IsDown(next)) {
		// The chain dead-ends in a crashed processor (or in ourselves, with
		// the directory pointing nowhere live): park the envelope until
		// directory repair re-resolves the object instead of dropping it
		// into a black hole. RetryHeld re-runs it.
		l.Stats.RestoreHeld++
		l.restoreHold = append(l.restoreHold, env)
		return
	}
	l.Stats.Forwards++
	env.Hops++
	if env.Hops > 1<<16 {
		panic("mol: forwarding loop for " + env.MP.String())
	}
	l.Proc().Advance(forwardCPU, substrate.CatMessaging)
	l.tr.Instant(trace.EvForward, l.Proc().Now(), int64(next), int64(env.Hops), int64(env.Size))
	l.c.SendTagged(next, l.hEnvelope, env, env.Size+envelopeHeader, env.Tag)
	if l.cfg.NotifyOrigin && env.Origin != l.Proc().ID() && next != env.Origin {
		l.Stats.LocationNotify++
		l.c.SendTagged(env.Origin, l.hLocation, &locationUpdate{env.MP, next}, 16, substrate.TagSystem)
	}
}

// Migrate uninstalls the locally resident object mp and transfers it (data,
// reorder state, and any OnMigrateOut extra such as queued work units) to
// processor dst. Messages that keep arriving here are forwarded. The home
// directory is updated asynchronously.
func (l *Layer) Migrate(mp MobilePtr, dst int) error {
	obj, ok := l.objects[mp]
	if !ok {
		return fmt.Errorf("mol: migrate of non-resident object %s", mp)
	}
	if dst == l.Proc().ID() {
		return nil
	}
	delete(l.objects, mp)
	l.lastKnown[mp] = dst
	l.Stats.MigrationsOut++
	var extra any
	if l.OnMigrateOut != nil {
		extra = l.OnMigrateOut(obj)
	}
	size := obj.Size + migrateFixed + 16*len(obj.hold)
	l.tr.Instant(trace.EvMigrateOut, l.Proc().Now(), int64(dst), trace.ObjKey(mp.Home, mp.Index), int64(size))
	l.c.SendTagged(dst, l.hMigrate, &migration{obj: obj, extra: extra}, size, substrate.TagSystem)
	if l.rp != nil {
		// Migration-piggybacked checkpoint. The manifest flips to dst only
		// after the migration message is irrevocably on the wire: a fail-stop
		// any earlier leaves the object an orphan of this processor, never
		// double-homed.
		l.rp.ObjectDeparting(oid(mp), dst, obj.Data, obj.Size, obj.Weight)
	}
	return nil
}

// migrateIn installs an arriving object and re-runs held envelopes. It is
// idempotent: a duplicated migration message (lossy transport, no reliable
// mode) is ignored rather than re-installing — and re-delivering the queued
// work of — an object that already lives here.
func (l *Layer) migrateIn(src int, m *migration) {
	obj := m.obj
	if _, resident := l.objects[obj.MP]; resident {
		l.Stats.MigrationsDup++
		return
	}
	l.Stats.MigrationsIn++
	l.tr.Instant(trace.EvMigrateIn, l.Proc().Now(), int64(src), trace.ObjKey(obj.MP.Home, obj.MP.Index), int64(obj.Size))
	l.install(obj)
	if l.rp != nil {
		l.rp.ObjectHome(oid(obj.MP), obj.Data, obj.Size, obj.Weight)
	}
	if l.OnMigrateIn != nil {
		l.OnMigrateIn(obj, m.extra)
	}
	// Tell the home directory where the object now lives (unless it came
	// home or it is already here).
	if obj.MP.Home != l.Proc().ID() {
		l.c.SendTagged(obj.MP.Home, l.hLocation, &locationUpdate{obj.MP, l.Proc().ID()}, 16, substrate.TagSystem)
	}
	// Some held envelopes may now be deliverable (e.g. their predecessors
	// were consumed before migration).
	l.drainHold(obj)
	l.drainRestoreHold(obj.MP)
}

func (l *Layer) drainHold(obj *Object) {
	// Deterministic order: origins sorted ascending (map iteration order
	// would leak host randomness into the simulation).
	origins := make(map[int]bool, len(obj.hold))
	for k := range obj.hold {
		origins[k.origin] = true
	}
	sorted := make([]int, 0, len(origins))
	for o := range origins {
		sorted = append(sorted, o)
	}
	sort.Ints(sorted)
	for _, origin := range sorted {
		for {
			env, ok := obj.hold[holdKey{origin, obj.expect[origin]}]
			if !ok {
				break
			}
			delete(obj.hold, holdKey{origin, env.Seq})
			l.deliverInOrder(obj, env)
		}
	}
}
