// Package core is the public face of PREMA — the Parallel Runtime
// Environment for Multicomputer Applications, the paper's primary
// contribution. It assembles the three substrate layers into the runtime an
// application codes against:
//
//   - dmcs: single-sided active-message communication (§4, bullet 1),
//   - mol: global name space, transparent migration, message forwarding
//     (§4, bullets 2-3),
//   - ilb: the load balancing framework and policy suite (§4, bullets 4-5),
//
// An application decomposes its domain into more subdomains than
// processors, registers each as a mobile object, and drives all computation
// through messages to mobile pointers; the runtime schedules, balances, and
// migrates behind the scenes. See examples/quickstart for the paper's
// Figure 2 tree-walk example written against this API.
package core

import (
	"prema/internal/dmcs"
	"prema/internal/ilb"
	"prema/internal/mol"
	"prema/internal/recov"
	"prema/internal/substrate"
	"prema/internal/trace"
)

// Options configures a per-processor PREMA runtime instance.
type Options struct {
	// LB configures the scheduler and the explicit/implicit balancing mode.
	LB ilb.Config
	// Mol configures the mobile object layer cost model and routing.
	Mol mol.Config
	// Policy constructs this processor's load balancing policy. nil selects
	// no load balancing. Every processor must construct the same policy
	// type (SPMD discipline).
	Policy ilb.Policy
	// Rel switches DMCS into reliable-delivery mode (sequence numbers,
	// cumulative acks, poll-driven retransmission — see dmcs/reliable.go),
	// letting the stack survive a lossy transport such as internal/faulty.
	// The zero value keeps the classic fire-and-forget transport. All
	// processors must agree (SPMD discipline).
	Rel dmcs.RelConfig
	// Recovery, when non-nil, is the run's shared crash-recovery store: the
	// runtime joins it, heartbeats through the scheduler loop, checkpoints
	// resident objects, and survives fail-stop crashes of peer processors
	// (see internal/recov). All processors must share one store (SPMD
	// discipline); reliable delivery (Rel.Enabled) is required, since
	// recovery replay assumes the transport retransmits into live peers.
	Recovery *recov.Store
}

// DefaultOptions returns the options used by the paper's experiments for
// the given balancing mode.
func DefaultOptions(mode ilb.Mode) Options {
	return Options{
		LB:  ilb.DefaultConfig(mode),
		Mol: mol.DefaultConfig(),
	}
}

// Runtime is one processor's PREMA endpoint.
type Runtime struct {
	p  substrate.Endpoint
	c  *dmcs.Comm
	l  *mol.Layer
	s  *ilb.Scheduler
	tr *trace.Recorder

	hStop    dmcs.HandlerID
	stopSent bool

	// Crash recovery (nil / zero unless Options.Recovery was set).
	rp     *recov.Proc
	hHello dmcs.HandlerID
}

// NewRuntime builds the PREMA stack on a substrate endpoint — a simulated
// processor (internal/sim) or a real goroutine processor (internal/rtm). As
// with every layer in this repository, all processors must call NewRuntime
// (and then register handlers) in the same order.
func NewRuntime(p substrate.Endpoint, opt Options) *Runtime {
	c := dmcs.New(p)
	c.EnableReliable(opt.Rel)
	l := mol.New(c, opt.Mol)
	pol := opt.Policy
	if pol == nil {
		pol = ilb.NopPolicy{}
	}
	s := ilb.New(l, opt.LB, pol)
	r := &Runtime{p: p, c: c, l: l, s: s, tr: trace.Of(p)}
	r.hStop = c.Register(func(c *dmcs.Comm, src int, data any, size int) {
		s.Stop()
	})
	if opt.Recovery != nil {
		r.rp = opt.Recovery.Join(p)
		l.AttachRecov(r.rp)
		s.AttachRecov(r.rp)
		s.OnProcDown(r.handleDown)
		r.hHello = c.Register(func(c *dmcs.Comm, src int, data any, size int) {
			// A crashed peer announcing its rejoin: resume sequenced delivery
			// to it (this hello is already the first message of its fresh
			// incarnation's streams).
			c.MarkAlive(src)
		})
	}
	return r
}

// Comm returns the raw active-message endpoint for application-level AM use.
func (r *Runtime) Comm() *dmcs.Comm { return r.c }

// Mol returns the mobile object layer.
func (r *Runtime) Mol() *mol.Layer { return r.l }

// Scheduler returns the ILB scheduler.
func (r *Runtime) Scheduler() *ilb.Scheduler { return r.s }

// RegisterHandler installs an application message handler for mobile
// objects; registration order must match on all processors.
func (r *Runtime) RegisterHandler(h mol.ObjHandler) mol.HandlerID {
	return r.l.RegisterHandler(h)
}

// Register installs data as a mobile object homed here and returns its
// mobile pointer (the paper's mol_register).
func (r *Runtime) Register(data any, size int) mol.MobilePtr {
	return r.l.Register(data, size)
}

// Message sends a work-unit message to a mobile object (the paper's
// ilb_message): handler h runs at the object's current host when scheduled,
// wherever the object has migrated. weight is the hinted computational
// weight in seconds.
func (r *Runtime) Message(mp mol.MobilePtr, h mol.HandlerID, data any, size int, weight float64) {
	r.s.Message(mp, h, data, size, weight)
}

// Compute consumes d of application CPU inside a work-unit handler; in
// implicit mode it is preempted by the polling thread (see
// ilb.Scheduler.Compute). The duration is backend-neutral substrate time:
// the simulator advances virtual time by exactly d, the real-concurrency
// machine burns scaled wall-clock.
func (r *Runtime) Compute(d substrate.Time) { r.s.Compute(d) }

// Run drives the scheduler until Stop (or a StopAll broadcast) is seen. In
// reliable-delivery mode it then quiesces the transport: unacked sends
// (including the termination broadcast itself) are retransmitted until
// acknowledged, and peers' stragglers keep getting acked for a short
// linger, bounded by the drain timeout. Without the drain, the first
// dropped stop message would strand a peer forever.
func (r *Runtime) Run() {
	r.s.Run()
	if r.rp != nil {
		// Retire before the drain: a processor blocked in Quiesce no longer
		// heartbeats, and must not ripen into a false crash verdict.
		r.rp.Retire()
	}
	r.c.Quiesce()
}

// Stop stops this processor's scheduler.
func (r *Runtime) Stop() { r.s.Stop() }

// StopAll broadcasts termination to every processor (including this one).
// Typically called by the processor that detects global completion. StopAll
// is idempotent: repeated calls stop the local scheduler again but broadcast
// only once, so a double-stop can neither flood the network nor deadlock a
// backend whose peers have already drained their inboxes and exited.
func (r *Runtime) StopAll() {
	if !r.stopSent {
		r.stopSent = true
		n := r.p.NumPeers()
		r.tr.Instant(trace.EvStop, r.p.Now(), int64(n-1), 0, 0)
		for i := 0; i < n; i++ {
			if i == r.p.ID() {
				continue
			}
			r.c.SendTagged(i, r.hStop, nil, 8, substrate.TagSystem)
		}
	}
	r.s.Stop()
}
