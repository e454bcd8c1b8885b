package bench

import (
	"fmt"

	"prema/internal/core"
	"prema/internal/dmcs"
	"prema/internal/faulty"
	"prema/internal/ilb"
	"prema/internal/mol"
	"prema/internal/policy"
	"prema/internal/recov"
	"prema/internal/substrate"
)

// PremaConfig configures the PREMA benchmark driver.
type PremaConfig struct {
	// name labels the result and errors with the system-table row the
	// configuration came from; empty derives "none" or "prema-<mode>".
	name string
	// LB is every processor's load-balancer configuration: explicit or
	// implicit (preemptive) mode, the water-mark, the polling thread period
	// and how many units run between posted polls.
	LB ilb.Config
	// Balance false runs the "no load balancing" baseline (figures (a)).
	Balance bool
	// WS tunes the work stealing policy.
	WS policy.WSConfig
	// Policy builds each processor's balancing policy when Balance is set;
	// nil selects work stealing tuned by WS.
	Policy func(Workload) ilb.Policy
	// Rel switches DMCS into reliable-delivery mode (chaos experiments).
	// The zero value keeps the classic fire-and-forget transport and the
	// byte-identical paper-figure outputs.
	Rel dmcs.RelConfig
	// Recovery, when not nil, enables the crash-recovery subsystem
	// (internal/recov) under that configuration: checkpointed objects,
	// lease-based failure detection, directory repair, and orphan
	// re-homing, so faulty crash plans are survivable. Requires
	// Rel.Enabled. A recovery-enabled run without a crash is byte-identical
	// to one without recovery (checkpoint costs are charged, never timed).
	Recovery *recov.Config
}

// DefaultPremaConfig returns the configuration used for the paper figures.
func DefaultPremaConfig(mode ilb.Mode, balance bool) PremaConfig {
	ws := policy.DefaultWSConfig()
	// Coarse-grained objects: a single mobile object migrates per steal
	// (paper footnote 2).
	ws.MaxObjects = 1
	lb := ilb.DefaultConfig(mode)
	lb.WaterMark = 12
	// The paper's benchmark executes coarse, well-tuned work units: 8 per
	// posted poll is the calibrated default.
	lb.PollEvery = 8
	return PremaConfig{LB: lb, Balance: balance, WS: ws}
}

// options is one processor's runtime configuration under cfg, with store's
// recovery (nil: none). Each call builds a fresh policy.
func (cfg PremaConfig) options(w Workload, store *recov.Store) core.Options {
	opts := core.Options{LB: cfg.LB, Mol: mol.DefaultConfig(), Rel: cfg.Rel, Recovery: store}
	if cfg.Balance {
		if cfg.Policy != nil {
			opts.Policy = cfg.Policy(w)
		} else {
			opts.Policy = policy.NewWorkStealing(cfg.WS)
		}
	}
	return opts
}

// RunPremaOn executes the synthetic benchmark on any execution substrate —
// the application and runtime code is identical on the simulator and the
// real-concurrency machine; only the machine passed in differs.
func RunPremaOn(m substrate.Machine, w Workload, cfg PremaConfig) (*Result, error) {
	return runPrema(m, w, w.application(), cfg)
}

// runPrema is the one PREMA driver: every object of app is a mobile object
// working through its chain of steps asynchronously (no global barriers),
// each step a message to the object carrying the step's hint. w sizes the
// machine and labels the result.
func runPrema(m substrate.Machine, w Workload, app application, cfg PremaConfig) (*Result, error) {
	name := cfg.name
	switch {
	case name != "":
	case cfg.Balance:
		name = "prema-" + cfg.LB.Mode.String()
	default:
		name = "none"
	}
	var store *recov.Store
	if cfg.Recovery != nil {
		store = recov.NewStore(*cfg.Recovery)
	}
	policies := make([]*policy.WorkStealing, w.Procs)
	unitsRun := make([]int, w.Procs)
	pollWakes := make([]int, w.Procs)
	resident := make([]int, w.Procs)
	rels := make([]dmcs.RelStats, w.Procs)
	mols := make([]mol.Stats, w.Procs)
	// body builds one processor incarnation. rejoin=true is the post-crash
	// re-spawn: the same runtime stack and handler registration order (SPMD
	// discipline), but no initial subdomains — the crashed incarnation's
	// objects were already re-homed to survivors — and a hello broadcast so
	// peers resume sequenced delivery to the fresh transport streams.
	body := func(rejoin bool) func(substrate.Endpoint) {
		return func(ep substrate.Endpoint) {
			opts := cfg.options(w, store)
			policies[ep.ID()], _ = opts.Policy.(*policy.WorkStealing)
			r := core.NewRuntime(ep, opts)

			done := 0
			var hDone dmcs.HandlerID
			hDone = r.Comm().Register(func(c *dmcs.Comm, src int, data any, size int) {
				done++
				if done == app.objects {
					r.StopAll()
				}
			})
			var hWork mol.HandlerID
			hWork = r.RegisterHandler(func(l *mol.Layer, obj *mol.Object, src int, data any, size int) {
				o := obj.Data.(int)
				step, _ := data.(int) // an object's first message carries no data
				r.Compute(app.cost(o, step))
				if step+1 < app.steps {
					r.Message(obj.MP, hWork, step+1, app.msgBytes, app.hint(o, step+1))
					return
				}
				r.Comm().SendTagged(0, hDone, nil, 8, substrate.TagApp)
			})

			if rejoin {
				r.AnnounceRejoin()
			} else {
				// Step 2+3 of the benchmark: create and register this
				// processor's initial subdomains as mobile objects and send
				// each its computation message (setup is untimed on the
				// simulator: registration and local enqueue cost no virtual
				// time).
				for _, o := range blockOf(ep.ID(), w.Procs, app.objects) {
					mp := r.Register(o, app.objBytes)
					r.Message(mp, hWork, nil, app.msgBytes, app.hint(o, 0))
				}
			}
			r.Run()
			// Application-level outcome, per processor. Each body writes
			// only its own slot, so this is safe on the concurrent backend.
			unitsRun[ep.ID()] = r.Scheduler().Stats.UnitsRun
			pollWakes[ep.ID()] = r.Scheduler().Stats.PollWakes
			resident[ep.ID()] = len(r.Mol().Local())
			rels[ep.ID()] = r.Comm().RelStats()
			mols[ep.ID()] = r.Mol().Stats
		}
	}
	for p := 0; p < w.Procs; p++ {
		m.Spawn(fmt.Sprintf("p%03d", p), body(false))
	}
	if store != nil {
		// Crashed processors come back from the fault injector, which may
		// sit under other decorators (trace, ...).
		if fm, ok := substrate.Find[*faulty.Machine](m); ok {
			fm.OnRejoin(func(id int) func(substrate.Endpoint) { return body(true) })
		}
	}
	if err := m.Run(); err != nil {
		return nil, fmt.Errorf("bench %s: %w", name, err)
	}
	res := collect(name, w, m)
	res.Resident = resident
	res.PollWakes = pollWakes
	var units int
	for _, n := range unitsRun {
		units += n
	}
	if store != nil {
		// Units executed by crashed incarnations before their verdicts: done
		// work whose processor slot was never written back.
		units += store.LostUnits()
	}
	res.Counters["units_run"] = units
	var dups int
	for _, s := range mols {
		dups += s.Duplicates + s.MigrationsDup
	}
	if dups > 0 {
		res.Counters["mol_duplicates"] = dups
	}
	if cfg.Rel.Enabled {
		var rs dmcs.RelStats
		for _, s := range rels {
			rs.DataSent += s.DataSent
			rs.Retransmits += s.Retransmits
			rs.Timeouts += s.Timeouts
			rs.AcksSent += s.AcksSent
			rs.AcksRecv += s.AcksRecv
			rs.DupDropped += s.DupDropped
			rs.Held += s.Held
		}
		res.Counters["rel_data_sent"] = rs.DataSent
		res.Counters["rel_retransmits"] = rs.Retransmits
		res.Counters["rel_timeouts"] = rs.Timeouts
		res.Counters["rel_acks"] = rs.AcksSent
		res.Counters["rel_dup_dropped"] = rs.DupDropped
		res.Counters["rel_held"] = rs.Held
	}
	var req, grant, nack, moved int
	stealing := false
	for _, ws := range policies {
		if ws == nil {
			continue // another policy, or a rank hosted on another node of a distributed run
		}
		stealing = true
		req += ws.Stats.Requests
		grant += ws.Stats.GrantsServed
		nack += ws.Stats.NacksServed
		moved += ws.Stats.ObjectsSent
	}
	if stealing {
		res.Counters["steal_requests"] = req
		res.Counters["steal_grants"] = grant
		res.Counters["steal_nacks"] = nack
		res.Counters["objects_migrated"] = moved
	}
	if store != nil {
		rs := store.Stats()
		res.Recov = &rs
		// Crash-path counters appear only when something actually went down,
		// so a recovery-enabled run without a crash reports byte-identically
		// to one without recovery.
		if downs := store.Downs(); downs > 0 {
			res.Counters["recov_downs"] = downs
			res.Counters["recov_lost_units"] = store.LostUnits()
			res.Counters["recov_objects_restored"] = rs.ObjectsRecovered
			res.Counters["recov_replayed"] = rs.EnvelopesReplayed
			res.Counters["recov_units_skipped"] = rs.UnitsSkipped
			if rs.Rejoins > 0 {
				res.Counters["recov_rejoins"] = rs.Rejoins
			}
			var deadDropped, deadSent int
			for _, s := range rels {
				deadDropped += s.DeadDropped
				deadSent += s.DeadSent
			}
			res.Counters["rel_dead_dropped"] = deadDropped
			res.Counters["rel_dead_sent"] = deadSent
			var recovered, held int
			for _, s := range mols {
				recovered += s.Recovered
				held += s.RestoreHeld
			}
			res.Counters["mol_recovered"] = recovered
			if held > 0 {
				res.Counters["mol_restore_held"] = held
			}
		}
	}
	return res, nil
}

// engineStats is the simulator engine telemetry surface. sim.Machine
// satisfies it by embedding *sim.Engine; the real backend does not, and its
// runs simply carry no engine telemetry. collect reaches it through the
// decorators with substrate.Find.
type engineStats interface {
	EventsFired() uint64
	BarrierRounds() uint64
	PollsElided() uint64
	Transfers() uint64
}

// wireStats is the serialization loopback's audit surface (wire.Machine).
type wireStats interface {
	Frames() uint64
	SizeDrift() uint64
}

// collect snapshots per-processor accounts into a Result, plus engine and
// wire telemetry when the machine (or a decorated layer) exposes them.
func collect(name string, w Workload, m substrate.Machine) *Result {
	res := &Result{
		System:   name,
		W:        w,
		Makespan: m.Makespan(),
		Accounts: make([]substrate.Account, m.NumProcs()),
		Counters: make(map[string]int),
	}
	for i := 0; i < m.NumProcs(); i++ {
		res.Accounts[i] = *m.Account(i)
	}
	if es, ok := substrate.Find[engineStats](m); ok {
		res.Events = es.EventsFired()
		res.BarrierRounds = es.BarrierRounds()
		res.PollsElided = es.PollsElided()
		res.Transfers = es.Transfers()
	}
	if ws, ok := substrate.Find[wireStats](m); ok {
		res.WireFrames = ws.Frames()
		res.WireDrift = ws.SizeDrift()
	}
	return res
}
