package bench

import (
	"fmt"
	"io"

	"prema/internal/dist"
	"prema/internal/dmcs"
	"prema/internal/faulty"
	"prema/internal/rtm"
	"prema/internal/sim"
	"prema/internal/substrate"
	"prema/internal/sweep"
	"prema/internal/trace"
	"prema/internal/wire"
)

// stack is the machine a spec runs on, plus what the runner reads back from
// its decorators afterwards.
type stack struct {
	m      substrate.Machine
	faulty *faulty.Machine  // nil without an active fault plan
	col    *trace.Collector // nil when not tracing
	// lease is the recovery lease timeout in effect (0 = recov default).
	lease substrate.Time
}

// buildStack assembles the machine stack of a run — the one place that
// does: backend, then the decorators the spec asks for. node is the joined
// session of a BackendDist run (nil otherwise).
func (s RunSpec) buildStack(d *systemDef, node *dist.Node) (*stack, error) {
	plan, err := faulty.ParsePlan(s.FaultPlan)
	if err != nil {
		return nil, err
	}
	st := &stack{lease: s.LeaseTimeout}
	switch s.Backend {
	case "", BackendSim:
		cfg := s.W.simConfig()
		// The recovery store is host memory every processor reads: no
		// processor may run ahead of the event loop and see a peer's write
		// from its own future (the reason recover-serial refuses -shards).
		cfg.Lockstep = s.Recover
		st.m = sim.NewMachine(cfg)
	case BackendReal:
		rc := s.wallConfig(d)
		if s.Recover && st.lease <= 0 {
			// The simulator's 500ms virtual default would be microseconds
			// of wall time at small timescales — pure false-positive
			// territory — so size the lease to span 250ms of wall clock
			// (wall = virtual * TimeScale).
			st.lease = substrate.Time(float64(250*substrate.Millisecond) / rc.TimeScale)
		}
		st.m = rtm.New(rc)
	case BackendDist:
		st.m = node.NewMachine(s.wallConfig(d))
	default:
		return nil, fmt.Errorf("bench: unknown backend %q", s.Backend)
	}
	if s.W.Wire {
		// Innermost, so the injector and tracer observe exactly the
		// (decoded) messages a plain run would carry.
		st.m = wire.Wrap(st.m)
	}
	if plan.Active() {
		st.faulty = faulty.Wrap(st.m, plan, s.FaultSeed)
		st.m = st.faulty
	}
	if s.tracing() {
		// Outermost, so the stream records what the runtime observed —
		// after the injector has dropped, duplicated, or delayed the traffic.
		st.col = trace.NewCollector(s.TraceRing)
		st.m = trace.Wrap(st.m, st.col)
	}
	return st, nil
}

// wallConfig is the wall-clock machine configuration of the spec, the same
// for an in-process machine and for a node's share of a distributed one.
func (s RunSpec) wallConfig(d *systemDef) rtm.Config {
	rc := rtm.DefaultConfig()
	if d.probe {
		// The round-trip probe measures the raw transport: real time, no
		// injected message costs.
		rc = rtm.Config{TimeScale: 1}
	}
	rc.Seed = s.W.Seed
	if s.TimeScale > 0 {
		rc.TimeScale = s.TimeScale
	}
	return rc
}

// runOn drives system d on a built stack and attaches what the decorators
// saw: the injector's fault counters and the trace collector.
func (s RunSpec) runOn(d *systemDef, st *stack) (res *Result, err error) {
	switch {
	case d.prema != nil:
		cfg := d.config()
		if s.Reliable || s.Recover {
			cfg.Rel = dmcs.DefaultRelConfig()
			if s.RTO > 0 {
				cfg.Rel.RTO = s.RTO
			}
		}
		cfg.Recover, cfg.CheckpointInterval, cfg.LeaseTimeout = s.Recover, s.CheckpointInterval, st.lease
		res, err = RunPremaOn(st.m, s.W, cfg)
	case d.model != nil:
		res, err = d.model(st.m, s.W)
	case d.probe:
		dm, ok := st.m.(*dist.Machine)
		if !ok {
			return nil, fmt.Errorf("bench: %s probes a bare distributed machine, got %T", d.name, st.m)
		}
		res, err = runPingPong(dm, s.W)
	default:
		return nil, fmt.Errorf("bench: system %q is unknown", d.name)
	}
	if err != nil {
		return nil, err
	}
	if st.faulty != nil {
		res.Faults = st.faulty.Stats()
	}
	res.Trace = st.col
	return res, nil
}

// Run executes the spec and returns its result. Zero-valued fields mean
// their defaults (WithDefaults); an invalid spec is refused with Validate's
// error before anything runs. BackendDist runs a whole coordinator session
// (RunDist with s.Dist).
//
// A PREMA system promises conservation whenever nothing may lose a message
// for good: no fault plan, or reliable delivery (Reliable, Recover) under
// one. A run that finished but broke that promise is an error, returned
// together with its result so a caller can still report what happened.
func (s RunSpec) Run() (*Result, error) {
	res, err := s.run()
	if err != nil {
		return nil, err
	}
	if lookupSystem(s.System).prema != nil && (s.FaultPlan == "" || s.Reliable || s.Recover) {
		if err := res.CheckConservation(); err != nil {
			return res, fmt.Errorf("bench: conservation broken: %w", err)
		}
	}
	return res, nil
}

// run is Run without the conservation check.
func (s RunSpec) run() (*Result, error) {
	if s.Backend == BackendDist {
		return RunDist(s, s.Dist)
	}
	if err := s.check(); err != nil {
		return nil, err
	}
	d := lookupSystem(s.System)
	st, err := s.buildStack(d, nil)
	if err != nil {
		return nil, err
	}
	return s.runOn(d, st)
}

// jobs resolves the Jobs knob. Off the simulator it is 1: concurrent
// wall-clock runs would distort each other, so they run one after another.
// On it the two parallelism levels multiply (jobs × shards goroutines want
// CPUs at once), so auto clamps the product to the CPU count.
func (s RunSpec) jobs() int {
	switch {
	case s.WithDefaults().Backend != BackendSim:
		return 1
	case s.Jobs < 1:
		return sweep.JobsFor(s.W.Shards)
	}
	return s.Jobs
}

// RunAll runs every system the spec names (Systems) on the same workload
// with at most Jobs simulations in flight, returning results in the order
// given. Simulations are independent, so the results are identical for any
// Jobs value. The nodes of a distributed session write their own trace
// files, so each session of a list gets the system's name in its paths.
func (s RunSpec) RunAll() ([]*Result, error) {
	names := s.Systems()
	return sweep.Map(s.jobs(), len(names), func(i int) (*Result, error) {
		one := s
		one.System = names[i]
		if s.Backend == BackendDist && len(names) > 1 && s.TracePath != "" {
			one.TracePath = trace.SuffixPath(s.TracePath, names[i])
		}
		return one.Run()
	})
}

// ExportTrace writes a traced result's Chrome timeline to s.TracePath and
// its metrics registry to s.MetricsPath (whichever are set), inserting
// suffix, when non-empty, before the extension, and reports each file on
// out behind indent. A result without a collector — an untraced run, or a
// dist coordinator's, whose nodes export their own — writes nothing. For a
// wire-wrapped run the registry also carries the codec's size audit:
// wire_frames_total (messages encoded) and wire_size_drift_total (frames
// whose encoding exceeded the modeled Msg.Size — expected 0).
func (s RunSpec) ExportTrace(out io.Writer, indent string, r *Result, suffix string) error {
	if r.Trace == nil {
		return nil
	}
	suffixed := func(path string) string {
		if suffix == "" {
			return path
		}
		return trace.SuffixPath(path, suffix)
	}
	if s.TracePath != "" {
		path := suffixed(s.TracePath)
		if err := r.Trace.WriteChromeFile(path); err != nil {
			return err
		}
		fmt.Fprintf(out, "%swrote %s (%d events, %d dropped)\n", indent, path, r.Trace.Total(), r.Trace.Dropped())
	}
	if s.MetricsPath != "" {
		path := suffixed(s.MetricsPath)
		reg := trace.Summarize(r.Trace, r.Makespan)
		if r.W.Wire {
			reg.Counters["wire_frames_total"] = int64(r.WireFrames)
			reg.Counters["wire_size_drift_total"] = int64(r.WireDrift)
		}
		if err := reg.WriteFile(path); err != nil {
			return err
		}
		fmt.Fprintf(out, "%swrote %s\n", indent, path)
	}
	return nil
}
