package bench

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"prema/internal/dmcs"
	"prema/internal/faulty"
	"prema/internal/rtm"
	"prema/internal/substrate"
	"prema/internal/trace"
)

// Backend names accepted by RunSpec.Backend and the CLIs' -backend flag.
const (
	BackendSim  = "sim"
	BackendReal = "real"
	BackendDist = "dist"
)

// RunSpec is the single description of a run: which system, on which
// workload, on which execution substrate, behind which decorators. Every
// CLI parses its flags into one (BindFlags), checks it once (Validate) and
// runs it (Run, RunAll, RunFigures); the dist coordinator ships the same
// value to every node daemon (Encode), so all of them drive exactly the
// configuration the command line described.
//
// Validate checks a spec as a command line spells it out, every field
// explicit. Programmatic callers may leave fields zero to mean "default"
// (WithDefaults lists them); Run spells those out before validating.
type RunSpec struct {
	// System names a row of the system table (the -system help text lists
	// them). CLI templates may hold a comma-separated list (Systems, RunAll)
	// or "" for "the figure's systems" (RunFigures).
	System string
	// W is the workload, including the simulator's Shards knob and the Wire
	// serialization loopback.
	W Workload
	// Backend selects the execution substrate: BackendSim (deterministic
	// discrete-event simulator), BackendReal (one goroutine per processor,
	// scaled wall clock) or BackendDist (node processes over TCP).
	Backend string
	// TimeScale (wall seconds per virtual second) tunes the wall-clock
	// backends.
	TimeScale float64
	// Reliable switches DMCS into reliable-delivery mode with initial
	// retransmission timeout RTO.
	Reliable bool
	RTO      substrate.Time
	// FaultPlan is the fault schedule injected at the substrate seam, in
	// faulty.ParsePlan's text form so that it travels; "" and "none" inject
	// nothing. FaultSeed seeds the injector's per-endpoint random streams.
	FaultPlan string
	FaultSeed int64
	// Recover arms the crash-recovery subsystem (internal/recov) so crash
	// and recover plan clauses are survivable; it implies Reliable.
	// CheckpointInterval and LeaseTimeout override the recov defaults in
	// virtual time (on BackendReal a zero lease spans 250ms of wall clock).
	Recover            bool
	CheckpointInterval substrate.Time
	LeaseTimeout       substrate.Time
	// Trace attaches the event recorder (internal/trace) outermost, rings
	// sized by TraceRing, and hands the collector back on Result.Trace.
	// TracePath and MetricsPath imply it and name the files ExportTrace
	// writes.
	Trace       bool
	TracePath   string
	MetricsPath string
	TraceRing   int
	// Dist configures the coordinator side of a BackendDist run.
	Dist DistOptions

	// The remaining fields describe how a CLI expands a template into runs
	// and prints them; a single Run ignores them.

	// UnitsPerProc scales paper workloads: ForFigure sets W.Units to
	// W.Procs × UnitsPerProc.
	UnitsPerProc int
	// Jobs bounds the simulations in flight in RunAll and RunFigures
	// (0 = auto: one per CPU divided by W.Shards).
	Jobs int
	// Stride is the per-processor breakdown sampling stride (0 = summaries
	// only).
	Stride int
}

// WithDefaults spells out the zero-valued fields that mean "default":
// the simulator backend, a serial engine, the wall-clock backends' 1e-3 time
// scale, the DMCS default RTO and the default trace ring.
func (s RunSpec) WithDefaults() RunSpec {
	orDefault(&s.Backend, BackendSim)
	orDefault(&s.W.Shards, 1)
	orDefault(&s.TimeScale, rtm.DefaultConfig().TimeScale)
	orDefault(&s.RTO, dmcs.DefaultRelConfig().RTO)
	orDefault(&s.TraceRing, trace.DefaultRingCap)
	return s
}

func orDefault[T comparable](field *T, def T) {
	var zero T
	if *field == zero {
		*field = def
	}
}

// Systems splits System into the configurations it names.
func (s RunSpec) Systems() []string {
	return strings.FieldsFunc(s.System, func(r rune) bool { return r == ',' || r == ' ' })
}

// tracing reports whether the run records an event trace.
func (s RunSpec) tracing() bool { return s.Trace || s.TracePath != "" || s.MetricsPath != "" }

// ForFigure returns the spec with W replaced by the paper workload of
// figure f at the template's scale (W.Procs × UnitsPerProc), keeping the
// template's engine and loopback knobs.
func (s RunSpec) ForFigure(f FigureSpec) RunSpec {
	w := PaperWorkload(f, s.W.Procs, s.UnitsPerProc)
	w.Shards, w.Wire = s.W.Shards, s.W.Wire
	s.W = w
	return s
}

// flagTable declares every flag the benchmark CLIs share, once: its name,
// its help text and the RunSpec field it sets. A CLI exposes a subset by
// name (BindFlags); its defaults are the values of the spec it binds.
var flagTable = map[string]struct {
	help  string
	field func(*RunSpec) any
}{
	"system": {"system configuration to run: " + strings.Join(systemNames(false), ", ") + " (premabench: a comma-separated list runs them all on one workload)",
		func(s *RunSpec) any { return &s.System }},
	"procs": {"processors of the machine",
		func(s *RunSpec) any { return &s.W.Procs }},
	"units-per-proc": {"work units per processor",
		func(s *RunSpec) any { return &s.UnitsPerProc }},
	"stride": {"per-processor breakdown sampling stride (0 = summaries only)",
		func(s *RunSpec) any { return &s.Stride }},
	"jobs": {"max simulations in flight (0 = auto: one per CPU divided by -shards; output is identical for any value)",
		func(s *RunSpec) any { return &s.Jobs }},
	"shards": {"simulator backend: parallel event-loop shards per simulation (output is identical for any value)",
		func(s *RunSpec) any { return &s.W.Shards }},
	"wire": {"run the PREMA systems (the baselines have no codecs) behind the serialization loopback (internal/wire codec: encode at Send, deliver a decoded copy; output is identical)",
		func(s *RunSpec) any { return &s.W.Wire }},
	"backend": {"execution substrate: sim (deterministic simulator) | real (one goroutine per processor) | dist (premad node processes over TCP)",
		func(s *RunSpec) any { return &s.Backend }},
	"timescale": {"real and dist backends: wall seconds per virtual second",
		func(s *RunSpec) any { return &s.TimeScale }},
	"nodes": {"dist backend: node process count (required, together with -dist-listen)",
		func(s *RunSpec) any { return &s.Dist.Nodes }},
	"dist-listen": {"dist backend: coordinator listen address, host:port (required; port 0 picks a free one)",
		func(s *RunSpec) any { return &s.Dist.Listen }},
	premadName: {"dist backend: premad binary to spawn (default: next to this executable, then PATH)",
		func(s *RunSpec) any { return &s.Dist.Premad }},
	"dist-attach": {"dist backend: do not spawn node daemons; externally started premads dial the coordinator (one session per run)",
		func(s *RunSpec) any { return &s.Dist.Attach }},
	"fault-plan": {"fault plan injected at the substrate seam (internal/faulty syntax, e.g. \"drop=0.2,dup=0.1;stall:2@100s+20s\"; \"none\" = clean)",
		func(s *RunSpec) any { return &s.FaultPlan }},
	"fault-seed": {"fault injector seed",
		func(s *RunSpec) any { return &s.FaultSeed }},
	"reliable": {"switch DMCS into reliable-delivery mode",
		func(s *RunSpec) any { return &s.Reliable }},
	"rto": {"reliable mode: initial retransmission timeout in virtual time",
		func(s *RunSpec) any { return &s.RTO }},
	"recover": {"arm the crash-recovery subsystem so crash/recover plan clauses are survivable (implies -reliable)",
		func(s *RunSpec) any { return &s.Recover }},
	"checkpoint-interval": {"recovery: periodic object-checkpoint interval in virtual time (0 = default 1s)",
		func(s *RunSpec) any { return &s.CheckpointInterval }},
	"lease-timeout": {"recovery: heartbeat lease timeout in virtual time (0 = default: 500ms on sim, 250ms of wall clock on real)",
		func(s *RunSpec) any { return &s.LeaseTimeout }},
	"trace": {"write a Chrome trace_event JSON timeline (Perfetto-loadable) per traced run to FILE; multi-run commands insert the run's name before the extension, dist nodes nodeN",
		func(s *RunSpec) any { return &s.TracePath }},
	"metrics": {"write aggregated trace metrics per traced run to FILE (.json = JSON, else text; same suffixing as -trace)",
		func(s *RunSpec) any { return &s.MetricsPath }},
	"trace-ring": {"per-processor trace ring capacity in events (rounded up to a power of two): the most a processor's trace holds; memory is allocated as events arrive",
		func(s *RunSpec) any { return &s.TraceRing }},
}

// BindFlags declares the named flags of the shared table (space-separated)
// on fs, each defaulting to the current value of the field it sets.
func (s *RunSpec) BindFlags(fs *flag.FlagSet, names string) {
	for _, name := range strings.Fields(names) {
		f, ok := flagTable[name]
		if !ok {
			panic("bench: no flag " + name + " in the flag table")
		}
		switch p := f.field(s).(type) {
		case *string:
			fs.StringVar(p, name, *p, f.help)
		case *int:
			fs.IntVar(p, name, *p, f.help)
		case *int64:
			fs.Int64Var(p, name, *p, f.help)
		case *float64:
			fs.Float64Var(p, name, *p, f.help)
		case *bool:
			fs.BoolVar(p, name, *p, f.help)
		case *substrate.Time:
			// substrate.Time and time.Duration are both int64 nanoseconds
			// (substrate.FromDuration is a plain conversion).
			d := (*time.Duration)(p)
			fs.DurationVar(d, name, *d, f.help)
		}
	}
}

// ParseFlags is the front half every benchmark CLI shares: parse args into
// fs (created with flag.ContinueOnError), refuse positional arguments, run
// the CLI's own check (local), then Validate the spec the flags filled in.
// done reports that the command is over, with exit code: 0 after -h, 2
// after a usage error, which is reported on stderr as "<command>: <error>"
// before anything has run.
func (s *RunSpec) ParseFlags(fs *flag.FlagSet, args []string, stderr io.Writer, local func() error) (code int, done bool) {
	fs.SetOutput(stderr)
	err := fs.Parse(args)
	switch {
	case errors.Is(err, flag.ErrHelp):
		return 0, true
	case err != nil:
		return 2, true // the flag package has reported it
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if err == nil {
		err = local()
	}
	if err == nil {
		err = s.Validate()
	}
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", fs.Name(), err)
		return 2, true
	}
	return 0, false
}

// candidate is what the compatibility rules see: the spec, its parsed fault
// plan and its resolved systems.
type candidate struct {
	RunSpec
	plan    faulty.Plan
	systems []*systemDef
	// culprit is the value a rule's %q names: the system the last anySystem
	// match found, or the unknown backend.
	culprit string
}

// anySystem reports whether one of the spec's systems satisfies p, and
// remembers which for the rule's message.
func (c *candidate) anySystem(p func(*systemDef) bool) bool {
	for _, d := range c.systems {
		if p(d) {
			c.culprit = d.name
			return true
		}
	}
	return false
}

func (c *candidate) dist() bool     { return c.Backend == BackendDist }
func (c *candidate) failStop() bool { return len(c.plan.Crashes) > 0 || len(c.plan.Recovers) > 0 }
func (c *candidate) chaos() bool    { return c.Reliable || c.Recover || c.plan.Active() }

// rules is the compatibility matrix as data: Validate reports the message
// of the first row whose predicate holds (a %q in it names the culprit).
// Every message names the flags involved; DESIGN.md's "what composes with
// what" matrix is rendered from this table, and spec_test.go requires an
// accepted and a rejected case per row.
var rules = []struct {
	id  string
	bad func(*candidate) bool
	msg string
}{
	// Ranges. A float range is written as "not inside", which refuses NaN.
	{"procs-range", func(c *candidate) bool { return c.W.Procs < 1 || (c.W.Units < 1 && c.UnitsPerProc < 1) },
		"-procs and -units-per-proc must be positive"},
	{"stride-range", func(c *candidate) bool { return c.Stride < 0 },
		"-stride must be >= 0"},
	{"jobs-range", func(c *candidate) bool { return c.Jobs < 0 },
		"-jobs must be >= 0"},
	{"shards-range", func(c *candidate) bool { return c.W.Shards < 1 },
		"-shards must be >= 1"},
	{"timescale-range", func(c *candidate) bool { return !(c.TimeScale > 0 && c.TimeScale <= math.MaxFloat64) },
		"-timescale must be positive and finite"},
	{"rto-range", func(c *candidate) bool { return c.RTO <= 0 },
		"-rto must be positive"},
	{"recov-timers", func(c *candidate) bool { return c.CheckpointInterval < 0 || c.LeaseTimeout < 0 },
		"-checkpoint-interval and -lease-timeout must be >= 0"},
	{"trace-ring-range", func(c *candidate) bool { return c.TraceRing < 1 },
		"-trace-ring must be >= 1"},
	{"backend-name", func(c *candidate) bool {
		c.culprit = c.Backend
		return c.Backend != BackendSim && c.Backend != BackendReal && !c.dist()
	}, "unknown -backend %q (want sim, real, or dist)"},
	{"system-name", func(c *candidate) bool { return c.anySystem(func(d *systemDef) bool { return d.unknown() }) },
		"unknown -system %q"},

	// The distributed backend's own flags.
	{"dist-needs", func(c *candidate) bool { return c.dist() && (c.Dist.Nodes < 1 || c.Dist.Listen == "") },
		"-backend=dist requires -nodes and -dist-listen together"},
	{"dist-only", func(c *candidate) bool {
		return !c.dist() && (c.Dist.Nodes != 0 || c.Dist.Listen != "" || c.Dist.Premad != "" || c.Dist.Attach)
	}, "-nodes, -dist-listen, -premad, and -dist-attach apply to the distributed backend only; use -backend=dist"},
	{"dist-nodes", func(c *candidate) bool { return c.dist() && c.Dist.Nodes > c.W.Procs },
		"-nodes exceeds -procs (every node hosts at least one processor)"},
	{"probe", func(c *candidate) bool { return !c.dist() && c.anySystem(func(d *systemDef) bool { return d.probe }) },
		"-system %q is the distributed transport probe; use -backend=dist"},

	// What only the simulator offers.
	{"shards-sim", func(c *candidate) bool { return c.W.Shards > 1 && c.Backend != BackendSim },
		"-shards applies to the simulator backend only; use -backend=sim"},
	{"model-sim", func(c *candidate) bool {
		return c.Backend != BackendSim && c.anySystem(func(d *systemDef) bool { return d.model != nil })
	}, "-system %q is a cost model without a transport and is simulator-only; use -backend=sim"},

	// What needs a transport.
	{"transport", func(c *candidate) bool {
		return (c.W.Wire || c.tracing() || c.chaos()) && c.anySystem(func(d *systemDef) bool { return !d.transport() })
	}, "-system %q is a cost model without a transport; -wire, -trace, -metrics, -reliable, -fault-plan and -recover need a PREMA configuration"},

	// Crash recovery.
	{"recover-serial", func(c *candidate) bool { return c.Recover && c.W.Shards > 1 },
		"-recover requires a serial simulator; use -shards=1"},
	{"recover-dist", func(c *candidate) bool { return c.Recover && c.dist() },
		"-recover (fail-stop crash recovery) is not supported on the distributed backend"},
	{"failstop", func(c *candidate) bool { return c.failStop() && !c.Recover },
		"the -fault-plan schedules a fail-stop; add -recover to make it survivable"},
	// Fire-and-forget delivery never resends: one dropped work unit or
	// completion notice, and processor 0 waits for its count forever.
	{"drop-reliable", func(c *candidate) bool {
		lossy := c.plan.Default.Drop > 0
		for _, lf := range c.plan.Links {
			lossy = lossy || lf.Drop > 0
		}
		return lossy && !c.Reliable && !c.Recover
	}, "the -fault-plan drops messages, which only reliable delivery resends; add -reliable"},
	{"crash-target", func(c *candidate) bool {
		for _, cr := range c.plan.Crashes {
			if cr.Proc == 0 || cr.Proc >= c.W.Procs {
				return true
			}
		}
		return false
	}, "the -fault-plan may only crash processors 1 to -procs minus 1 (processor 0 is the head node and owns the completion counter)"},

	// What the distributed backend does differently.
	{"wire-dist", func(c *candidate) bool { return c.W.Wire && c.dist() },
		"-wire applies to the in-process backends; the distributed backend already serializes every remote message"},
	{"metrics-dist", func(c *candidate) bool { return c.MetricsPath != "" && c.dist() },
		"-metrics applies to the in-process backends; with -backend=dist use -trace, which each node writes as FILE.nodeN"},
}

// check is Validate for programmatic callers: zero-valued fields are
// spelled out first.
func (s RunSpec) check() error {
	if err := s.WithDefaults().Validate(); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	return nil
}

// Validate checks the spec against the rule table and returns the first
// violation, worded for the command line (it names the flags involved).
func (s RunSpec) Validate() error {
	plan, err := faulty.ParsePlan(s.FaultPlan)
	if err != nil {
		return fmt.Errorf("-fault-plan: %w", err)
	}
	c := &candidate{RunSpec: s, plan: plan}
	for _, name := range s.Systems() {
		c.systems = append(c.systems, lookupSystem(name))
	}
	for _, r := range rules {
		if r.bad(c) {
			if strings.Contains(r.msg, "%q") {
				return fmt.Errorf(r.msg, c.culprit)
			}
			return errors.New(r.msg)
		}
	}
	return nil
}
