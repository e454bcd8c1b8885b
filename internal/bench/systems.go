package bench

import (
	"fmt"

	"prema/internal/ilb"
	"prema/internal/policy"
	"prema/internal/substrate"
)

// systemDef is one row of the system table: what a named system
// configuration runs on. At most one of prema, model and probe is set; a
// row with none is the placeholder lookupSystem returns for an unknown name.
type systemDef struct {
	name string
	// figure marks the six per-figure configurations.
	figure bool
	// prema builds the PremaConfig of a system on the PREMA driver
	// (RunPremaOn): any backend, reliable delivery, fault tolerance and
	// crash recovery.
	prema func() PremaConfig
	// model runs a third-party baseline. It speaks dmcs over the seam like
	// PREMA, but its payloads have no codecs, it has no reliable delivery,
	// and its processors share work-list slices and, in the
	// stop-and-repartition model, each round's plan (computed once on the
	// host, charged to every processor in virtual time), so it stays on the
	// bare simulator: nothing to wire-wrap, fault or move to a wall-clock
	// backend.
	model func(substrate.Machine, Workload) (*Result, error)
	// probe marks the two-rank transport round-trip probe of the
	// distributed backend.
	probe bool
}

// transport reports whether the system's traffic can be decorated and
// moved: encoded by wire, dropped by faulty, recorded by trace, carried by a
// wall-clock backend. Every row but the baselines.
func (d *systemDef) transport() bool { return d.model == nil }

func (d *systemDef) unknown() bool {
	return d.prema == nil && d.model == nil && !d.probe
}

// config returns a PREMA row's driver configuration, labelled with the
// row's name.
func (d *systemDef) config() PremaConfig {
	cfg := d.prema()
	cfg.name = d.name
	return cfg
}

func premaSystem(mode ilb.Mode, balance bool) func() PremaConfig {
	return func() PremaConfig { return DefaultPremaConfig(mode, balance) }
}

// policySystem is implicit-mode PREMA under another policy of the paper's
// suite (§4), polling after every unit; nil keeps work stealing.
func policySystem(mk func(Workload) ilb.Policy) func() PremaConfig {
	return func() PremaConfig {
		cfg := DefaultPremaConfig(ilb.Implicit, true)
		cfg.LB.PollEvery = 1
		cfg.Policy = mk
		return cfg
	}
}

func diffusionPolicy(w Workload) ilb.Policy {
	cfg := policy.DefaultDiffConfig()
	cfg.MinTransfer = w.MeanWeight()
	cfg.MaxObjects = 2
	return policy.NewDiffusion(cfg)
}

func multilistPolicy(w Workload) ilb.Policy {
	cfg := policy.DefaultMLConfig()
	cfg.HighMark = 4 * w.MeanWeight()
	cfg.LowMark = 2 * w.MeanWeight()
	return policy.NewMultiList(cfg)
}

func parmetisSystem(m substrate.Machine, w Workload) (*Result, error) {
	return runRepartition("parmetis", m, w, w.application(), DefaultParmetisConfig())
}

func charmSystem(syncPoints int) func(substrate.Machine, Workload) (*Result, error) {
	return func(m substrate.Machine, w Workload) (*Result, error) {
		return runCharm(m, w, DefaultCharmConfig(syncPoints))
	}
}

// systemTable is the one name → driver dispatch behind RunSpec.Run,
// RunSystem, RunSystemOn, PremaConfigFor, HasTransport, SystemNames and the
// -system help text.
var systemTable = []systemDef{
	{name: "none", figure: true, prema: premaSystem(ilb.Implicit, false)},
	{name: "prema-explicit", figure: true, prema: premaSystem(ilb.Explicit, true)},
	{name: "prema-implicit", figure: true, prema: premaSystem(ilb.Implicit, true)},
	{name: "parmetis", figure: true, model: parmetisSystem},
	{name: "charm", figure: true, model: charmSystem(0)},
	{name: "charm-sync4", figure: true, model: charmSystem(4)},
	{name: "prema-worksteal", prema: policySystem(nil)},
	{name: "prema-diffusion", prema: policySystem(diffusionPolicy)},
	{name: "prema-multilist", prema: policySystem(multilistPolicy)},
	{name: "pingpong", probe: true},
}

// SystemNames lists the six per-figure configurations, in the paper's
// subfigure order (a)-(f).
var SystemNames = systemNames(true)

// systemNames lists the table's rows in order, or only the figure rows.
func systemNames(figureOnly bool) (names []string) {
	for _, d := range systemTable {
		if d.figure || !figureOnly {
			names = append(names, d.name)
		}
	}
	return names
}

// lookupSystem returns the table row for name, or a placeholder row
// (unknown() == true) carrying the name.
func lookupSystem(name string) *systemDef {
	for i := range systemTable {
		if systemTable[i].name == name {
			return &systemTable[i]
		}
	}
	return &systemDef{name: name}
}

// HasTransport reports whether a named system can be traced, wire-wrapped,
// faulted and run on the real and distributed backends. The third-party
// baselines (parmetis, charm*) cannot — no codecs, no reliable delivery —
// and unknown names have nothing at all.
func HasTransport(name string) bool {
	d := lookupSystem(name)
	return !d.unknown() && d.transport()
}

// RunSystem executes one named system configuration on w, on the
// deterministic simulator (wire-wrapped when w.Wire is set).
func RunSystem(name string, w Workload) (*Result, error) {
	return RunSpec{System: name, W: w}.Run()
}

// PremaConfigFor returns the driver configuration behind a PREMA system
// name ("none" and the "prema-*" rows), for harnesses that customize it
// before calling RunPremaOn. Every other system has no PremaConfig and is
// rejected.
func PremaConfigFor(name string) (PremaConfig, error) {
	if d := lookupSystem(name); d.prema != nil {
		return d.config(), nil
	}
	return PremaConfig{}, fmt.Errorf("bench: system %q is unknown or has no PremaConfig", name)
}

// RunSystemOn executes one named system configuration on an arbitrary
// execution substrate. The third-party baselines (parmetis, charm*) are
// simulator-only (see systemDef.model) and are rejected here.
func RunSystemOn(name string, m substrate.Machine, w Workload) (*Result, error) {
	d := lookupSystem(name)
	if !d.transport() {
		return nil, fmt.Errorf("bench: system %q is simulator-only", name)
	}
	return RunSpec{System: name, W: w}.runOn(d, &stack{m: m})
}
