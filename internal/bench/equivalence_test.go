package bench

import (
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"prema/internal/faulty"
	"prema/internal/substrate"
	"prema/internal/trace"
)

var (
	equivSeed = flag.Int64("equiv.seed", 0, "replay the one TestEquivalence draw with this seed")
	equivSpec = flag.String("equiv.spec", "", "run TestEquivalence on this hex RunSpec.Encode() instead of drawing")
)

// drawsPerSystem is how many accepted draws TestEquivalence runs per system.
const drawsPerSystem = 7

// equivSystems are the system table's rows a simulator runs: all but the
// distributed transport probe.
func equivSystems() []string {
	return slices.DeleteFunc(systemNames(false), func(name string) bool { return lookupSystem(name).probe })
}

// drawSpec draws one run. The seed picks the system (round robin over
// equivSystems, so the draws are stratified by system) and seeds every other
// knob, each drawn independently. The result may be a spec Validate refuses.
func drawSpec(seed int64) RunSpec {
	systems := equivSystems()
	rng := rand.New(rand.NewSource(seed))
	s := RunSpec{System: systems[uint64(seed)%uint64(len(systems))]}
	fig := FigureSpec{ID: 3 + rng.Intn(4), Imbalance: 0.1 + 0.8*rng.Float64(), Ratio: 1.1 + rng.Float64()}
	s.W = PaperWorkload(fig, 3+rng.Intn(6), 2+rng.Intn(3))
	s.W.Seed = rng.Int63n(1 << 40)
	if rng.Intn(2) == 0 {
		s.W.Hints = HintAccurate
	}
	s.W.Shards = []int{1, 2, 4, 7}[rng.Intn(4)]
	s.W.Wire = rng.Intn(2) == 0
	if rng.Intn(2) == 0 {
		s.Trace = true
		s.TraceRing = []int{256, trace.DefaultRingCap}[rng.Intn(2)]
	}
	s.Reliable = rng.Intn(2) == 0
	// An RTO shorter than a poll interval makes retransmission deadlines
	// expire inside quiet stretches even on a clean network.
	s.RTO = []substrate.Time{0, 3 * substrate.Millisecond, 15 * substrate.Millisecond}[rng.Intn(3)]
	s.Recover = rng.Intn(4) == 0
	if rng.Intn(2) == 0 {
		s.FaultPlan = drawPlan(rng, s)
		s.FaultSeed = rng.Int63()
	}
	return s
}

// drawPlan draws a fault plan for s, without fail-stops: each link fault at
// random, sometimes on one link only, and sometimes a stall. It leaves out
// two accepted combinations that are not output-invariant knobs. Under
// -recover a stall longer than the lease is a crash verdict (DESIGN §10,
// "Scope and limits"), so a recover draw gets no stall. Without reliable
// delivery multilist forks its fetch loop on every duplicated refusal and
// does not finish (`premabench -system prema-multilist -procs 8
// -units-per-proc 4 -fault-plan dup=0.1`), so it gets no dup.
func drawPlan(rng *rand.Rand, s RunSpec) string {
	faults := []string{"drop=%.2f", "delay=%.2f:2ms", "reorder=%.2f:3"}
	if s.Reliable || s.Recover || s.System != "prema-multilist" {
		faults = append(faults, "dup=%.2f")
	}
	var link []string
	for _, f := range faults {
		if rng.Intn(2) == 0 {
			link = append(link, fmt.Sprintf(f, 0.01+0.1*rng.Float64()))
		}
	}
	var clauses []string
	if len(link) > 0 {
		clause := strings.Join(link, ",")
		if rng.Intn(4) == 0 {
			clause = fmt.Sprintf("link:%d-%d:", rng.Intn(s.W.Procs), rng.Intn(s.W.Procs)) + clause
		}
		clauses = append(clauses, clause)
	}
	if !s.Recover && (len(clauses) == 0 || rng.Intn(3) == 0) {
		clauses = append(clauses, fmt.Sprintf("stall:%d@%ds+%ds", rng.Intn(s.W.Procs), rng.Intn(15), 1+rng.Intn(8)))
	}
	return strings.Join(clauses, ";")
}

// TestEquivalence is the equivalence harness. Every knob that exists for
// speed or observation — -shards, -wire, -trace, poll elision, and -recover
// without a crash — promises output identical to the run without it. For
// random specs the CLIs accept (RunSpec.Validate is the sampler), the run as
// the CLIs perform it is indistinguishable from its plain reference, the
// same run with every such knob off, and every processor's retained trace
// stream from a traced reference's. By default it runs drawsPerSystem
// accepted draws of every system; -equiv.seed and -equiv.spec replay one.
func TestEquivalence(t *testing.T) {
	if *equivSpec != "" {
		b, err := hex.DecodeString(*equivSpec)
		if err != nil {
			t.Fatal(err)
		}
		s, err := DecodeRunSpec(b)
		if err != nil {
			t.Fatal(err)
		}
		checkEquivalent(t, 0, s)
		return
	}
	if *equivSeed != 0 {
		s := drawSpec(*equivSeed)
		if err := s.check(); err != nil {
			t.Fatalf("seed %d draws a spec Validate refuses: %v", *equivSeed, err)
		}
		checkEquivalent(t, *equivSeed, s)
		return
	}
	systems := equivSystems()
	drawn, total := map[string]int{}, 0
	// Every system fills its quota well inside the seed bound; a system
	// Validate stops accepting fails the count below.
	for seed := int64(26_000); total < drawsPerSystem*len(systems) && seed < 36_000; seed++ {
		s := drawSpec(seed)
		if drawn[s.System] == drawsPerSystem || s.check() != nil {
			continue
		}
		drawn[s.System]++
		total++
		checkEquivalent(t, seed, s)
	}
	for _, sys := range systems {
		if drawn[sys] < 3 {
			t.Errorf("%s was drawn %d times; want at least 3", sys, drawn[sys])
		}
	}
}

// checkEquivalent runs s as the CLIs do and compares it against its plain
// reference: shards 1, no wire, no trace, no recovery (reliable delivery
// stays, since recovery implies it), stepped rather than elided. A traced
// draw also compares its streams against a traced stepped reference that
// keeps recovery, whose checkpoints are recorded events. The audits make
// sure each knob did something. A failure prints how to replay the draw by
// seed (0 for a replayed spec) and by its encoded spec.
func checkEquivalent(t *testing.T, seed int64, s RunSpec) {
	t.Helper()
	replay := fmt.Sprintf("go test ./internal/bench -run 'TestEquivalence$' -equiv.spec=%x", s.Encode())
	if seed != 0 {
		replay = fmt.Sprintf("go test ./internal/bench -run 'TestEquivalence$' -equiv.seed=%d\n      or: %s", seed, replay)
	}
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("%s procs=%d units=%d shards=%d wire=%v reliable=%v rto=%v faults=%q recover=%v trace=%v ring=%d: "+format+"\n  replay: %s",
			append(append([]any{s.System, s.W.Procs, s.W.Units, s.W.Shards, s.W.Wire, s.Reliable, s.RTO, s.FaultPlan, s.Recover, s.Trace, s.TraceRing},
				args...), replay)...)
	}
	got, err := s.Run()
	if err != nil {
		fail("%v", err)
		return
	}
	ref := s
	ref.W.Shards, ref.W.Wire, ref.Trace, ref.Recover = 1, false, false, false
	ref.Reliable = s.Reliable || s.Recover
	want, err := runStepped(ref)
	if err != nil {
		fail("plain reference: %v", err)
		return
	}
	if d := sameOutcome(got, want); d != "" {
		fail("differs from the plain reference: %s", d)
	}

	if want.PollsElided != 0 {
		fail("the stepped reference elided %d polls", want.PollsElided)
	}
	plan, _ := faulty.ParsePlan(s.FaultPlan) // Run has parsed it
	if got.PollsElided == 0 && slices.ContainsFunc(got.PollWakes, func(n int) bool { return n > 0 }) {
		fail("nothing was elided in %v poll wakes", got.PollWakes)
	}
	if d := ledgersSumToMakespan(got); d != "" {
		fail("%s", d)
	}
	if plan.Active() && got.Events == 0 {
		fail("engine telemetry hidden behind the injector: 0 events")
	}
	if s.W.Wire && (got.WireFrames == 0 || got.WireDrift != 0) {
		fail("the loopback encoded %d frames, %d of them over their modeled size", got.WireFrames, got.WireDrift)
	}
	if s.Recover && (got.Recov == nil || got.Recov.Checkpoints == 0) {
		fail("recovery took no checkpoints")
	}
	if !s.Trace {
		return
	}
	if got.Trace.Total() == 0 {
		fail("the traced run recorded no events")
	}
	ref.Trace, ref.Recover = true, s.Recover
	traced, err := runStepped(ref)
	if err != nil {
		fail("traced reference: %v", err)
		return
	}
	if d := sameStreams(got.Trace, traced.Trace); d != "" {
		fail("%s", d)
	}
}

// sameStreams says how two traced runs' recordings differ ("" when they do
// not): the totals recorded and dropped, and every processor's retained
// stream.
func sameStreams(a, b *trace.Collector) string {
	if a.Total() != b.Total() || a.Dropped() != b.Dropped() {
		return fmt.Sprintf("trace recorded %d events, dropped %d; the reference %d, %d", a.Total(), a.Dropped(), b.Total(), b.Dropped())
	}
	for i := 0; i < b.NumProcs(); i++ {
		if x, y := slices.Collect(a.Recorder(i).Events()), slices.Collect(b.Recorder(i).Events()); !reflect.DeepEqual(x, y) {
			return fmt.Sprintf("proc %d trace stream differs (%d vs %d events retained)", i, len(x), len(y))
		}
	}
	return ""
}

// The suites the harness replaced keep their names as pinned draws: the
// specs they ran, each checked by checkEquivalent against its plain
// reference, so a regression one of them caught fails under the same name.

// pinnedDraw checks one pinned draw as subtest name.
func pinnedDraw(t *testing.T, name string, s RunSpec) {
	t.Helper()
	t.Run(name, func(t *testing.T) { checkEquivalent(t, 0, s) })
}

// TestPolledEquivalenceProperty: clean draws — no fault plan, no recovery —
// where every poll wake-up may be elided, so the audit that something was
// elided holds on each.
func TestPolledEquivalenceProperty(t *testing.T) {
	for seed, n := int64(14_000), 0; n < 8; seed++ {
		if s := drawSpec(seed); s.FaultPlan == "" && !s.Recover && s.check() == nil {
			checkEquivalent(t, seed, s)
			n++
		}
	}
}

// TestShardEquivalenceProperty: random figure scenarios of every system on
// 2, 4 or 7 shards.
func TestShardEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 6; trial++ {
		fig := FigureSpec{ID: 3 + rng.Intn(4), Imbalance: 0.1 + 0.8*rng.Float64(), Ratio: 1.1 + rng.Float64()}
		procs, upp := 5+rng.Intn(20), 4+rng.Intn(8)
		s := RunSpec{System: SystemNames[rng.Intn(len(SystemNames))], W: PaperWorkload(fig, procs, upp)}
		s.W.Shards = []int{2, 4, 7}[rng.Intn(3)]
		if rng.Intn(2) == 0 {
			s.W.Hints = HintAccurate
		}
		pinnedDraw(t, fmt.Sprintf("trial%d_%s_p%d_s%d", trial, s.System, procs, s.W.Shards), s)
	}
}

// TestShardTraceEquivalence: traced sharded runs, the last behind the fault
// injector in reliable mode, where drops, duplicates, delays and the
// retransmissions they cause cross shard windows like any other message.
func TestShardTraceEquivalence(t *testing.T) {
	w := PaperWorkload(FigureSpec{ID: 3, Imbalance: 0.5, Ratio: 2.0}, 9, 6)
	for _, system := range []string{"none", "prema-explicit", "prema-implicit"} {
		for _, shards := range []int{2, 7} {
			s := RunSpec{System: system, W: w, Trace: true}
			s.W.Shards = shards
			pinnedDraw(t, fmt.Sprintf("%s_s%d", system, shards), s)
		}
	}
	s := RunSpec{System: "prema-implicit", W: w, Trace: true, Reliable: true,
		FaultPlan: "drop=0.05,dup=0.05,delay=0.2:2ms", FaultSeed: 11}
	s.W.Shards = 4
	pinnedDraw(t, "prema-implicit_faulted_s4", s)
}

// TestTracingIsObservational: traced runs of the traced systems; the plain
// reference runs untraced.
func TestTracingIsObservational(t *testing.T) {
	w := PaperWorkload(FigureSpec{ID: 3, Imbalance: 0.5, Ratio: 2.0}, 8, 8)
	for _, system := range []string{"none", "prema-explicit", "prema-implicit"} {
		pinnedDraw(t, system, RunSpec{System: system, W: w, Trace: true})
	}
}

// TestRecoveryNoCrashByteIdentical: -recover without a crash, whose
// checkpoint costs are reported in the recovery ledger, never timed. Its
// quiet polls elide as the plain run's do, so the simulator fires at most
// 10% more events than without -recover (4x as many while -recover stepped
// every poll).
func TestRecoveryNoCrashByteIdentical(t *testing.T) {
	for _, system := range []string{"prema-explicit", "prema-implicit"} {
		pinnedDraw(t, system, RunSpec{System: system, W: chaosWorkload(), Reliable: true, Recover: true})
	}
	s := RunSpec{System: "prema-implicit", W: chaosWorkload(), Reliable: true}
	plain, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	s.Recover = true
	rec, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Events*10 > plain.Events*11 {
		t.Errorf("-recover fired %d simulator events, the plain run %d", rec.Events, plain.Events)
	}
}

// TestWireEquivalenceSystems: the serialization loopback under the paper's
// PREMA stacks and the policy suite, on two figure scenarios.
func TestWireEquivalenceSystems(t *testing.T) {
	for _, fig := range []FigureSpec{Figures()[0], Figures()[3]} {
		for _, system := range append([]string{"none", "prema-explicit", "prema-implicit"}, policySystems...) {
			s := RunSpec{System: system, W: PaperWorkload(fig, 8, 8)}
			s.W.Wire = true
			checkEquivalent(t, 0, s)
		}
	}
}

// TestWireEquivalenceSharded: frames decode on the sending shard.
func TestWireEquivalenceSharded(t *testing.T) {
	s := RunSpec{System: "prema-implicit", W: PaperWorkload(Figures()[1], 16, 8)}
	s.W.Shards, s.W.Wire = 4, true
	checkEquivalent(t, 0, s)
}

// TestWireEquivalenceChaos: the loopback beneath the fault injector, so
// dropped, duplicated and retransmitted deliveries operate on decoded copies
// — the composition the distributed backend relies on.
func TestWireEquivalenceChaos(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	for trial := 0; trial < 4; trial++ {
		s := RunSpec{
			System: "prema-implicit",
			FaultPlan: fmt.Sprintf("drop=%.2f,dup=%.2f,delay=%.2f:200us,reorder=%.2f",
				0.05+0.2*rng.Float64(), 0.2*rng.Float64(), 0.2*rng.Float64(), 0.2*rng.Float64()),
			FaultSeed: rng.Int63(),
			Reliable:  true,
			W:         PaperWorkload(Figures()[trial%len(Figures())], 8, 8),
		}
		s.W.Wire = true
		checkEquivalent(t, 0, s)
	}
}

// sameOutcome says how two runs' outcomes differ ("" when they do not): the
// makespan, every processor's ledger, the counters, the residency, the poll
// wake-ups and the injector's ledger — everything a report prints or a check
// reads. It is the package's one identity check.
func sameOutcome(a, b *Result) string {
	switch {
	case a.Makespan != b.Makespan:
		return fmt.Sprintf("makespan %d vs %d ns", a.Makespan, b.Makespan)
	case len(a.Accounts) != len(b.Accounts):
		return fmt.Sprintf("%d vs %d ledgers", len(a.Accounts), len(b.Accounts))
	}
	for i := range a.Accounts {
		if a.Accounts[i] != b.Accounts[i] {
			return fmt.Sprintf("proc %d ledger (ns):\n%d\n%d", i, a.Accounts[i], b.Accounts[i])
		}
	}
	switch {
	case !reflect.DeepEqual(a.Counters, b.Counters):
		return fmt.Sprintf("counters %v vs %v", a.Counters, b.Counters)
	case !reflect.DeepEqual(a.Resident, b.Resident):
		return fmt.Sprintf("resident %v vs %v", a.Resident, b.Resident)
	case !reflect.DeepEqual(a.PollWakes, b.PollWakes):
		return fmt.Sprintf("poll wakes %v vs %v", a.PollWakes, b.PollWakes)
	case a.Faults != b.Faults:
		return fmt.Sprintf("faults %+v vs %+v", a.Faults, b.Faults)
	}
	return ""
}

// ledgersSumToMakespan says how a simulated run's ledgers fail to account
// for its elapsed time ("" when they do not): no processor's ledger may sum
// to more than the makespan, and the last to finish sums to exactly it.
func ledgersSumToMakespan(r *Result) string {
	var most substrate.Time
	for i, a := range r.Accounts {
		if a.Total() > r.Makespan {
			return fmt.Sprintf("proc %d ledger sums to %v, past the %v makespan", i, a.Total(), r.Makespan)
		}
		most = max(most, a.Total())
	}
	if most != r.Makespan {
		return fmt.Sprintf("the largest ledger sums to %v, not the %v makespan", most, r.Makespan)
	}
	return ""
}

// steppedMachine is the stepped reference for poll elision: a decorator
// whose endpoint declines every polled advance and hides every optional
// method of the stack beneath it. Above it ilb falls back to
// substrate.StepPolled, and every slice and every poll crosses the whole
// stack one Advance at a time, as before elision existed.
type steppedMachine struct{ substrate.Machine }

func (m steppedMachine) Unwrap() substrate.Machine { return m.Machine }

func (m steppedMachine) Spawn(name string, body func(substrate.Endpoint)) {
	m.Machine.Spawn(name, func(ep substrate.Endpoint) { body(steppedEndpoint{ep}) })
}

type steppedEndpoint struct{ substrate.Endpoint }

// TraceRecorder keeps trace.Of working through the decorator.
func (e steppedEndpoint) TraceRecorder() *trace.Recorder { return trace.Of(e.Endpoint) }

// AdvancePolled declines, so that the promoted method cannot elide.
func (steppedEndpoint) AdvancePolled(substrate.Time, substrate.PollSpec) (substrate.Time, int) {
	return 0, 0
}

// runStepped is RunSpec.Run with steppedMachine on top of the stack.
func runStepped(s RunSpec) (*Result, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	d := lookupSystem(s.System)
	st, err := s.buildStack(d, nil)
	if err != nil {
		return nil, err
	}
	st.m = steppedMachine{st.m}
	return s.runOn(d, st)
}
