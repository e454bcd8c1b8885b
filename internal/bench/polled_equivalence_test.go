package bench

import (
	"flag"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"prema/internal/substrate"
	"prema/internal/trace"
)

// steppedMachine is the stepped reference for poll elision: a decorator that
// embeds the interfaces, and so hides every optional method of the stack
// beneath it — substrate.PolledAdvancer included. Above it ilb falls back to
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

var polledSeed = flag.Int64("polled.seed", 0, "replay the one draw of TestPolledEquivalenceProperty with this seed")

// drawPolledSpec draws one run from the accepted feature matrix: system ×
// scale × seed × shards × wire × reliable × faults × trace × no-crash
// recovery.
func drawPolledSpec(seed int64) RunSpec {
	rng := rand.New(rand.NewSource(seed))
	systems := []string{"none", "prema-implicit", "prema-worksteal", "prema-diffusion", "prema-multilist"}
	figs := Figures()
	s := RunSpec{System: systems[rng.Intn(len(systems))]}
	s.W = PaperWorkload(figs[rng.Intn(len(figs))], 3+rng.Intn(8), 2+rng.Intn(4))
	s.W.Seed = rng.Int63n(1 << 40)
	s.W.Shards = []int{1, 2, 4}[rng.Intn(3)]
	s.W.Wire = rng.Intn(2) == 0
	if rng.Intn(2) == 0 {
		s.Trace = true
		s.TraceRing = []int{256, trace.DefaultRingCap}[rng.Intn(2)]
	}
	s.Reliable = rng.Intn(2) == 0
	// An RTO shorter than a poll interval makes retransmission deadlines
	// expire inside quiet stretches even on a clean network.
	s.RTO = []substrate.Time{0, 3 * substrate.Millisecond, 15 * substrate.Millisecond}[rng.Intn(3)]
	if s.Reliable && rng.Intn(3) == 0 {
		s.FaultPlan = fmt.Sprintf("drop=%.2f,dup=%.2f", 0.1*rng.Float64(), 0.1*rng.Float64())
		s.FaultSeed = rng.Int63()
	}
	if rng.Intn(4) == 0 {
		s.Recover, s.Reliable, s.W.Shards = true, true, 1
	}
	return s
}

// TestPolledEquivalenceProperty is the whole-stack half of the elision
// contract: for random accepted specs, the run as the CLIs perform it —
// AdvancePolled forwarded through trace and wire to the simulator, elided —
// is indistinguishable from the stepped reference in everything a Result
// carries and in every processor's trace stream.
func TestPolledEquivalenceProperty(t *testing.T) {
	var seeds []int64
	if *polledSeed != 0 {
		seeds = append(seeds, *polledSeed)
	} else {
		n := 40
		if testing.Short() {
			n = 8
		}
		for i := 0; i < n; i++ {
			seeds = append(seeds, 14_000+int64(i))
		}
	}
	for _, seed := range seeds {
		s := drawPolledSpec(seed)
		replay := fmt.Sprintf("replay: go test ./internal/bench -run TestPolledEquivalenceProperty -polled.seed=%d  (%s procs=%d units=%d shards=%d wire=%v reliable=%v rto=%v faults=%q recover=%v trace=%v ring=%d)",
			seed, s.System, s.W.Procs, s.W.Units, s.W.Shards, s.W.Wire, s.Reliable, s.RTO, s.FaultPlan, s.Recover, s.Trace, s.TraceRing)
		want, err := runStepped(s)
		if err != nil {
			t.Fatalf("stepped: %v\n%s", err, replay)
		}
		got, err := s.Run()
		if err != nil {
			t.Fatalf("elided: %v\n%s", err, replay)
		}
		fail := func(format string, args ...any) {
			t.Helper()
			t.Errorf(format+"\n%s", append(args, replay)...)
		}
		if got.Makespan != want.Makespan {
			fail("makespan %d, stepped %d", got.Makespan, want.Makespan)
		}
		if !reflect.DeepEqual(got.Accounts, want.Accounts) {
			fail("accounts (ns) differ")
		}
		if !reflect.DeepEqual(got.Counters, want.Counters) {
			fail("counters %v, stepped %v", got.Counters, want.Counters)
		}
		if !reflect.DeepEqual(got.Resident, want.Resident) {
			fail("resident %v, stepped %v", got.Resident, want.Resident)
		}
		if !reflect.DeepEqual(got.PollWakes, want.PollWakes) {
			fail("poll wakes %v, stepped %v", got.PollWakes, want.PollWakes)
		}
		if want.PollsElided != 0 {
			fail("the stepped reference elided %d polls", want.PollsElided)
		}
		if s.FaultPlan == "" && !s.Recover && got.PollsElided == 0 && sum(got.PollWakes) > 0 {
			fail("nothing was elided in %d poll wakes", sum(got.PollWakes))
		}
		if !s.Trace {
			continue
		}
		if a, b := got.Trace.Total(), want.Trace.Total(); a != b {
			fail("trace total %d, stepped %d", a, b)
		}
		if a, b := got.Trace.Dropped(), want.Trace.Dropped(); a != b {
			fail("trace drops %d, stepped %d", a, b)
		}
		for i := 0; i < want.Trace.NumProcs(); i++ {
			a, b := got.Trace.Recorder(i).Events(), want.Trace.Recorder(i).Events()
			if !reflect.DeepEqual(a, b) {
				fail("proc %d trace stream differs (%d vs %d events retained)", i, len(a), len(b))
			}
		}
	}
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}
