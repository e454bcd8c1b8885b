package rtm_test

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"prema/internal/core"
	"prema/internal/dmcs"
	"prema/internal/faulty"
	"prema/internal/ilb"
	"prema/internal/mol"
	"prema/internal/rtm"
	"prema/internal/sim"
	"prema/internal/substrate"
	"prema/internal/trace"
	"prema/internal/wire"
)

// unitEv is the logical identity of one executed work unit: which object,
// which sending processor, and that sender's per-object sequence number.
type unitEv struct {
	obj    int64
	origin int64
	seq    int64
}

// traceSummary is the backend-independent view of one processor's trace: the
// counts of every timing-independent event kind, plus the executed units in
// dispatch order. Spans, receives, and policy decisions are deliberately
// excluded — their counts depend on wait timing, which differs by design
// between the simulator and the real-concurrency machine.
type traceSummary struct {
	counts map[trace.Kind]int
	units  []unitEv
}

// counter is the objects' data: the work messages each has received. It
// crosses the codec when an object migrates on a wire-wrapped machine.
type counter struct{ n int }

func init() {
	mol.RegisterDataCodec(wire.KindUser+2, &counter{},
		func(data any) []byte { return binary.AppendUvarint(nil, uint64(data.(*counter).n)) },
		func(b []byte) any {
			n, _ := binary.Uvarint(b)
			return &counter{n: int(n)}
		})
}

// runTracedConformance executes a program-driven workload (adapted from
// runConformance: no balancing policy, migrations decided before any work
// message) with the tracing decorator attached, and returns the per-processor
// trace summaries and the collector. Each processor sends msgsPer messages to
// every object, so per-(object, origin) sequence numbers exercise the
// in-order guarantee; each message computes work under the scheduler's mode.
func runTracedConformance(t *testing.T, m substrate.Machine, mode ilb.Mode, work substrate.Time, procs, objects, msgsPer int) ([]traceSummary, *trace.Collector) {
	t.Helper()
	col := trace.NewCollector(0)
	tm := trace.Wrap(m, col)
	for p := 0; p < procs; p++ {
		tm.Spawn(fmt.Sprintf("p%d", p), func(ep substrate.Endpoint) {
			opts := core.DefaultOptions(mode)
			opts.Mol.NotifyOrigin = false
			r := core.NewRuntime(ep, opts)
			self := ep.ID()

			done := 0
			var hDone dmcs.HandlerID
			hDone = r.Comm().Register(func(c *dmcs.Comm, src int, data any, size int) {
				done++
				if done == objects {
					r.StopAll()
				}
			})
			var hWork mol.HandlerID
			hWork = r.RegisterHandler(func(l *mol.Layer, obj *mol.Object, src int, data any, size int) {
				c := obj.Data.(*counter)
				c.n++
				r.Compute(work)
				if c.n == procs*msgsPer {
					r.Comm().SendTagged(0, hDone, nil, 8, substrate.TagApp)
				}
			})
			sendAll := func() {
				for k := 0; k < msgsPer; k++ {
					for i := 0; i < objects; i++ {
						r.Message(mol.MobilePtr{Home: 0, Index: i}, hWork, nil, 8, 0.001)
					}
				}
			}
			hReady := r.Comm().Register(func(c *dmcs.Comm, src int, data any, size int) {
				sendAll()
			})

			if self == 0 {
				for i := 0; i < objects; i++ {
					r.Register(&counter{}, 128)
				}
				for i := 0; i < objects; i++ {
					if dst := i % procs; dst != 0 {
						if err := r.Mol().Migrate(mol.MobilePtr{Home: 0, Index: i}, dst); err != nil {
							t.Error(err)
						}
					}
				}
				for q := 1; q < procs; q++ {
					r.Comm().SendTagged(q, hReady, nil, 8, substrate.TagApp)
				}
				sendAll()
			}
			r.Run()
		})
	}
	if err := tm.Run(); err != nil {
		t.Fatal(err)
	}
	if col.Dropped() != 0 {
		t.Fatalf("trace ring overflowed (%d dropped); grow the ring for this test", col.Dropped())
	}

	sums := make([]traceSummary, procs)
	for p := 0; p < procs; p++ {
		s := traceSummary{counts: map[trace.Kind]int{}}
		for e := range col.Recorder(p).Events() {
			switch e.Kind {
			case trace.EvSend, trace.EvForward, trace.EvMigrateOut, trace.EvMigrateIn,
				trace.EvUnitBegin, trace.EvUnitEnd, trace.EvRetransmit, trace.EvStop:
				s.counts[e.Kind]++
			}
			if e.Kind == trace.EvUnitBegin {
				s.units = append(s.units, unitEv{obj: e.A, origin: e.B, seq: e.C})
			}
		}
		sums[p] = s
	}
	return sums, col
}

// sortedUnits returns a canonically ordered copy for multiset comparison.
func sortedUnits(us []unitEv) []unitEv {
	out := append([]unitEv(nil), us...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].obj != out[j].obj {
			return out[i].obj < out[j].obj
		}
		if out[i].origin != out[j].origin {
			return out[i].origin < out[j].origin
		}
		return out[i].seq < out[j].seq
	})
	return out
}

// TestCrossBackendTraceConformance: both backends must emit the same logical
// event stream for a program-driven workload — identical per-processor counts
// of sends, forwards, migrations, and work units, and identical unit dispatch
// identity with per-(object, origin) sequence numbers delivered in order.
// Only timestamps (virtual vs wall clock) and wait-dependent events may
// differ.
func TestCrossBackendTraceConformance(t *testing.T) {
	const procs, objects, msgsPer = 4, 8, 3
	simSums, _ := runTracedConformance(t, sim.NewMachine(sim.Config{Seed: 11}), ilb.Explicit, substrate.Millisecond, procs, objects, msgsPer)
	cfg := rtm.DefaultConfig()
	cfg.Seed = 11
	rtmSums, _ := runTracedConformance(t, rtm.New(cfg), ilb.Explicit, substrate.Millisecond, procs, objects, msgsPer)

	for p := 0; p < procs; p++ {
		if !reflect.DeepEqual(simSums[p].counts, rtmSums[p].counts) {
			t.Errorf("proc %d event counts diverge:\n sim: %v\n rtm: %v", p, simSums[p].counts, rtmSums[p].counts)
		}
		// The set of units each processor dispatched must agree exactly;
		// the interleaving across different origins is timing-dependent (the
		// per-origin order is asserted below, on both backends).
		if a, b := sortedUnits(simSums[p].units), sortedUnits(rtmSums[p].units); !reflect.DeepEqual(a, b) {
			t.Errorf("proc %d dispatched different units:\n sim: %v\n rtm: %v", p, a, b)
		}
	}

	// The streams must also be self-consistent on both backends.
	for name, sums := range map[string][]traceSummary{"sim": simSums, "rtm": rtmSums} {
		units, migIn, migOut := 0, 0, 0
		for p, s := range sums {
			units += s.counts[trace.EvUnitBegin]
			migIn += s.counts[trace.EvMigrateIn]
			migOut += s.counts[trace.EvMigrateOut]
			if s.counts[trace.EvUnitBegin] != s.counts[trace.EvUnitEnd] {
				t.Errorf("%s proc %d: %d unit begins but %d ends", name, p, s.counts[trace.EvUnitBegin], s.counts[trace.EvUnitEnd])
			}
			// Per (object, origin), sequence numbers must arrive in order.
			last := map[[2]int64]int64{}
			for _, u := range s.units {
				k := [2]int64{u.obj, u.origin}
				if prev, seen := last[k]; seen && u.seq <= prev {
					t.Errorf("%s proc %d: object %d origin %d ran seq %d after %d", name, p, u.obj, u.origin, u.seq, prev)
				}
				last[k] = u.seq
			}
		}
		if want := procs * objects * msgsPer; units != want {
			t.Errorf("%s: %d units executed, want %d", name, units, want)
		}
		if migOut != migIn {
			t.Errorf("%s: %d migrate-outs but %d migrate-ins", name, migOut, migIn)
		}
	}
}

// TestTracedRTMSpansMatchLedger: over the wall-clock machine, trace replays
// the polls a polled advance skipped at their nominal boundaries and lets
// the last compute span absorb the overshoot, so each processor's Polling
// Thread spans are its poll wake-ups times the poll cost, and its Compute
// and Polling Thread spans together cover what its ledger charged — the
// spans bracket the endpoint's own measurements, so they may only exceed it,
// and by little. Every stacking the CLIs build is checked, and each elides:
// trace over rtm, over wire over rtm, and over faulty over rtm with delayed
// and reordered links.
func TestTracedRTMSpansMatchLedger(t *testing.T) {
	const procs, objects, msgsPer = 4, 8, 3
	const work = 55 * substrate.Millisecond    // five polls a unit
	const pollCost = 4 * substrate.Microsecond // ilb's, per wake-up
	cfg := rtm.DefaultConfig()
	cfg.TimeScale = 1e-2
	cfg.Seed = 11
	plan, err := faulty.ParsePlan("delay=0.1:2ms,reorder=0.1")
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		wrap func(substrate.Machine) substrate.Machine
	}{
		{"trace/rtm", func(m substrate.Machine) substrate.Machine { return m }},
		{"trace/wire/rtm", func(m substrate.Machine) substrate.Machine { return wire.Wrap(m) }},
		{"trace/faulty/rtm", func(m substrate.Machine) substrate.Machine { return faulty.Wrap(m, plan, 3) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			elides := c.wrap(rtm.New(cfg))
			elides.Spawn("p", func(ep substrate.Endpoint) {
				ps := substrate.PollSpec{Interval: 10 * substrate.Millisecond, Cost: pollCost, WakeBy: substrate.Never}
				if done, polls := ep.AdvancePolled(work, ps); done != work || polls != 5 {
					t.Errorf("a quiet unit advanced (%v, %d), want (%v, 5) in one call", done, polls, work)
				}
			})
			if err := elides.Run(); err != nil {
				t.Fatal(err)
			}
			m := c.wrap(rtm.New(cfg))
			sums, col := runTracedConformance(t, m, ilb.Implicit, work, procs, objects, msgsPer)
			units := 0
			for p := 0; p < procs; p++ {
				units += sums[p].counts[trace.EvUnitBegin]
				var spans [substrate.NumCategories]substrate.Time
				wakes := 0
				for e := range col.Recorder(p).Events() {
					switch {
					case e.Kind == trace.EvSpan:
						spans[e.A] += e.Dur
					case e.Kind == trace.EvPolicy && e.A == trace.PolPollWake:
						wakes++
					}
				}
				acct := m.Account(p)
				if wakes == 0 {
					t.Errorf("proc %d: no poll wake-ups traced", p)
				}
				if want := substrate.Time(wakes) * pollCost; spans[substrate.CatPollThread] != want || acct[substrate.CatPollThread] != want {
					t.Errorf("proc %d: polling thread spans %v, ledger %v; want %d wake-ups x %v = %v",
						p, spans[substrate.CatPollThread], acct[substrate.CatPollThread], wakes, pollCost, want)
				}
				traced := spans[substrate.CatCompute] + spans[substrate.CatPollThread]
				charged := acct[substrate.CatCompute] + acct[substrate.CatPollThread]
				if traced < charged || traced-charged > charged/20 {
					t.Errorf("proc %d: compute + polling spans %v, ledger %v: want the spans at most 5%% above", p, traced, charged)
				}
			}
			if want := procs * objects * msgsPer; units != want {
				t.Errorf("%d units executed, want %d", units, want)
			}
		})
	}
}
