package bench

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"prema/internal/core"
	"prema/internal/dmcs"
	"prema/internal/faulty"
	"prema/internal/ilb"
	"prema/internal/mol"
	"prema/internal/recov"
	"prema/internal/rtm"
	"prema/internal/sim"
	"prema/internal/substrate"
)

// TestRecoveryCrashMidRun is the tentpole acceptance scenario: the figure-3
// chaos workload with one processor fail-stopping at 50% of the clean
// makespan must finish with the clean run's application-level outcome —
// every unit computed exactly once, every object resident exactly once —
// with checkpoint overhead below 5% of the clean makespan.
func TestRecoveryCrashMidRun(t *testing.T) {
	w := chaosWorkload()
	clean, err := RunSpec{System: "prema-implicit", W: w, Reliable: true}.Run()
	if err != nil {
		t.Fatal(err)
	}
	crashAt := clean.Makespan / 2
	res, err := RunSpec{
		System:    "prema-implicit",
		W:         w,
		FaultPlan: fmt.Sprintf("crash:3@%v", crashAt.Duration()),
		FaultSeed: 3,
		Reliable:  true,
		Recover:   true,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Faults; !st.Crashed {
		t.Fatalf("crash never fired: %+v", st)
	}
	if err := res.CheckConservation(); err != nil {
		t.Errorf("crashed run: %v", err)
	}
	if d := ledgersSumToMakespan(res); d != "" {
		t.Errorf("crashed run: %s", d)
	}
	if res.Counters["units_run"] != clean.Counters["units_run"] {
		t.Errorf("crashed run computed %d units, clean run %d",
			res.Counters["units_run"], clean.Counters["units_run"])
	}
	if res.Resident[3] != 0 {
		t.Errorf("crashed processor still hosts %d objects", res.Resident[3])
	}
	rs := res.Recov
	if rs == nil {
		t.Fatal("no recovery ledger on a -recover run")
	}
	if rs.Suspects != 1 {
		t.Errorf("suspects = %d, want 1", rs.Suspects)
	}
	if rs.ObjectsRecovered == 0 {
		t.Error("no objects re-homed from checkpoints")
	}
	if rs.Checkpoints == 0 {
		t.Error("no checkpoints taken")
	}
	// Checkpoint overhead: total modeled cost averaged over processors,
	// against the clean makespan.
	perProc := rs.Charged.Seconds() / float64(w.Procs)
	if lim := 0.05 * clean.Makespan.Seconds(); perProc >= lim {
		t.Errorf("checkpoint overhead %.3fs/proc >= 5%% of clean makespan (%.1fs)", perProc, clean.Makespan.Seconds())
	}
}

// TestRecoveryElidesExactly: crashed -recover runs elide their quiet polls
// up to the recovery heartbeat's next act (recov.Proc.NextAct) and are still
// exactly the stepped run, trace streams included. Each term of the deadline
// has a spec here that fails without it, and one that fails if it wakes
// 2 ms late; the diffusion tie also fails if same-instant wakes fire in push
// order (sim's wake ordering key), since two of its processors poll the
// store at the same nanosecond.
func TestRecoveryElidesExactly(t *testing.T) {
	crash := func(system, plan string) RunSpec {
		return RunSpec{System: system, W: chaosWorkload(), FaultPlan: plan, FaultSeed: 3, Reliable: true, Recover: true}
	}
	traced := func(s RunSpec) RunSpec { s.Trace = true; return s }
	lossy := crash("prema-implicit", "drop=0.05,dup=0.05;crash:3@35s;recover:3@50s")
	lossy.FaultSeed = 5
	wide := traced(crash("prema-implicit", "crash:7@60s"))
	wide.W = PaperWorkload(Figures()[0], 32, 16)
	tie := crash("prema-diffusion", "crash:3@52110353us")
	tie.FaultSeed = 11
	for _, c := range []struct {
		name string
		s    RunSpec
	}{
		{"implicit", crash("prema-implicit", "crash:3@35s")},
		{"implicit_traced", traced(crash("prema-implicit", "crash:3@35s"))},
		{"implicit_rejoin", crash("prema-implicit", "crash:3@35s;recover:3@50s")},
		{"explicit_rejoin", crash("prema-explicit", "crash:3@35s;recover:3@50s")},
		{"implicit_two_crashes", crash("prema-implicit", "crash:2@20s;crash:5@40s")},
		{"diffusion", crash("prema-diffusion", "crash:3@35s")},
		{"multilist", crash("prema-multilist", "crash:3@35s")},
		{"diffusion_tie", tie},
		{"implicit_lossy_rejoin", lossy},
		{"implicit_32x16_traced", wide},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, err := c.s.Run()
			if err != nil {
				t.Fatal(err)
			}
			want, err := runStepped(c.s)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Faults.Crashed {
				t.Fatalf("crash never fired: %+v", got.Faults)
			}
			if d := sameOutcome(got, want); d != "" {
				t.Errorf("differs from the stepped run: %s", d)
			}
			if c.s.Trace {
				if d := sameStreams(got.Trace, want.Trace); d != "" {
					t.Error(d)
				}
			}
			if got.PollsElided == 0 && slices.ContainsFunc(got.PollWakes, func(n int) bool { return n > 0 }) {
				t.Errorf("nothing was elided in %v poll wakes", got.PollWakes)
			}
			if d := ledgersSumToMakespan(got); d != "" {
				t.Error(d)
			}
		})
	}
	// The forwarding-chain program parks envelopes for directory repair.
	t.Run("chain", func(t *testing.T) {
		plan, err := faulty.ParsePlan("crash:2@8s")
		if err != nil {
			t.Fatal(err)
		}
		run := func(step bool) substrate.Machine {
			fm := faulty.Wrap(sim.NewMachine(sim.Config{Seed: 2, Lockstep: true}), plan, 7)
			var m substrate.Machine = fm
			if step {
				m = steppedMachine{fm}
			}
			runChainThroughCrash(t, m, fm, 0)
			return fm
		}
		got, want := run(false), run(true)
		if got.Makespan() != want.Makespan() {
			t.Errorf("makespan %v, stepped %v", got.Makespan(), want.Makespan())
		}
		for i := 0; i < want.NumProcs(); i++ {
			if *got.Account(i) != *want.Account(i) {
				t.Errorf("proc %d ledger %v, stepped %v", i, *got.Account(i), *want.Account(i))
			}
		}
	})
}

// TestRecoveryRejoin: a crash:P;recover:P plan re-spawns the processor,
// which re-joins the machine and takes part in the rest of the run. The
// application outcome is still exactly-once, under every policy of the
// suite.
func TestRecoveryRejoin(t *testing.T) {
	for _, sys := range append([]string{"prema-implicit"}, policySystems...) {
		res, err := RunSpec{
			System:    sys,
			W:         chaosWorkload(),
			FaultPlan: "crash:3@35s;recover:3@50s",
			FaultSeed: 3,
			Reliable:  true,
			Recover:   true,
		}.Run()
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if st := res.Faults; !st.Crashed || st.Rejoins != 1 {
			t.Fatalf("%s: faults = %+v, want 1 crash + 1 rejoin", sys, st)
		}
		if err := res.CheckConservation(); err != nil {
			t.Errorf("%s: %v", sys, err)
		}
		if d := ledgersSumToMakespan(res); d != "" {
			t.Errorf("%s: %s", sys, d)
		}
		if res.Counters["recov_rejoins"] != 1 {
			t.Errorf("%s: recov_rejoins = %d, want 1", sys, res.Counters["recov_rejoins"])
		}
	}
}

// TestRecoveryRealBackend: the same crash-at-midpoint scenario survives on
// the real-concurrency backend, where failure detection runs on (scaled)
// wall-clock leases instead of deterministic virtual time.
func TestRecoveryRealBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("real backend recovery test in -short mode")
	}
	w := PaperWorkload(FigureSpec{ID: 3, Imbalance: 0.5, Ratio: 2.0}, 4, 2)
	res, err := RunSpec{
		System:    "prema-implicit",
		W:         w,
		FaultPlan: "crash:3@8s",
		FaultSeed: 3,
		Reliable:  true,
		Backend:   BackendReal,
		TimeScale: 1e-1,
		Recover:   true,
		// 3s of virtual time = 300ms of wall clock at this timescale:
		// comfortably above scheduling jitter, far below the run length.
		LeaseTimeout: 3 * substrate.Second,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Faults.Crashed {
		t.Fatal("crash never fired")
	}
	if err := res.CheckConservation(); err != nil {
		t.Error(err)
	}
	if res.Recov == nil || res.Recov.Suspects == 0 {
		t.Error("real backend: crash never detected")
	}
}

// chainTarget is the observed object of the forwarding-chain property test:
// it records every payload delivered to it, in delivery order.
type chainTarget struct {
	mu       sync.Mutex
	received []int
}

// runChainThroughCrash drives the property test: a mobile object is homed on
// processor 1 and migrated to processor 2; processor 0 streams sequenced
// payloads at it through the forwarding chain; processor 2 fail-stops
// mid-stream. After directory repair and orphan re-homing, every payload
// must have been delivered exactly once, in per-origin order.
func runChainThroughCrash(t *testing.T, m substrate.Machine, fm *faulty.Machine, lease substrate.Time) {
	t.Helper()
	const (
		procs    = 4
		payloads = 30
	)
	store := recov.NewStore(recov.Config{LeaseTimeout: lease})
	target := &chainTarget{}
	targetMP := mol.MobilePtr{Home: 1, Index: 0}
	for p := 0; p < procs; p++ {
		m.Spawn("p", func(ep substrate.Endpoint) {
			opts := core.Options{
				LB:       ilb.DefaultConfig(ilb.Implicit),
				Mol:      mol.DefaultConfig(),
				Rel:      dmcs.DefaultRelConfig(),
				Recovery: store,
			}
			r := core.NewRuntime(ep, opts)
			var hPump mol.HandlerID
			hPayload := r.RegisterHandler(func(l *mol.Layer, obj *mol.Object, src int, data any, size int) {
				tg := obj.Data.(*chainTarget)
				tg.mu.Lock()
				tg.received = append(tg.received, data.(int))
				n := len(tg.received)
				tg.mu.Unlock()
				if n == payloads {
					r.StopAll()
				}
			})
			hHop := r.RegisterHandler(func(l *mol.Layer, obj *mol.Object, src int, data any, size int) {
				// Park on processor 1 for a while before hopping to 2, so the
				// stream establishes a forwarding chain first.
				r.Compute(3 * substrate.Second)
				if err := l.Migrate(obj.MP, data.(int)); err != nil {
					t.Errorf("migrate: %v", err)
				}
			})
			hPump = r.RegisterHandler(func(l *mol.Layer, obj *mol.Object, src int, data any, size int) {
				i := data.(int)
				r.Compute(500 * substrate.Millisecond)
				l.Message(targetMP, hPayload, i, 8, substrate.TagApp, 0)
				if i+1 < payloads {
					l.Message(obj.MP, hPump, i+1, 8, substrate.TagApp, 0)
				}
			})
			switch ep.ID() {
			case 0:
				pump := r.Register(struct{}{}, 16)
				r.Message(pump, hPump, 0, 8, 0)
			case 1:
				mp := r.Register(target, 64)
				if mp != targetMP {
					t.Errorf("target registered as %v, want %v", mp, targetMP)
				}
				r.Message(mp, hHop, 2, 8, 0)
			}
			r.Run()
		})
	}
	fm.OnRejoin(func(id int) func(substrate.Endpoint) {
		t.Errorf("unexpected rejoin of processor %d (no recover clause in plan)", id)
		return func(substrate.Endpoint) {}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	target.mu.Lock()
	defer target.mu.Unlock()
	if len(target.received) != payloads {
		t.Fatalf("delivered %d payloads, want %d: %v", len(target.received), payloads, target.received)
	}
	for i, v := range target.received {
		if v != i {
			t.Fatalf("payload %d delivered out of order (or duplicated): got %d\nfull order: %v", i, v, target.received)
		}
	}
	if st := store.Stats(); st.Suspects == 0 || st.ObjectsRecovered == 0 {
		t.Errorf("recovery never engaged: %+v", st)
	}
}

// TestRecoveryChainThroughCrash runs the forwarding-chain property on both
// backends. The object is resident on the crashing processor, so the test
// exercises checkpoint restore, manifest-based re-resolution of a pointer
// whose chain dead-ends in the crash, and per-origin replay dedup at once.
func TestRecoveryChainThroughCrash(t *testing.T) {
	plan, err := faulty.ParsePlan("crash:2@8s")
	if err != nil {
		t.Fatal(err)
	}
	t.Run("sim", func(t *testing.T) {
		fm := faulty.Wrap(sim.NewMachine(sim.Config{Seed: 2}), plan, 7)
		runChainThroughCrash(t, fm, fm, 0)
	})
	t.Run("rtm", func(t *testing.T) {
		if testing.Short() {
			t.Skip("real backend chain test in -short mode")
		}
		cfg := rtm.DefaultConfig()
		cfg.Seed = 2
		cfg.TimeScale = 1e-1
		fm := faulty.Wrap(rtm.New(cfg), plan, 7)
		// 2s virtual = 200ms wall at this timescale.
		runChainThroughCrash(t, fm, fm, 2*substrate.Second)
	})
}
