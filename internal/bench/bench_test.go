package bench

import (
	"testing"

	"prema/internal/sim"
)

func smallSpec() FigureSpec { return FigureSpec{ID: 3, Imbalance: 0.5, Ratio: 2.0} }

// smallWorkload is a 16-processor, 256-unit miniature of the paper setup.
func smallWorkload(spec FigureSpec) Workload {
	return PaperWorkload(spec, 16, 16)
}

// runParmetis runs the stop-and-repartition driver on the simulator under a
// customised configuration.
func runParmetis(w Workload, cfg ParmetisConfig) (*Result, error) {
	return runRepartition("parmetis", w.simMachine(), w, w.application(), cfg)
}

func TestWorkloadProperties(t *testing.T) {
	w := smallWorkload(smallSpec())
	if w.NumHeavy() != 128 {
		t.Fatalf("heavy = %d", w.NumHeavy())
	}
	if !w.IsHeavy(0) || w.IsHeavy(128) {
		t.Fatal("heavy units must occupy the lowest indices")
	}
	if w.Actual(0) != 10*sim.Second || w.Actual(200) != 5*sim.Second {
		t.Fatal("weights")
	}
	if w.MeanWeight() != 7.5 {
		t.Fatalf("mean = %v", w.MeanWeight())
	}
	if h := w.application().hint(0, 0); h != 7.5 {
		t.Fatalf("mean hint = %v", h)
	}
	w.Hints = HintAccurate
	if h, l := w.application().hint(0, 0), w.application().hint(200, 0); h != 10 || l != 5 {
		t.Fatalf("accurate hints = %v, %v", h, l)
	}
	// Block ownership covers every unit exactly once.
	seen := make([]bool, w.Units)
	for p := 0; p < w.Procs; p++ {
		for _, u := range blockOf(p, w.Procs, w.Units) {
			if seen[u] {
				t.Fatalf("unit %d owned twice", u)
			}
			seen[u] = true
			if u*w.Procs/w.Units != p {
				t.Fatalf("owner mismatch for %d", u)
			}
		}
	}
	for u, s := range seen {
		if !s {
			t.Fatalf("unit %d unowned", u)
		}
	}
	if w.IdealMakespan() != w.TotalWork()/16 {
		t.Fatal("ideal")
	}
}

// TestAllSystemsComplete runs every driver at miniature scale and validates
// conservation: total computed seconds must equal the workload total.
func TestAllSystemsComplete(t *testing.T) {
	w := smallWorkload(smallSpec())
	want := w.TotalWork().Seconds()
	for _, name := range SystemNames {
		name := name
		t.Run(name, func(t *testing.T) {
			r, err := RunSystem(name, w)
			if err != nil {
				t.Fatal(err)
			}
			got := r.TotalCompute()
			if got < want*0.999 || got > want*1.001 {
				t.Fatalf("total compute %.1fs, want %.1fs", got, want)
			}
			if r.Makespan < w.IdealMakespan() {
				t.Fatalf("makespan %v below ideal %v", r.Makespan, w.IdealMakespan())
			}
		})
	}
}

// TestPaperOrderingSmall checks the paper's headline ordering at miniature
// scale: implicit PREMA beats no balancing and is at least as good as
// explicit PREMA.
func TestPaperOrderingSmall(t *testing.T) {
	w := smallWorkload(smallSpec())
	none, err := RunSystem("none", w)
	if err != nil {
		t.Fatal(err)
	}
	expl, err := RunSystem("prema-explicit", w)
	if err != nil {
		t.Fatal(err)
	}
	impl, err := RunSystem("prema-implicit", w)
	if err != nil {
		t.Fatal(err)
	}
	if impl.Makespan >= none.Makespan {
		t.Fatalf("implicit %v should beat none %v", impl.Makespan, none.Makespan)
	}
	if impl.Makespan > expl.Makespan {
		t.Fatalf("implicit %v should be <= explicit %v", impl.Makespan, expl.Makespan)
	}
	if impl.ComputeStdDev() >= none.ComputeStdDev() {
		t.Fatalf("implicit stddev %.1f should beat none %.1f", impl.ComputeStdDev(), none.ComputeStdDev())
	}
	// PREMA overhead stays tiny (paper: well under 1%).
	if impl.OverheadPct() > 1.0 {
		t.Fatalf("implicit overhead %.2f%%", impl.OverheadPct())
	}
}

func TestParmetisBalancesWhenWorkRemains(t *testing.T) {
	w := smallWorkload(smallSpec())
	// At miniature scale the absolute outstanding work is small; lower the
	// warrant threshold proportionally so the repartition applies.
	cfg := DefaultParmetisConfig()
	cfg.WarrantPerProc = 5
	pm, err := runParmetis(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	none, err := RunSystem("none", w)
	if err != nil {
		t.Fatal(err)
	}
	if pm.Makespan >= none.Makespan {
		t.Fatalf("parmetis %v should beat none %v at 50%% imbalance", pm.Makespan, none.Makespan)
	}
	if pm.Counters["lb_rounds"] == 0 {
		t.Fatal("no repartition rounds happened")
	}
	if pm.SyncPct() <= 0 {
		t.Fatal("no synchronization cost recorded")
	}
}

func TestFigureByID(t *testing.T) {
	if _, err := FigureByID(7); err == nil {
		t.Fatal("figure 7 should not exist")
	}
	f, err := FigureByID(5)
	if err != nil || f.Ratio != 1.2 || f.Imbalance != 0.5 {
		t.Fatalf("figure 5 = %+v, err %v", f, err)
	}
}

func TestRunSystemUnknown(t *testing.T) {
	if _, err := RunSystem("bogus", smallWorkload(smallSpec())); err == nil {
		t.Fatal("unknown system should error")
	}
}

// TestParmetisWarrantRule: a high warrant threshold makes every round
// decline ("mandated that work units remain"), leaving the makespan at the
// no-balancing level; a low threshold repartitions and improves it.
func TestParmetisWarrantRule(t *testing.T) {
	w := smallWorkload(smallSpec())
	none, err := RunSystem("none", w)
	if err != nil {
		t.Fatal(err)
	}
	strict := DefaultParmetisConfig()
	strict.WarrantPerProc = 1e9
	rs, err := runParmetis(w, strict)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Counters["rounds_declined"] != rs.Counters["lb_rounds"] || rs.Counters["lb_rounds"] == 0 {
		t.Fatalf("strict warrant: %v", rs.Counters)
	}
	if rs.Makespan < none.Makespan {
		t.Fatalf("declined rounds should not beat none: %v vs %v", rs.Makespan, none.Makespan)
	}
	loose := DefaultParmetisConfig()
	loose.WarrantPerProc = 1
	rl, err := runParmetis(w, loose)
	if err != nil {
		t.Fatal(err)
	}
	if rl.Counters["lb_rounds"] == rl.Counters["rounds_declined"] {
		t.Fatalf("loose warrant never applied: %v", rl.Counters)
	}
	if rl.Makespan >= none.Makespan {
		t.Fatalf("applied repartition should beat none: %v vs %v", rl.Makespan, none.Makespan)
	}
}

// TestParmetisSyncCostGrowsWithDeclinedRounds: the Figure 4 mechanism —
// repeated synchronizations that accomplish nothing still cost sync time.
func TestParmetisSyncCostGrowsWithDeclinedRounds(t *testing.T) {
	w := smallWorkload(FigureSpec{ID: 4, Imbalance: 0.1, Ratio: 2.0})
	cfg := DefaultParmetisConfig()
	cfg.WarrantPerProc = 1e9
	cfg.RoundInterval = 10 * sim.Second
	r, err := runParmetis(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.SyncPct() <= 0.5 {
		t.Fatalf("declined rounds produced almost no sync cost: %.3f%%", r.SyncPct())
	}
}
