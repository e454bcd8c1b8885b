package bench

import (
	"strings"
	"testing"
)

// chaosWorkload is the small figure-3 scenario the chaos tests run.
func chaosWorkload() Workload {
	return PaperWorkload(FigureSpec{ID: 3, Imbalance: 0.5, Ratio: 2.0}, 8, 8)
}

// chaosPlan is the acceptance-level fault mix: a fifth of all messages
// dropped, a tenth duplicated.
const chaosPlan = "drop=0.2,dup=0.1"

// TestChaosRunSurvives: the paper microbenchmark on a lossy, duplicating
// simulated machine with reliable delivery on must produce the same
// application-level outcome as a clean run — every unit computed exactly
// once, every object on exactly one processor — and must visibly have
// fought the network to get there.
func TestChaosRunSurvives(t *testing.T) {
	w := chaosWorkload()
	for _, sys := range append([]string{"none", "prema-explicit", "prema-implicit"}, policySystems...) {
		sys := sys
		t.Run(sys, func(t *testing.T) {
			clean, err := RunSpec{System: sys, W: w}.Run()
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunSpec{
				System:    sys,
				W:         w,
				FaultPlan: chaosPlan,
				FaultSeed: 3,
				Reliable:  true,
			}.Run()
			if err != nil {
				t.Fatal(err)
			}
			st := res.Faults
			if err := clean.CheckConservation(); err != nil {
				t.Errorf("clean run: %v", err)
			}
			if err := res.CheckConservation(); err != nil {
				t.Errorf("faulted run: %v", err)
			}
			if res.Counters["units_run"] != clean.Counters["units_run"] {
				t.Errorf("faulted run computed %d units, clean run %d",
					res.Counters["units_run"], clean.Counters["units_run"])
			}
			if st.Dropped == 0 || st.Dupped == 0 {
				t.Errorf("fault injection too quiet: %+v", st)
			}
			if res.Counters["rel_retransmits"] == 0 {
				t.Errorf("%d drops but no retransmissions", st.Dropped)
			}
		})
	}
}

// TestChaosReliableOverhead: reliable delivery on a fault-free simulated
// network must cost almost nothing — the acceptance bound is <5% of the
// clean makespan (measured: ~0.1%; see EXPERIMENTS.md).
func TestChaosReliableOverhead(t *testing.T) {
	w := chaosWorkload()
	clean, err := RunSpec{System: "prema-implicit", W: w}.Run()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := RunSpec{System: "prema-implicit", W: w, Reliable: true}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.CheckConservation(); err != nil {
		t.Error(err)
	}
	overhead := 100 * (rel.Makespan.Seconds() - clean.Makespan.Seconds()) / clean.Makespan.Seconds()
	if overhead >= 5 {
		t.Errorf("reliable mode costs %.2f%% of makespan on a clean network, want <5%%", overhead)
	}
	if rel.Counters["rel_retransmits"] != 0 {
		t.Errorf("clean network produced %d retransmits", rel.Counters["rel_retransmits"])
	}
}

// TestChaosRejectsBaselines: the third-party baselines have no reliable
// delivery to survive a faulted transport; Run must refuse them.
func TestChaosRejectsBaselines(t *testing.T) {
	w := chaosWorkload()
	for _, sys := range []string{"parmetis", "charm", "charm-sync4", "nonsense"} {
		if _, err := (RunSpec{System: sys, W: w, FaultPlan: chaosPlan}).Run(); err == nil {
			t.Errorf("Run accepted a fault plan on system %q", sys)
		}
	}
	if _, err := (RunSpec{System: "prema-implicit", W: w, Backend: "quantum"}).Run(); err == nil {
		t.Error("Run accepted backend \"quantum\"")
	}
}

// TestChaosStallRecovery: a processor frozen for a long window mid-run
// (modeling a GC pause or OS stall) must not lose work — the balancer routes
// around it and every unit still computes.
func TestChaosStallRecovery(t *testing.T) {
	w := chaosWorkload()
	res, err := RunSpec{
		System:    "prema-implicit",
		W:         w,
		FaultPlan: "stall:3@10s+30s",
		FaultSeed: 3,
		Reliable:  true,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Faults; st.Stalls != 1 {
		t.Errorf("stall fired %d times, want 1", st.Stalls)
	}
	if err := res.CheckConservation(); err != nil {
		t.Error(err)
	}
}

// TestCheckConservationDoctored: the check names what it got and what it
// wanted when a result is one unit short or holds one object twice.
func TestCheckConservationDoctored(t *testing.T) {
	res, err := RunSpec{System: "prema-implicit", W: PaperWorkload(Figures()[0], 4, 2)}.Run()
	if err != nil {
		t.Fatal(err)
	}
	res.Counters["units_run"]--
	if err := res.CheckConservation(); err == nil || !strings.Contains(err.Error(), "ran 7 units, want 8") {
		t.Errorf("one unit short: %v", err)
	}
	res.Counters["units_run"]++
	res.Resident[1]++
	if err := res.CheckConservation(); err == nil || !strings.Contains(err.Error(), "9 objects resident, want 8") {
		t.Errorf("one object resident twice: %v", err)
	}
}

// TestRunChecksPromisedConservation: Run applies the check when the spec
// promises conservation. The crash lands inside the final quiesce window,
// which recovery does not detect yet (an open hole in the ROADMAP,
// "termination as a protocol"), so the promised run loses units and must
// say so — with its result, for a caller that reports the loss itself
// (chaosbench).
func TestRunChecksPromisedConservation(t *testing.T) {
	w := PaperWorkload(FigureSpec{Imbalance: 0.1, Ratio: 1.2}, 4, 6)
	res, err := RunSpec{System: "prema-implicit", W: w, Recover: true, FaultPlan: "crash:3@32100ms"}.Run()
	if res == nil || err == nil || !strings.Contains(err.Error(), "ran 18 units, want 24") {
		t.Errorf("lossy promised run: result %v, error %v", res != nil, err)
	}
}
