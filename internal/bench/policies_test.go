package bench

import "testing"

// policySystems are the system-table rows of the paper's policy suite (§4).
var policySystems = []string{"prema-worksteal", "prema-diffusion", "prema-multilist"}

// TestPolicySuiteBalances: every policy in the suite must complete all work
// and beat the no-balancing baseline on an imbalanced workload.
func TestPolicySuiteBalances(t *testing.T) {
	w := PaperWorkload(FigureSpec{ID: 3, Imbalance: 0.5, Ratio: 2.0}, 16, 16)
	none, err := RunSystem("none", w)
	if err != nil {
		t.Fatal(err)
	}
	want := w.TotalWork().Seconds()
	for _, name := range policySystems {
		name := name
		t.Run(name, func(t *testing.T) {
			r, err := RunSystem(name, w)
			if err != nil {
				t.Fatal(err)
			}
			got := r.TotalCompute()
			if got < want*0.999 || got > want*1.001 {
				t.Fatalf("compute %.1f want %.1f", got, want)
			}
			if r.Makespan >= none.Makespan {
				t.Fatalf("%s (%v) did not beat none (%v)", name, r.Makespan, none.Makespan)
			}
			t.Logf("%s: makespan %v (none %v)", name, r.Makespan, none.Makespan)
		})
	}
}
