package bench

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"prema/internal/sim"
)

// TestRunsAreDeterministic: every driver, run twice on the same workload,
// must produce byte-identical results — the repository-wide reproducibility
// guarantee EXPERIMENTS.md relies on.
func TestRunsAreDeterministic(t *testing.T) {
	w := PaperWorkload(FigureSpec{ID: 3, Imbalance: 0.5, Ratio: 2.0}, 8, 8)
	for _, sys := range SystemNames {
		sys := sys
		t.Run(sys, func(t *testing.T) {
			a, err := RunSystem(sys, w)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunSystem(sys, w)
			if err != nil {
				t.Fatal(err)
			}
			if d := outcomeDiff(a, b); d != "" {
				t.Fatal(d)
			}
		})
	}
}

// outcomeDiff says how two results differ in makespan, ledgers or
// counters ("" when they do not).
func outcomeDiff(a, b *Result) string {
	if a.Makespan != b.Makespan {
		return fmt.Sprintf("makespans differ: %v vs %v", a.Makespan, b.Makespan)
	}
	for i := range a.Accounts {
		if a.Accounts[i] != b.Accounts[i] {
			return fmt.Sprintf("proc %d accounts differ:\n%v\n%v", i, a.Accounts[i], b.Accounts[i])
		}
	}
	if !reflect.DeepEqual(a.Counters, b.Counters) {
		return fmt.Sprintf("counters differ: %v vs %v", a.Counters, b.Counters)
	}
	return ""
}

func TestMeshExperimentDeterministic(t *testing.T) {
	cfg := quickMeshConfig()
	mc := BuildMeshCosts(cfg)
	for _, sys := range []string{"prema-implicit", "repartition"} {
		a, err := RunMeshSystem(sys, cfg, mc)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunMeshSystem(sys, cfg, mc)
		if err != nil {
			t.Fatal(err)
		}
		if d := outcomeDiff(a, b); d != "" {
			t.Fatalf("mesh %s runs differ: %s", sys, d)
		}
	}
}

func TestFigureRunTiny(t *testing.T) {
	runs, err := RunFigures([]FigureSpec{{ID: 3, Imbalance: 0.5, Ratio: 2.0}}, RunSpec{W: Workload{Procs: 8}, UnitsPerProc: 8})
	if err != nil {
		t.Fatal(err)
	}
	fr := runs[0]
	if len(fr.Results) != len(SystemNames) {
		t.Fatalf("results = %d", len(fr.Results))
	}
	if fr.Get("prema-implicit") == nil || fr.Get("bogus") != nil {
		t.Fatal("Get lookup")
	}
	report := fr.Report(4)
	for _, frag := range []string{"Figure 3", "prema-implicit vs none", "parmetis sync+partition", "Per-processor breakdowns"} {
		if !strings.Contains(report, frag) {
			t.Fatalf("report missing %q:\n%s", frag, report)
		}
	}
}

func TestResultCSV(t *testing.T) {
	w := PaperWorkload(FigureSpec{ID: 3, Imbalance: 0.5, Ratio: 2.0}, 4, 4)
	r, err := RunSystem("none", w)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 5 { // header + 4 procs
		t.Fatalf("csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "proc,compute,idle") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0,") {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestWorkloadMoreProcsThanUnits(t *testing.T) {
	w := Workload{Procs: 8, Units: 4, HeavyFrac: 0.5, Heavy: 2 * sim.Second, Light: sim.Second}
	owned := 0
	for p := 0; p < w.Procs; p++ {
		owned += len(blockOf(p, w.Procs, w.Units))
	}
	if owned != 4 {
		t.Fatalf("owned %d of 4", owned)
	}
}

func TestResultSummaryContainsKeyMetrics(t *testing.T) {
	w := PaperWorkload(FigureSpec{ID: 5, Imbalance: 0.5, Ratio: 1.2}, 4, 4)
	r, err := RunSystem("prema-implicit", w)
	if err != nil {
		t.Fatal(err)
	}
	s := r.Summary()
	for _, frag := range []string{"prema-implicit", "makespan", "stddev", "overhead"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("summary missing %q: %s", frag, s)
		}
	}
	if r.IdlePct() < 0 || r.IdlePct() > 100 {
		t.Fatalf("idle pct = %v", r.IdlePct())
	}
}
