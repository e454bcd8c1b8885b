package bench

import (
	"strings"
	"testing"

	"prema/internal/sim"
)

// TestSameSeedSameOutcome: a run repeated with the same seeds has the same
// outcome — the reproducibility EXPERIMENTS.md relies on. The rows are every
// figure system, both applications' balancers on the mesh experiment, a
// faulted reliable run and a crashed-and-recovered one.
func TestSameSeedSameOutcome(t *testing.T) {
	w := chaosWorkload()
	type row struct {
		name string
		run  func() (*Result, error)
	}
	var rows []row
	for _, sys := range SystemNames {
		rows = append(rows, row{sys, RunSpec{System: sys, W: w}.Run})
	}
	mesh := quickMeshConfig()
	mc := BuildMeshCosts(mesh)
	for _, sys := range []string{"prema-implicit", "repartition"} {
		rows = append(rows, row{"mesh quick " + sys, func() (*Result, error) { return RunMeshSystem(sys, mesh, mc) }})
	}
	rows = append(rows,
		row{"chaos", RunSpec{System: "prema-implicit", W: w, FaultPlan: chaosPlan().String(), FaultSeed: 3, Reliable: true}.Run},
		row{"recover crash:3@35s", RunSpec{System: "prema-implicit", W: w, FaultPlan: "crash:3@35s", FaultSeed: 3,
			Reliable: true, Recover: true}.Run})
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			a, err := r.run()
			if err != nil {
				t.Fatal(err)
			}
			b, err := r.run()
			if err != nil {
				t.Fatal(err)
			}
			if d := sameOutcome(a, b); d != "" {
				t.Error(d)
			}
		})
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
