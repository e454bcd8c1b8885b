package bench

import (
	"strings"
	"testing"
)

// TestSweepMatchesSerial: the parallel sweep runner must produce exactly the
// results of a serial (Jobs: 1) sweep — same ordering, same outcomes — for
// any worker count. This is the repository's guarantee that -jobs only
// changes wall-clock time, never output.
func TestSweepMatchesSerial(t *testing.T) {
	specs := Figures()
	const procs, upp = 8, 8

	serial, err := RunFigures(specs, RunSpec{W: Workload{Procs: procs}, UnitsPerProc: upp, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}

	// jobs=8, shards=2 and the wire loopback together exercise the sweep ×
	// shard parallelism product and the serialization seam: none of the
	// knobs may change a single output byte.
	parallel, err := RunFigures(specs, RunSpec{
		W:            Workload{Procs: procs, Shards: 2, Wire: true},
		UnitsPerProc: upp,
		Jobs:         8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(parallel) != len(serial) {
		t.Fatalf("figure runs: %d vs %d", len(parallel), len(serial))
	}
	for fi := range serial {
		s, p := serial[fi], parallel[fi]
		if s.Spec != p.Spec || s.W != p.W {
			t.Fatalf("figure %d: spec/workload differ", s.Spec.ID)
		}
		if len(p.Results) != len(SystemNames) {
			t.Fatalf("figure %d: %d results", s.Spec.ID, len(p.Results))
		}
		for si := range s.Results {
			a, b := s.Results[si], p.Results[si]
			if a.System != b.System {
				t.Fatalf("figure %d result %d: ordering differs: %s vs %s", s.Spec.ID, si, a.System, b.System)
			}
			if d := sameOutcome(a, b); d != "" {
				t.Fatalf("figure %d %s: %s", s.Spec.ID, a.System, d)
			}
		}
	}
}

// TestRunSystemsOrdering: multi-system mode preserves input order and
// reports unknown systems fail-fast.
func TestRunSystemsOrdering(t *testing.T) {
	w := PaperWorkload(FigureSpec{ID: 3, Imbalance: 0.5, Ratio: 2.0}, 4, 4)
	names := []string{"charm", "none", "prema-implicit"}
	rs, err := RunSpec{System: strings.Join(names, ","), W: w, Jobs: 4}.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r.System != names[i] {
			t.Fatalf("result %d = %s, want %s", i, r.System, names[i])
		}
	}
	if _, err := (RunSpec{System: "none,bogus", W: w, Jobs: 4}).RunAll(); err == nil {
		t.Fatal("expected error for unknown system")
	}
	// Off the simulator a list runs too, one system after another whatever
	// -jobs says: concurrent wall-clock runs would distort each other.
	wall := RunSpec{System: "prema-implicit,none", W: w, Backend: BackendReal, TimeScale: 1e-4, Jobs: 4}
	if got := wall.jobs(); got != 1 {
		t.Errorf("jobs() = %d on the real backend, want 1", got)
	}
	rs, err = wall.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if want := wall.Systems()[i]; r.System != want {
			t.Errorf("real backend: result %d = %s, want %s", i, r.System, want)
		}
		if err := r.CheckConservation(); err != nil {
			t.Errorf("real backend: %s: %v", r.System, err)
		}
	}
}

// TestMeshCostsJobsIdentical: the cost matrix is identical for any worker
// count, and the parallel mesh-system runner matches the serial driver.
func TestMeshCostsJobsIdentical(t *testing.T) {
	cfg := quickMeshConfig()
	a := BuildMeshCosts(cfg)
	b := BuildMeshCostsJobs(cfg, 8)
	if len(a.Tets) != len(b.Tets) {
		t.Fatalf("rows: %d vs %d", len(a.Tets), len(b.Tets))
	}
	for it := range a.Tets {
		for s := range a.Tets[it] {
			if a.Tets[it][s] != b.Tets[it][s] {
				t.Fatalf("cost[%d][%d]: %v vs %v", it, s, a.Tets[it][s], b.Tets[it][s])
			}
		}
	}
	par, err := RunMeshSystems(MeshSystems, cfg, b, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(MeshSystems) {
		t.Fatalf("results = %d", len(par))
	}
	for i, sys := range MeshSystems {
		serial, err := RunMeshSystem(sys, cfg, a)
		if err != nil {
			t.Fatal(err)
		}
		if d := sameOutcome(par[i], serial); par[i].System != sys || d != "" {
			t.Fatalf("parallel mesh run %d (%s, want %s) diverged: %s", i, par[i].System, sys, d)
		}
	}
	if _, err := RunMeshSystems([]string{"nope"}, cfg, a, 1); err == nil {
		t.Fatal("expected error for unknown mesh system")
	}
}
