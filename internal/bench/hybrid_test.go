package bench

import "testing"

func TestHybridSystemsRunAndConserveWork(t *testing.T) {
	cfg := DefaultHybridConfig()
	cfg.Procs = 8
	cfg.Grid = [3]int{4, 2, 2}
	cfg.Iterations = 4
	cfg.SolveIters = 4
	mc := BuildMeshCosts(cfg.MeshExpConfig)
	var want float64
	for _, row := range mc.Tets {
		for _, tets := range row {
			want += tets * (cfg.PerTet.Seconds() + float64(cfg.SolveIters)*cfg.PerTetSolve.Seconds())
		}
	}
	for _, sys := range HybridSystems {
		r, err := RunHybrid(sys, cfg, mc)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		got := r.TotalCompute()
		if got < want*0.999 || got > want*1.001 {
			t.Fatalf("%s: compute %.1f want %.1f", sys, got, want)
		}
		t.Logf("%-12s makespan=%8.1fs sync=%5.1f%% overhead=%.2f%%", sys, r.Makespan.Seconds(), r.SyncPct(), r.OverheadPct())
	}
}

// TestHybridUnifiedWins: the paper's proposed end-to-end method should beat
// both single-mechanism regimes.
func TestHybridUnifiedWins(t *testing.T) {
	cfg := DefaultHybridConfig()
	mc := BuildMeshCosts(cfg.MeshExpConfig)
	results := map[string]*Result{}
	for _, sys := range HybridSystems {
		r, err := RunHybrid(sys, cfg, mc)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		results[sys] = r
		t.Logf("%-12s makespan=%8.1fs", sys, r.Makespan.Seconds())
	}
	u := results["unified"].Makespan
	if u >= results["repartition"].Makespan {
		t.Errorf("unified %v should beat repartition-only %v", u, results["repartition"].Makespan)
	}
	if u >= results["prema"].Makespan {
		t.Errorf("unified %v should beat prema-only %v", u, results["prema"].Makespan)
	}
}
