package bench

import (
	"testing"
)

func quickMeshConfig() MeshExpConfig {
	cfg := DefaultMeshExpConfig()
	cfg.Procs = 8
	cfg.Grid = [3]int{4, 4, 2}
	cfg.Iterations = 6
	return cfg
}

func TestMeshCostsRespondToCrack(t *testing.T) {
	cfg := quickMeshConfig()
	mc := BuildMeshCosts(cfg)
	if len(mc.Tets) != cfg.Iterations || len(mc.Tets[0]) != cfg.NumSubdomains() {
		t.Fatalf("matrix shape %dx%d", len(mc.Tets), len(mc.Tets[0]))
	}
	// Early iterations: the crack sits near the origin corner, so the first
	// subdomain must be far heavier than the last.
	first, last := mc.Tets[0][0], mc.Tets[0][cfg.NumSubdomains()-1]
	if first < 3*last {
		t.Fatalf("crack locality missing: first=%.0f last=%.0f", first, last)
	}
	// The spike moves: the subdomain nearest the far corner must get heavier
	// as the crack approaches it.
	lastSub := cfg.NumSubdomains() - 1
	if mc.Tets[cfg.Iterations-1][lastSub] < 2*mc.Tets[0][lastSub] {
		t.Fatalf("spike did not move: %v -> %v", mc.Tets[0][lastSub], mc.Tets[cfg.Iterations-1][lastSub])
	}
}

// The mesher's cost grows faster than a subdomain's tetrahedron count, so
// the cheapest configuration that drives UseMesher is many small subdomains
// (the default 8x4x4 decomposition) at a single crack position: ~6 s of CPU,
// where four large subdomains at two positions took 30-45 s. The 128
// subdomains are meshed on every core.
func TestMeshCostsWithRealMesher(t *testing.T) {
	cfg := DefaultMeshExpConfig()
	cfg.Iterations = 1
	cfg.UseMesher = true
	mc := BuildMeshCostsJobs(cfg, 0)
	for it := range mc.Tets {
		for sub, tets := range mc.Tets[it] {
			if tets <= 0 {
				t.Fatalf("mesher produced no tets for it=%d sub=%d", it, sub)
			}
		}
	}
}

func TestMeshSystemsConserveWork(t *testing.T) {
	cfg := quickMeshConfig()
	mc := BuildMeshCosts(cfg)
	want := mc.TotalWork(cfg).Seconds()
	for _, sys := range MeshSystems {
		r, err := RunMeshSystem(sys, cfg, mc)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		got := r.TotalCompute()
		if got < want*0.999 || got > want*1.001 {
			t.Fatalf("%s: compute %.1f want %.1f", sys, got, want)
		}
	}
}

// TestMeshExperimentShape asserts the paper's §5 mesh-application ordering
// at full default scale: PREMA beats stop-and-repartition beats no load
// balancing, and PREMA's overhead stays under 1% of total runtime.
func TestMeshExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale mesh experiment")
	}
	cfg := DefaultMeshExpConfig()
	mc := BuildMeshCosts(cfg)
	get := func(sys string) *Result {
		r, err := RunMeshSystem(sys, cfg, mc)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%-15s makespan=%8.1fs ovh/runtime=%.3f%% sync/comp=%.1f%%",
			sys, r.Makespan.Seconds(), r.OverheadOfRuntimePct(), r.SyncPct())
		return r
	}
	none := get("none")
	prema := get("prema-implicit")
	repart := get("repartition")
	if prema.Makespan >= repart.Makespan {
		t.Fatalf("prema %v should beat repartition %v", prema.Makespan, repart.Makespan)
	}
	if repart.Makespan >= none.Makespan {
		t.Fatalf("repartition %v should beat none %v", repart.Makespan, none.Makespan)
	}
	// Paper: 42% improvement over no balancing, 15% over repartitioning.
	if imp := 1 - prema.Makespan.Seconds()/none.Makespan.Seconds(); imp < 0.25 {
		t.Fatalf("prema improvement over none only %.0f%%", imp*100)
	}
	if prema.OverheadOfRuntimePct() > 1.0 {
		t.Fatalf("prema overhead %.2f%% of runtime (paper: <1%%)", prema.OverheadOfRuntimePct())
	}
}
