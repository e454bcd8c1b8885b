package bench

import (
	"testing"

	"prema/internal/sim"
)

func TestCharmWeightPersistentMapping(t *testing.T) {
	w := PaperWorkload(FigureSpec{ID: 3, Imbalance: 0.5, Ratio: 2.0}, 8, 8)
	cfg := CharmConfig{SyncPoints: 4, Shuffle: false}
	chares := w.Units / 4
	// Persistent: chare c's iteration k weight is unit c*4+k.
	if got := charmWeight(w, cfg, chares, nil, 0, 0); got != w.Actual(0) {
		t.Fatalf("weight(0,0) = %v", got)
	}
	if got := charmWeight(w, cfg, chares, nil, chares-1, 3); got != w.Actual((chares-1)*4+3) {
		t.Fatalf("weight(last,3) = %v", got)
	}
}

func TestCharmWeightShuffleConservesHeavyFraction(t *testing.T) {
	w := PaperWorkload(FigureSpec{ID: 4, Imbalance: 0.1, Ratio: 2.0}, 8, 8)
	cfg := DefaultCharmConfig(4)
	chares := w.Units / 4
	offsets := []int{0, 13, 11, 7}
	for it := 0; it < 4; it++ {
		heavy := 0
		for c := 0; c < chares; c++ {
			if charmWeight(w, cfg, chares, offsets, c, it) == w.Heavy {
				heavy++
			}
		}
		want := int(w.HeavyFrac * float64(chares))
		if heavy != want {
			t.Fatalf("iteration %d: %d heavy chares, want %d", it, heavy, want)
		}
	}
	// Iteration 0 matches the block-imbalanced start (offset 0).
	if charmWeight(w, cfg, chares, offsets, 0, 0) != w.Heavy {
		t.Fatal("iteration 0 must start heavy at chare 0")
	}
}

func TestCharmWeightShuffleIsContiguousSpike(t *testing.T) {
	w := PaperWorkload(FigureSpec{ID: 4, Imbalance: 0.1, Ratio: 2.0}, 8, 8)
	cfg := DefaultCharmConfig(4)
	chares := w.Units / 4
	offsets := []int{0, 7, 0, 0}
	// At offset 7 the heavy block is chares 7..7+heavy-1 (mod C).
	heavySize := int(w.HeavyFrac * float64(chares))
	for c := 0; c < chares; c++ {
		pos := c - 7
		if pos < 0 {
			pos += chares
		}
		want := w.Light
		if pos < heavySize {
			want = w.Heavy
		}
		if got := charmWeight(w, cfg, chares, offsets, c, 1); got != want {
			t.Fatalf("chare %d: %v want %v", c, got, want)
		}
	}
}

// TestCharmSyncRunsEveryUnit: with a unit count the four sync points do not
// divide, charm-sync4 computes every unit once — it used to drop Units mod 4
// of them, and to panic with fewer than four. At ratio 1 the moving spike
// weighs what the units do, so total compute is exactly the workload's.
func TestCharmSyncRunsEveryUnit(t *testing.T) {
	for _, upp := range []int{1, 5} {
		w := PaperWorkload(FigureSpec{ID: 3, Imbalance: 0.5, Ratio: 1}, 2, upp)
		res, err := RunSystem("charm-sync4", w)
		if err != nil {
			t.Fatal(err)
		}
		var compute sim.Time
		for _, a := range res.Accounts {
			compute += a[sim.CatCompute]
		}
		if compute != w.TotalWork() {
			t.Errorf("%d units: computed %v, want %v", w.Units, compute, w.TotalWork())
		}
	}
}

func TestMeshCostsWeightScaling(t *testing.T) {
	mc := &MeshCosts{Tets: [][]float64{{100, 200}}}
	cfg := MeshExpConfig{PerTet: 10 * sim.Millisecond, Iterations: 1, Grid: [3]int{2, 1, 1}, Procs: 1}
	if mc.Weight(cfg, 0, 0) != sim.Second {
		t.Fatalf("weight = %v", mc.Weight(cfg, 0, 0))
	}
	if mc.TotalWork(cfg) != 3*sim.Second {
		t.Fatalf("total = %v", mc.TotalWork(cfg))
	}
}

func TestHintModeString(t *testing.T) {
	if HintMean.String() != "mean" || HintAccurate.String() != "accurate" {
		t.Fatal("hint mode strings")
	}
}

func TestHybridUnknownSystem(t *testing.T) {
	cfg := DefaultHybridConfig()
	if _, err := RunHybrid("bogus", cfg, &MeshCosts{}); err == nil {
		t.Fatal("unknown hybrid system must error")
	}
}

func TestRunMeshSystemUnknown(t *testing.T) {
	if _, err := RunMeshSystem("bogus", DefaultMeshExpConfig(), &MeshCosts{}); err == nil {
		t.Fatal("unknown mesh system must error")
	}
}
