package partition

import (
	"math/rand"
	"testing"

	"prema/internal/graph"
)

func validate(t *testing.T, g *graph.Graph, part []int, k int, maxImb float64) {
	t.Helper()
	if len(part) != g.NumVertices() {
		t.Fatalf("part len %d != n %d", len(part), g.NumVertices())
	}
	seen := make([]bool, k)
	for v, p := range part {
		if p < 0 || p >= k {
			t.Fatalf("vertex %d in invalid part %d", v, p)
		}
		seen[p] = true
	}
	for p := 0; p < k; p++ {
		if !seen[p] {
			t.Errorf("part %d empty", p)
		}
	}
	if im := graph.Imbalance(g, part, k); im > maxImb {
		t.Errorf("imbalance %.3f > %.3f (weights %v)", im, maxImb, graph.PartWeights(g, part, k))
	}
}

func TestBisectGrid(t *testing.T) {
	g := graph.Grid3D(8, 8, 1) // an 8x8 2D grid
	part := Partition(g, 2, Options{Seed: 1})
	validate(t, g, part, 2, 1.06)
	// A straight cut of an 8x8 grid costs 8; allow some slack but reject
	// random-quality cuts (~half of 112 edges).
	if cut := graph.EdgeCut(g, part); cut > 16 {
		t.Errorf("bisection cut = %d, want near 8", cut)
	}
}

func TestKWayGrid(t *testing.T) {
	for _, k := range []int{2, 3, 4, 8} {
		g := graph.Grid3D(8, 8, 4)
		part := Partition(g, k, Options{Seed: 7})
		validate(t, g, part, k, 1.20)
		cut := graph.EdgeCut(g, part)
		// 8*8*4 grid has 8*8*3 + 8*7*4*2 = 640 edges; random k-way would cut
		// ~(1-1/k)*640.
		randomCut := int64(float64(640) * (1 - 1/float64(k)))
		if cut > randomCut/2 {
			t.Errorf("k=%d cut = %d (random ~%d)", k, cut, randomCut)
		}
	}
}

func TestWeightedBalance(t *testing.T) {
	// A path where one end is very heavy: balance must account for weights.
	b := graph.NewBuilder(16)
	for i := 0; i < 15; i++ {
		b.AddEdge(i, i+1, 1)
	}
	for i := 0; i < 4; i++ {
		b.SetVWgt(i, 10)
	}
	g := b.Build()
	part := Partition(g, 2, Options{Seed: 3})
	validate(t, g, part, 2, 1.25)
}

func TestPartitionK1AndEmpty(t *testing.T) {
	g := graph.Grid3D(4, 4, 1)
	part := Partition(g, 1, Options{})
	for _, p := range part {
		if p != 0 {
			t.Fatal("k=1 must map everything to part 0")
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	g := graph.Grid3D(6, 6, 2)
	a := Partition(g, 4, Options{Seed: 5})
	b := Partition(g, 4, Options{Seed: 5})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different partition")
		}
	}
}

func TestCoarsenPreservesTotals(t *testing.T) {
	g := graph.Grid3D(8, 8, 2)
	rng := rand.New(rand.NewSource(2))
	levels := Coarsen(g, 16, rng, nil)
	if len(levels) < 2 {
		t.Fatal("no coarsening happened")
	}
	for _, l := range levels {
		if l.Graph.TotalVWgt() != g.TotalVWgt() {
			t.Fatalf("vertex weight not conserved: %d vs %d", l.Graph.TotalVWgt(), g.TotalVWgt())
		}
	}
	coarsest := levels[len(levels)-1].Graph
	if coarsest.NumVertices() > g.NumVertices()/2 {
		t.Fatalf("weak coarsening: %d of %d", coarsest.NumVertices(), g.NumVertices())
	}
}

func TestCoarsenRestrictedNeverCrossesLabels(t *testing.T) {
	g := graph.Grid3D(8, 8, 1)
	restrict := make([]int, 64)
	for v := range restrict {
		if v%8 >= 4 {
			restrict[v] = 1
		}
	}
	rng := rand.New(rand.NewSource(4))
	levels := Coarsen(g, 8, rng, restrict)
	// Walk the hierarchy: each coarse vertex's constituents must share a label.
	labels := restrict
	for li := 0; li < len(levels)-1; li++ {
		cmap := levels[li].CMap
		nc := levels[li+1].Graph.NumVertices()
		next := make([]int, nc)
		for i := range next {
			next[i] = -1
		}
		for v, c := range cmap {
			if next[c] == -1 {
				next[c] = labels[v]
			} else if next[c] != labels[v] {
				t.Fatalf("level %d: coarse vertex %d mixes labels", li, c)
			}
		}
		labels = next
	}
}

func TestRefineKWayRestoresBalance(t *testing.T) {
	g := graph.Grid3D(8, 8, 1)
	// Pathological start: everything in part 0.
	part := make([]int, 64)
	RefineKWay(g, part, 4, nil, nil, Options{Seed: 1, Imbalance: 0.10})
	if im := graph.Imbalance(g, part, 4); im > 1.11 {
		t.Fatalf("imbalance after refine = %.3f", im)
	}
}

func TestRefineKWayImprovesCut(t *testing.T) {
	g := graph.Grid3D(8, 8, 1)
	rng := rand.New(rand.NewSource(9))
	part := make([]int, 64)
	for v := range part {
		part[v] = rng.Intn(4)
	}
	before := graph.EdgeCut(g, part)
	RefineKWay(g, part, 4, nil, nil, Options{Seed: 1})
	after := graph.EdgeCut(g, part)
	if after >= before {
		t.Fatalf("refine did not improve cut: %d -> %d", before, after)
	}
	if im := graph.Imbalance(g, part, 4); im > 1.06 {
		t.Fatalf("imbalance = %.3f", im)
	}
}

func TestGrowRegionCoversDisconnected(t *testing.T) {
	// Two disconnected cliques; growing must jump components.
	b := graph.NewBuilder(8)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(i, j, 1)
			b.AddEdge(i+4, j+4, 1)
		}
	}
	g := b.Build()
	part := Partition(g, 2, Options{Seed: 1})
	validate(t, g, part, 2, 1.05)
	if cut := graph.EdgeCut(g, part); cut != 0 {
		t.Fatalf("disconnected cliques should cut 0, got %d", cut)
	}
}
