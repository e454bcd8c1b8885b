package graph

import (
	"testing"
	"testing/quick"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 3)
	b.AddEdge(0, 1, 1) // accumulates to 3
	b.AddEdge(2, 2, 9) // self loop ignored
	b.SetVWgt(3, 7)
	g := b.Build()
	if g.NumVertices() != 4 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	if degree(g, 0) != 1 || degree(g, 1) != 2 || degree(g, 3) != 0 {
		t.Fatalf("degrees wrong")
	}
	var w01 int32
	g.Neighbors(0, func(u int, w int32) {
		if u == 1 {
			w01 = w
		}
	})
	if w01 != 3 {
		t.Fatalf("edge weight = %d", w01)
	}
	if g.TotalVWgt() != 1+1+1+7 {
		t.Fatalf("total vwgt = %d", g.TotalVWgt())
	}
	if g.Size(0) != 1 {
		t.Fatal("default size should be 1")
	}
}

func TestEdgeCutAndWeights(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1, 5)
	b.AddEdge(2, 3, 4)
	b.AddEdge(1, 2, 1)
	g := b.Build()
	part := []int{0, 0, 1, 1}
	if cut := EdgeCut(g, part); cut != 1 {
		t.Fatalf("cut = %d", cut)
	}
	w := PartWeights(g, part, 2)
	if w[0] != 2 || w[1] != 2 {
		t.Fatalf("weights = %v", w)
	}
	if im := Imbalance(g, part, 2); im != 1.0 {
		t.Fatalf("imbalance = %v", im)
	}
	if mv := MoveVolume(g, part, []int{0, 1, 1, 1}); mv != 1 {
		t.Fatalf("move volume = %d", mv)
	}
}

func TestGrid3D(t *testing.T) {
	g := Grid3D(3, 3, 3)
	if g.NumVertices() != 27 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	// Corner has degree 3; center has degree 6.
	if degree(g, 0) != 3 {
		t.Fatalf("corner degree = %d", degree(g, 0))
	}
	center := (1*3+1)*3 + 1
	if degree(g, center) != 6 {
		t.Fatalf("center degree = %d", degree(g, center))
	}
	// Total directed edges = 2 * undirected; grid has 3*(3*3*2) = 54 edges.
	if len(g.Adjncy) != 108 {
		t.Fatalf("adjncy len = %d", len(g.Adjncy))
	}
}

// Property: built CSR is symmetric with matching weights.
func TestCSRSymmetryProperty(t *testing.T) {
	f := func(edges []struct{ U, V uint8 }) bool {
		const n = 32
		b := NewBuilder(n)
		for _, e := range edges {
			b.AddEdge(int(e.U%n), int(e.V%n), 1)
		}
		g := b.Build()
		for v := 0; v < n; v++ {
			ok := true
			g.Neighbors(v, func(u int, w int32) {
				var back int32
				g.Neighbors(u, func(x int, wx int32) {
					if x == v {
						back = wx
					}
				})
				if back != w {
					ok = false
				}
			})
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAdjacencySorted(t *testing.T) {
	b := NewBuilder(40)
	for i := 39; i >= 1; i-- {
		b.AddEdge(0, i, 1)
	}
	g := b.Build()
	prev := int32(-1)
	for i := g.Xadj[0]; i < g.Xadj[1]; i++ {
		if g.Adjncy[i] <= prev {
			t.Fatal("adjacency not sorted")
		}
		prev = g.Adjncy[i]
	}
}

func degree(g *Graph, v int) int { return int(g.Xadj[v+1] - g.Xadj[v]) }

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 5, 1)
}

func TestMoveVolumeUsesVSize(t *testing.T) {
	b := NewBuilder(3)
	g := b.Build()
	g.VSize = []int64{10, 20, 30}
	mv := MoveVolume(g, []int{0, 0, 0}, []int{1, 0, 1})
	if mv != 40 {
		t.Fatalf("move volume = %d", mv)
	}
	if g.Size(2) != 30 {
		t.Fatal("size accessor")
	}
}

func TestImbalanceEmptyGraph(t *testing.T) {
	g := (&Builder{}).Build()
	_ = g
	b := NewBuilder(0)
	g0 := b.Build()
	if im := Imbalance(g0, nil, 2); im != 1 {
		t.Fatalf("empty imbalance = %v", im)
	}
}

// TestQuicksortLargeAdjacency: every adjacency list Build emits is strictly
// ascending, a 10⁴-degree hub's included — the property the hand-written
// quicksort was tested for, now slices.Sort's.
func TestQuicksortLargeAdjacency(t *testing.T) {
	const n = 10001
	b := NewBuilder(n)
	for i := n - 1; i >= 1; i-- {
		b.AddEdge(0, i, 1)
		b.AddEdge(i, i*7919%n, 1)
	}
	g := b.Build()
	if degree(g, 0) != n-1 {
		t.Fatalf("hub degree = %d", degree(g, 0))
	}
	for v := 0; v < n; v++ {
		adj := g.Adjncy[g.Xadj[v]:g.Xadj[v+1]]
		for i := 1; i < len(adj); i++ {
			if adj[i] <= adj[i-1] {
				t.Fatalf("adjacency of %d not strictly ascending at %d: %v", v, i, adj[i-1:i+1])
			}
		}
	}
}
