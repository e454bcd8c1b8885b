// Package graph provides the weighted undirected graph representation (CSR)
// shared by the multilevel partitioner, the ParMETIS-style adaptive
// repartitioner, and the Charm++-style Metis strategy. Vertices carry
// computational weights; edges carry communication weights.
package graph

import (
	"fmt"
	"slices"
)

// Graph is an undirected weighted graph in compressed sparse row form.
// Every edge appears twice (u->v and v->u), as in METIS.
type Graph struct {
	Xadj   []int32 // index into Adjncy per vertex; len = NumVertices+1
	Adjncy []int32 // concatenated adjacency lists
	AdjWgt []int32 // edge weights, parallel to Adjncy
	VWgt   []int64 // vertex (computational) weights
	// VSize is the migration size per vertex (redistribution cost), the
	// quantity |Vmove| sums. Nil means uniform size 1.
	VSize []int64
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.Xadj) - 1 }

// Neighbors calls fn for each neighbor of v with the connecting edge weight.
func (g *Graph) Neighbors(v int, fn func(u int, w int32)) {
	for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
		fn(int(g.Adjncy[i]), g.AdjWgt[i])
	}
}

// TotalVWgt returns the sum of all vertex weights.
func (g *Graph) TotalVWgt() int64 {
	var t int64
	for _, w := range g.VWgt {
		t += w
	}
	return t
}

// Size returns vertex v's migration size.
func (g *Graph) Size(v int) int64 {
	if g.VSize == nil {
		return 1
	}
	return g.VSize[v]
}

// Builder accumulates edges and produces a CSR Graph. Adding an edge (u,v)
// inserts both directions. Duplicate edges accumulate weight.
type Builder struct {
	n    int
	vwgt []int64
	adj  []map[int32]int32
}

// NewBuilder creates a builder for n vertices with unit vertex weights.
func NewBuilder(n int) *Builder {
	b := &Builder{n: n, vwgt: make([]int64, n), adj: make([]map[int32]int32, n)}
	for i := range b.vwgt {
		b.vwgt[i] = 1
	}
	return b
}

// SetVWgt sets vertex v's computational weight.
func (b *Builder) SetVWgt(v int, w int64) { b.vwgt[v] = w }

// AddEdge adds the undirected edge (u,v) with weight w; repeated additions
// accumulate. Self loops are ignored.
func (b *Builder) AddEdge(u, v int, w int32) {
	if u == v {
		return
	}
	if u < 0 || v < 0 || u >= b.n || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range n=%d", u, v, b.n))
	}
	if b.adj[u] == nil {
		b.adj[u] = make(map[int32]int32)
	}
	if b.adj[v] == nil {
		b.adj[v] = make(map[int32]int32)
	}
	b.adj[u][int32(v)] += w
	b.adj[v][int32(u)] += w
}

// Build finalizes the CSR graph. Adjacency lists are emitted in ascending
// neighbor order for determinism.
func (b *Builder) Build() *Graph {
	g := &Graph{
		Xadj: make([]int32, b.n+1),
		VWgt: append([]int64(nil), b.vwgt...),
	}
	total := 0
	for _, m := range b.adj {
		total += len(m)
	}
	g.Adjncy = make([]int32, 0, total)
	g.AdjWgt = make([]int32, 0, total)
	for v := 0; v < b.n; v++ {
		g.Xadj[v] = int32(len(g.Adjncy))
		m := b.adj[v]
		keys := make([]int32, 0, len(m))
		for u := range m {
			keys = append(keys, u)
		}
		slices.Sort(keys)
		for _, u := range keys {
			g.Adjncy = append(g.Adjncy, u)
			g.AdjWgt = append(g.AdjWgt, m[u])
		}
	}
	g.Xadj[b.n] = int32(len(g.Adjncy))
	return g
}

// EdgeCut returns the total weight of edges crossing partition boundaries.
// part maps vertex -> part id.
func EdgeCut(g *Graph, part []int) int64 {
	var cut int64
	for v := 0; v < g.NumVertices(); v++ {
		g.Neighbors(v, func(u int, w int32) {
			if part[v] != part[u] {
				cut += int64(w)
			}
		})
	}
	return cut / 2
}

// PartWeights returns per-part vertex-weight sums for a k-way partition.
func PartWeights(g *Graph, part []int, k int) []int64 {
	w := make([]int64, k)
	for v := 0; v < g.NumVertices(); v++ {
		w[part[v]] += g.VWgt[v]
	}
	return w
}

// MoveVolume returns the total migration size of vertices whose part
// assignment differs between oldPart and newPart — ParMETIS' |Vmove|.
func MoveVolume(g *Graph, oldPart, newPart []int) int64 {
	var vol int64
	for v := 0; v < g.NumVertices(); v++ {
		if oldPart[v] != newPart[v] {
			vol += g.Size(v)
		}
	}
	return vol
}

// Imbalance returns maxPartWeight * k / totalWeight — 1.0 is perfect.
func Imbalance(g *Graph, part []int, k int) float64 {
	w := PartWeights(g, part, k)
	var max, tot int64
	for _, x := range w {
		tot += x
		if x > max {
			max = x
		}
	}
	if tot == 0 {
		return 1
	}
	return float64(max) * float64(k) / float64(tot)
}

// Grid3D builds the dual graph of an nx*ny*nz cell grid with 6-point
// connectivity and unit weights — a stand-in for mesh subdomain adjacency.
func Grid3D(nx, ny, nz int) *Graph {
	idx := func(x, y, z int) int { return (z*ny+y)*nx + x }
	b := NewBuilder(nx * ny * nz)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				v := idx(x, y, z)
				if x+1 < nx {
					b.AddEdge(v, idx(x+1, y, z), 1)
				}
				if y+1 < ny {
					b.AddEdge(v, idx(x, y+1, z), 1)
				}
				if z+1 < nz {
					b.AddEdge(v, idx(x, y, z+1), 1)
				}
			}
		}
	}
	return b.Build()
}
