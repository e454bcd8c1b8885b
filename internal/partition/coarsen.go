package partition

import (
	"math/rand"
	"slices"

	"prema/internal/graph"
)

// Level is one rung of a multilevel hierarchy.
type Level struct {
	Graph *graph.Graph
	CMap  []int32 // fine vertex -> coarse vertex in the next level up; nil on the coarsest
}

// heavyEdgeMatching computes a matching that prefers heavy edges (Karypis &
// Kumar): vertices are visited in random order and matched to the unmatched
// neighbor with the heaviest connecting edge. restrict, when non-nil, only
// allows matching vertices with equal restrict values — the "local matching"
// of the Unified Repartitioning Algorithm, which keeps coarse vertices
// within one old partition so remap and diffusion stay meaningful.
func heavyEdgeMatching(g *graph.Graph, rng *rand.Rand, restrict []int) []int32 {
	n := g.NumVertices()
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	perm := rng.Perm(n)
	for _, v := range perm {
		if match[v] != -1 {
			continue
		}
		best, bestW := -1, int32(-1)
		g.Neighbors(v, func(u int, w int32) {
			if match[u] != -1 || u == v {
				return
			}
			if restrict != nil && restrict[u] != restrict[v] {
				return
			}
			if w > bestW || (w == bestW && (best == -1 || u < best)) {
				best, bestW = u, w
			}
		})
		if best >= 0 {
			match[v] = int32(best)
			match[best] = int32(v)
		} else {
			match[v] = int32(v)
		}
	}
	return match
}

// contract builds the coarse graph induced by a matching, returning the
// coarse graph and the fine->coarse map.
func contract(g *graph.Graph, match []int32) (*graph.Graph, []int32) {
	n := g.NumVertices()
	cmap := make([]int32, n)
	nc := int32(0)
	for v := 0; v < n; v++ {
		m := int(match[v])
		if m >= v { // v is the representative of the pair (or a singleton)
			cmap[v] = nc
			if m != v {
				cmap[m] = nc
			}
			nc++
		}
	}
	cg := &graph.Graph{
		Xadj: make([]int32, nc+1),
		VWgt: make([]int64, nc),
	}
	if g.VSize != nil {
		cg.VSize = make([]int64, nc)
	}
	for v := 0; v < n; v++ {
		cg.VWgt[cmap[v]] += g.VWgt[v]
		if cg.VSize != nil {
			cg.VSize[cmap[v]] += g.VSize[v]
		}
	}
	// Accumulate coarse adjacency with a dense scratch row (reset via the
	// touched list), building rows in coarse vertex order.
	scratch := make([]int32, nc)
	for i := range scratch {
		scratch[i] = -1
	}
	var touched []int32
	var adjncy, adjwgt []int32
	// members[c] lists fine vertices of coarse vertex c in order.
	members := make([][2]int32, nc)
	for i := range members {
		members[i] = [2]int32{-1, -1}
	}
	for v := n - 1; v >= 0; v-- {
		c := cmap[v]
		members[c][1] = members[c][0]
		members[c][0] = int32(v)
	}
	for c := int32(0); c < nc; c++ {
		cg.Xadj[c] = int32(len(adjncy))
		touched = touched[:0]
		for _, vv := range members[c] {
			if vv < 0 {
				continue
			}
			g.Neighbors(int(vv), func(u int, w int32) {
				cu := cmap[u]
				if cu == c {
					return
				}
				if scratch[cu] < 0 {
					scratch[cu] = 0
					touched = append(touched, cu)
				}
				scratch[cu] += w
			})
		}
		slices.Sort(touched)
		for _, cu := range touched {
			adjncy = append(adjncy, cu)
			adjwgt = append(adjwgt, scratch[cu])
			scratch[cu] = -1
		}
	}
	cg.Xadj[nc] = int32(len(adjncy))
	cg.Adjncy = adjncy
	cg.AdjWgt = adjwgt
	return cg, cmap
}

// Coarsen builds the multilevel hierarchy by heavy-edge matching down to
// at most target vertices. The returned slice starts at the original graph;
// the last entry is the coarsest. restrict, when non-nil, only allows
// matching vertices with equal restrict labels (URA's local matching); it
// is projected to each coarser level.
func Coarsen(g *graph.Graph, target int, rng *rand.Rand, restrict []int) []Level {
	levels := []Level{{Graph: g}}
	cur := g
	curRestrict := restrict
	for cur.NumVertices() > target {
		match := heavyEdgeMatching(cur, rng, curRestrict)
		cg, cmap := contract(cur, match)
		if cg.NumVertices() >= cur.NumVertices() { // no progress; give up
			break
		}
		levels[len(levels)-1].CMap = cmap
		levels = append(levels, Level{Graph: cg})
		if curRestrict != nil {
			next := make([]int, cg.NumVertices())
			for v := 0; v < cur.NumVertices(); v++ {
				next[cmap[v]] = curRestrict[v]
			}
			curRestrict = next
		}
		cur = cg
	}
	return levels
}
