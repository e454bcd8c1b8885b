// Package partition is a from-scratch multilevel graph partitioner in the
// style of METIS (Karypis & Kumar 1995): heavy-edge-matching coarsening,
// greedy-growing initial bisection, and FM-style boundary refinement, with
// k-way partitions produced by recursive bisection. It is the algorithmic
// substrate for the ParMETIS-style adaptive repartitioner (package parmetis).
package partition

import (
	"math/rand"

	"prema/internal/graph"
)

// Options tunes the partitioner.
type Options struct {
	// Seed drives all randomized choices (deterministic given the seed).
	Seed int64
	// Imbalance is the allowed per-part overweight fraction (default 0.05:
	// parts may weigh up to 1.05x the ideal).
	Imbalance float64
	// CoarsenTo stops coarsening once the graph has at most this many
	// vertices (default 64).
	CoarsenTo int
}

const (
	// initTries is how many random greedy-growing bisections to attempt,
	// keeping the best.
	initTries = 4
	// refinePasses bounds FM passes per uncoarsening level.
	refinePasses = 6
)

// WithDefaults fills unset options with their defaults.
func (o Options) WithDefaults() Options {
	if o.Imbalance <= 0 {
		o.Imbalance = 0.05
	}
	if o.CoarsenTo <= 0 {
		o.CoarsenTo = 64
	}
	return o
}

// Partition computes a k-way partition of g minimizing edge cut subject to
// the balance constraint. The result maps vertex -> part in [0,k).
func Partition(g *graph.Graph, k int, opt Options) []int {
	opt = opt.WithDefaults()
	part := make([]int, g.NumVertices())
	if k <= 1 {
		return part
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	vertices := make([]int, g.NumVertices())
	for i := range vertices {
		vertices[i] = i
	}
	recursiveBisect(g, vertices, k, 0, part, opt, rng)
	return part
}

// recursiveBisect splits the subgraph induced by vertices into k parts
// labeled firstPart..firstPart+k-1, writing into part.
func recursiveBisect(g *graph.Graph, vertices []int, k, firstPart int, part []int, opt Options, rng *rand.Rand) {
	if k == 1 {
		for _, v := range vertices {
			part[v] = firstPart
		}
		return
	}
	kLeft := (k + 1) / 2
	frac := float64(kLeft) / float64(k)
	sub, toGlobal := subgraph(g, vertices)
	side := bisect(sub, frac, opt, rng)
	var left, right []int
	for i, s := range side {
		if s == 0 {
			left = append(left, toGlobal[i])
		} else {
			right = append(right, toGlobal[i])
		}
	}
	recursiveBisect(g, left, kLeft, firstPart, part, opt, rng)
	recursiveBisect(g, right, k-kLeft, firstPart+kLeft, part, opt, rng)
}

// subgraph extracts the induced subgraph, returning it and the local->global
// vertex map.
func subgraph(g *graph.Graph, vertices []int) (*graph.Graph, []int) {
	toLocal := make([]int32, g.NumVertices()) // -1 = not in the subgraph
	for i := range toLocal {
		toLocal[i] = -1
	}
	for i, v := range vertices {
		toLocal[v] = int32(i)
	}
	sg := &graph.Graph{
		Xadj: make([]int32, len(vertices)+1),
		VWgt: make([]int64, len(vertices)),
	}
	if g.VSize != nil {
		sg.VSize = make([]int64, len(vertices))
	}
	for i, v := range vertices {
		sg.VWgt[i] = g.VWgt[v]
		if sg.VSize != nil {
			sg.VSize[i] = g.VSize[v]
		}
	}
	for i, v := range vertices {
		sg.Xadj[i] = int32(len(sg.Adjncy))
		g.Neighbors(v, func(u int, w int32) {
			if lu := toLocal[u]; lu >= 0 {
				sg.Adjncy = append(sg.Adjncy, lu)
				sg.AdjWgt = append(sg.AdjWgt, w)
			}
		})
	}
	sg.Xadj[len(vertices)] = int32(len(sg.Adjncy))
	return sg, append([]int(nil), vertices...)
}

// bisect produces a 2-way split of g with side-0 target weight fraction
// frac, via the full multilevel pipeline.
func bisect(g *graph.Graph, frac float64, opt Options, rng *rand.Rand) []int {
	levels := Coarsen(g, opt.CoarsenTo, rng, nil)
	coarsest := levels[len(levels)-1].Graph
	side := initialBisection(coarsest, frac, opt, rng)
	refine2(coarsest, side, frac, opt)
	// Project back up, refining at each level.
	for li := len(levels) - 2; li >= 0; li-- {
		fine := levels[li]
		fineSide := make([]int, fine.Graph.NumVertices())
		for v := range fineSide {
			fineSide[v] = side[fine.CMap[v]]
		}
		side = fineSide
		refine2(fine.Graph, side, frac, opt)
	}
	return side
}

// initialBisection tries several greedy graph-growing bisections and keeps
// the best (lowest cut among balanced attempts).
func initialBisection(g *graph.Graph, frac float64, opt Options, rng *rand.Rand) []int {
	n := g.NumVertices()
	best := make([]int, n)
	bestCut := int64(-1)
	bestBal := 1e18
	target := int64(float64(g.TotalVWgt()) * frac)
	for try := 0; try < initTries; try++ {
		side := growRegion(g, target, rng)
		cut := graph.EdgeCut(g, side)
		bal := balanceError(g, side, frac)
		better := false
		switch {
		case bestCut < 0:
			better = true
		case bal <= opt.Imbalance && bestBal > opt.Imbalance:
			better = true
		case (bal <= opt.Imbalance) == (bestBal <= opt.Imbalance) && cut < bestCut:
			better = true
		}
		if better {
			copy(best, side)
			bestCut, bestBal = cut, bal
		}
	}
	return best
}

// growRegion grows side 0 from a random seed by BFS with greedy frontier
// selection until it holds roughly target weight.
func growRegion(g *graph.Graph, target int64, rng *rand.Rand) []int {
	n := g.NumVertices()
	side := make([]int, n)
	for i := range side {
		side[i] = 1
	}
	if n == 0 {
		return side
	}
	var grown int64
	inFrontier := make([]bool, n)
	var frontier []int
	// Vertices only ever leave side 1, so the first side-1 vertex a restart
	// can pick only moves up.
	restart := 0
	seed := rng.Intn(n)
	frontier = append(frontier, seed)
	inFrontier[seed] = true
	for grown < target && len(frontier) > 0 {
		// Pick the frontier vertex with the strongest connection to side 0
		// (greedy); the seed is arbitrary.
		bestI, bestConn := 0, int64(-1)
		for i, v := range frontier {
			var conn int64
			g.Neighbors(v, func(u int, w int32) {
				if side[u] == 0 {
					conn += int64(w)
				}
			})
			if conn > bestConn {
				bestI, bestConn = i, conn
			}
		}
		v := frontier[bestI]
		frontier[bestI] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		side[v] = 0
		grown += g.VWgt[v]
		g.Neighbors(v, func(u int, w int32) {
			if side[u] == 1 && !inFrontier[u] {
				inFrontier[u] = true
				frontier = append(frontier, u)
			}
		})
		// Disconnected graph: restart from any remaining side-1 vertex.
		if len(frontier) == 0 && grown < target {
			for restart < n && side[restart] != 1 {
				restart++
			}
			if restart < n {
				frontier = append(frontier, restart)
				inFrontier[restart] = true
			}
		}
	}
	return side
}

// balanceError returns how far side 0's weight fraction deviates from frac,
// normalized by frac (0 = perfect).
func balanceError(g *graph.Graph, side []int, frac float64) float64 {
	var w0 int64
	for v, s := range side {
		if s == 0 {
			w0 += g.VWgt[v]
		}
	}
	tot := g.TotalVWgt()
	if tot == 0 {
		return 0
	}
	got := float64(w0) / float64(tot)
	err := got - frac
	if err < 0 {
		err = -err
	}
	return err / frac
}
