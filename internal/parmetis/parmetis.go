// Package parmetis reimplements the algorithmic core of
// ParMETIS_V3_AdaptiveRepart: the Unified Repartitioning Algorithm of
// Schloegel, Karypis & Kumar (SC 2000), which load-balances an already
// distributed, adaptively refined workload graph by combining the two
// classic families of repartitioners:
//
//   - scratch-remap: partition from scratch, then remap part labels onto the
//     old parts to minimize data redistribution;
//   - diffusion: incrementally shift boundary vertices out of overweight
//     parts into underweight ones.
//
// Both candidate repartitions are computed (on the coarsest graph of a
// locally matched multilevel hierarchy), scored with the unified objective
//
//	|Ecut| + alpha * |Vmove|
//
// where alpha is the application's Relative Cost Factor, and the winner is
// refined multilevel-ly under the same objective. This is the baseline the
// paper's benchmark drives through a root-coordinated stop-and-repartition
// protocol (package bench).
package parmetis

import (
	"math/rand"

	"prema/internal/graph"
	"prema/internal/partition"
)

// Options tunes AdaptiveRepart.
type Options struct {
	// Alpha is the Relative Cost Factor: the cost of migrating a unit of
	// vertex size relative to a unit of edge cut (paper Eq. 1).
	Alpha float64
	// Part carries the multilevel partitioner options (seed, imbalance, ...).
	Part partition.Options
}

// DefaultOptions returns the options used by the experiments.
func DefaultOptions() Options {
	return Options{
		Alpha: 0.1,
		Part:  partition.Options{Imbalance: 0.05, Seed: 1},
	}
}

// Cost evaluates the unified objective for a candidate repartition.
func Cost(g *graph.Graph, oldPart, newPart []int, alpha float64) float64 {
	return float64(graph.EdgeCut(g, newPart)) + alpha*float64(graph.MoveVolume(g, oldPart, newPart))
}

// AdaptiveRepart computes a balanced k-way repartition of g given the
// current assignment oldPart, minimizing |Ecut| + Alpha*|Vmove|. It returns
// the new assignment (oldPart is not modified).
func AdaptiveRepart(g *graph.Graph, k int, oldPart []int, opt Options) []int {
	n := g.NumVertices()
	if k <= 1 || n == 0 {
		return append([]int(nil), oldPart...)
	}
	popt := opt.Part.WithDefaults()
	rng := rand.New(rand.NewSource(popt.Seed))

	// 1. Coarsen with local (intra-part) matching so coarse vertices never
	// straddle old parts — both remap and diffusion need that invariant.
	levels := partition.Coarsen(g, popt.CoarsenTo*k, rng, oldPart)
	coarse := levels[len(levels)-1].Graph
	coarseOld := projectDownTo(levels, len(levels)-1, oldPart)

	// 2a. Scratch-remap candidate.
	scratch := partition.Partition(coarse, k, popt)
	remap(coarse, coarseOld, scratch, k)

	// 2b. Diffusion candidate.
	diffuse := append([]int(nil), coarseOld...)
	diffusionRepart(coarse, diffuse, k, popt)

	// 3. Unified objective picks the winner.
	best := scratch
	if Cost(coarse, coarseOld, diffuse, opt.Alpha) < Cost(coarse, coarseOld, scratch, opt.Alpha) {
		best = diffuse
	}

	// 4. Multilevel refinement under the unified objective.
	cost := func(gainCut, moveDelta int64) float64 {
		return float64(gainCut) - opt.Alpha*float64(moveDelta)
	}
	cur := best
	partition.RefineKWay(coarse, cur, k, coarseOld, cost, popt)
	for li := len(levels) - 2; li >= 0; li-- {
		cur = projectUp(levels, li, cur)
		fineOld := oldPart
		if li > 0 {
			fineOld = projectDownTo(levels, li, oldPart)
		}
		partition.RefineKWay(levels[li].Graph, cur, k, fineOld, cost, popt)
	}
	return cur
}

// projectDownTo maps the finest labeling down to level li (a coarse vertex
// inherits any constituent's label; with local matching they agree).
func projectDownTo(levels []partition.Level, li int, fine []int) []int {
	cur := fine
	for l := 0; l < li; l++ {
		cmap := levels[l].CMap
		next := make([]int, levels[l+1].Graph.NumVertices())
		for v, c := range cmap {
			next[c] = cur[v]
		}
		cur = next
	}
	return append([]int(nil), cur...)
}

// projectUp expands a level li+1 labeling to level li.
func projectUp(levels []partition.Level, li int, coarsePart []int) []int {
	cmap := levels[li].CMap
	fine := make([]int, levels[li].Graph.NumVertices())
	for v := range fine {
		fine[v] = coarsePart[cmap[v]]
	}
	return fine
}

// remap relabels newPart's parts to maximize weight overlap with oldPart,
// minimizing |Vmove| without touching the cut (a greedy assignment on the
// k x k similarity matrix, as in scratch-remap repartitioners).
func remap(g *graph.Graph, oldPart, newPart []int, k int) {
	overlap := make([][]int64, k) // overlap[new][old]
	for i := range overlap {
		overlap[i] = make([]int64, k)
	}
	for v := 0; v < g.NumVertices(); v++ {
		overlap[newPart[v]][oldPart[v]] += g.Size(v)
	}
	assigned := make([]int, k) // new label -> final label
	for i := range assigned {
		assigned[i] = -1
	}
	usedOld := make([]bool, k)
	for round := 0; round < k; round++ {
		bi, bj, bw := -1, -1, int64(-1)
		for i := 0; i < k; i++ {
			if assigned[i] != -1 {
				continue
			}
			for j := 0; j < k; j++ {
				if usedOld[j] {
					continue
				}
				if overlap[i][j] > bw {
					bi, bj, bw = i, j, overlap[i][j]
				}
			}
		}
		if bi < 0 {
			break
		}
		assigned[bi] = bj
		usedOld[bj] = true
	}
	for v := range newPart {
		newPart[v] = assigned[newPart[v]]
	}
}

// diffusionRepart rebalances part in place by draining overweight parts
// into underweight ones through boundary moves (multilevel diffusion in the
// Schloegel-Karypis-Kumar sense, single level here since it runs on the
// coarsest graph).
func diffusionRepart(g *graph.Graph, part []int, k int, popt partition.Options) {
	partition.RefineKWay(g, part, k, part, func(gainCut, moveDelta int64) float64 {
		return float64(gainCut)
	}, popt)
}
