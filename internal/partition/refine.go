package partition

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"prema/internal/graph"
)

// refine2 improves a bisection with FM-flavored greedy passes: first restore
// balance, then move positive-gain boundary vertices while balance holds.
func refine2(g *graph.Graph, side []int, frac float64, opt Options) {
	tot := g.TotalVWgt()
	target0 := float64(tot) * frac
	max0 := int64(target0 * (1 + opt.Imbalance))
	min0 := int64(target0 * (1 - opt.Imbalance))
	var w0 int64
	for v, s := range side {
		if s == 0 {
			w0 += g.VWgt[v]
		}
	}
	gain := func(v int) int64 {
		var ext, internal int64
		g.Neighbors(v, func(u int, w int32) {
			if side[u] != side[v] {
				ext += int64(w)
			} else {
				internal += int64(w)
			}
		})
		return ext - internal
	}
	moveBest := func(from int) bool {
		bestV, bestG := -1, int64(0)
		for v := range side {
			if side[v] != from {
				continue
			}
			if g := gain(v); bestV == -1 || g > bestG {
				bestV, bestG = v, g
			}
		}
		if bestV < 0 {
			return false
		}
		side[bestV] = 1 - from
		if from == 0 {
			w0 -= g.VWgt[bestV]
		} else {
			w0 += g.VWgt[bestV]
		}
		return true
	}
	for pass := 0; pass < refinePasses; pass++ {
		// Restore balance.
		for w0 > max0 {
			if !moveBest(0) {
				break
			}
		}
		for w0 < min0 {
			if !moveBest(1) {
				break
			}
		}
		// Greedy improvement over boundary vertices, best gains first.
		type cand struct {
			v int
			g int64
		}
		var cands []cand
		for v := range side {
			onBoundary := false
			g.Neighbors(v, func(u int, w int32) {
				if side[u] != side[v] {
					onBoundary = true
				}
			})
			if onBoundary {
				cands = append(cands, cand{v, gain(v)})
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].g != cands[j].g {
				return cands[i].g > cands[j].g
			}
			return cands[i].v < cands[j].v
		})
		moved := 0
		for _, c := range cands {
			cg := gain(c.v) // re-evaluate: earlier moves shift gains
			if cg <= 0 {
				continue
			}
			vw := g.VWgt[c.v]
			if side[c.v] == 0 {
				if w0-vw < min0 {
					continue
				}
				side[c.v] = 1
				w0 -= vw
			} else {
				if w0+vw > max0 {
					continue
				}
				side[c.v] = 0
				w0 += vw
			}
			moved++
		}
		if moved == 0 && w0 <= max0 && w0 >= min0 {
			return
		}
	}
}

// CostFn scores a candidate vertex move for k-way refinement. gainCut is
// the edge-cut reduction of the move (positive = better); moveDelta is the
// signed change in migration volume. The default (nil) objective is
// gainCut alone; the parmetis package supplies |Ecut| + alpha*|Vmove|. A
// CostFn must not return NaN: RefineKWay compares scores as a total order.
type CostFn func(gainCut int64, moveDelta int64) float64

// RefineKWay improves a k-way partition in place with greedy boundary
// passes: each pass restores balance, then applies every positive-objective
// boundary move. oldPart (may be nil, or part itself) anchors the
// migration-volume term.
func RefineKWay(g *graph.Graph, part []int, k int, oldPart []int, cost CostFn, opt Options) {
	opt = opt.WithDefaults()
	if cost == nil {
		cost = func(gainCut, _ int64) float64 { return float64(gainCut) }
	}
	n := g.NumVertices()
	wgt := graph.PartWeights(g, part, k)
	tot := g.TotalVWgt()
	maxw := int64(float64(tot) / float64(k) * (1 + opt.Imbalance))
	// absW bounds the magnitude of every part weight, whatever moves.
	var absW int64
	for _, w := range g.VWgt {
		absW += max(w, -w)
	}

	conn := make([]int64, k) // v's edge weight into each part (0 outside adj)
	touched := make([]bool, k)
	adj := make([]int, 0, k) // the parts v's neighbours are in
	cands := make([]int, 0, k)
	all := make([]int, k)   // every part, ascending
	order := make([]int, k) // every part, by (weight, index)
	for p := range all {
		all[p], order[p] = p, p
	}
	byWeight := func(a, b int) int { return cmp.Or(cmp.Compare(wgt[a], wgt[b]), cmp.Compare(a, b)) }
	moveDelta := func(v, to int) int64 {
		if oldPart == nil {
			return 0
		}
		var d int64
		if to != oldPart[v] {
			d += g.Size(v)
		}
		if part[v] != oldPart[v] {
			d -= g.Size(v)
		}
		return d
	}
	// rebalanceCandidates returns, ascending, the parts a forced move of v
	// out of cur must score. A forced move scores part b as
	//
	//	-float64(wgt[b]) + cost(conn[b]-conn[cur], moveDelta(v, b))*1e-9
	//
	// and the scan keeps the first strictly higher score, so it picks the
	// lowest-index part of the highest score. A part that no neighbour of v
	// is in and that is neither cur nor oldPart[v] has conn[b] == 0 and the
	// same moveDelta as every other such part, so they all add the same
	// cost term t. Rounded addition is monotone, so the lightest of them,
	// lowest index first, scores highest among them, and it is the only one
	// that can win: the adjacent parts, oldPart[v] and that lightest part
	// give the scan over all k parts its answer. While every |wgt[b]| + |t|
	// stays below 2^50, -wgt[b]+t keeps two unequal weights apart after
	// rounding; past that (or on a NaN t) two could tie and leave a
	// heavier, lower-index part the winner, so the vertex scores all k.
	rebalanceCandidates := func(v, cur int) []int {
		old := -1
		if oldPart != nil {
			old = oldPart[v]
		}
		cands = append(cands[:0], adj...)
		if old != cur && old >= 0 && !touched[old] {
			cands = append(cands, old)
		}
		for _, b := range order {
			if b == cur || b == old || touched[b] {
				continue
			}
			if t := cost(-conn[cur], moveDelta(v, b)) * 1e-9; !(math.Abs(t) < 1<<50-float64(absW)) {
				return all
			}
			cands = append(cands, b)
			break
		}
		slices.Sort(cands)
		return cands
	}
	// bestMove returns the best target part for v and its objective value.
	bestMove := func(v int, force bool) (int, float64) {
		cur := part[v]
		for _, b := range adj {
			conn[b], touched[b] = 0, false
		}
		adj = adj[:0]
		g.Neighbors(v, func(u int, w int32) {
			b := part[u]
			if !touched[b] {
				touched[b] = true
				adj = append(adj, b)
			}
			conn[b] += int64(w)
		})
		slices.Sort(adj)
		parts := adj
		if force {
			parts = rebalanceCandidates(v, cur)
		}
		bestP, bestScore := -1, 0.0
		for _, b := range parts {
			if b == cur {
				continue
			}
			if conn[b] == 0 && !force {
				continue // only adjacent parts unless forced rebalancing
			}
			if wgt[b]+g.VWgt[v] > maxw && !force {
				continue
			}
			gainCut := conn[b] - conn[cur]
			score := cost(gainCut, moveDelta(v, b))
			if force {
				// While rebalancing, prefer the lightest feasible part and
				// break ties by objective.
				score = -float64(wgt[b]) + score*1e-9
			}
			if bestP == -1 || score > bestScore {
				bestP, bestScore = b, score
			}
		}
		return bestP, bestScore
	}
	apply := func(v, to int) {
		wgt[part[v]] -= g.VWgt[v]
		wgt[to] += g.VWgt[v]
		part[v] = to
	}
	for pass := 0; pass < refinePasses; pass++ {
		// Rebalance overweight parts.
		for iter := 0; iter < n; iter++ {
			heavy := -1
			for p := 0; p < k; p++ {
				if wgt[p] > maxw && (heavy == -1 || wgt[p] > wgt[heavy]) {
					heavy = p
				}
			}
			if heavy == -1 {
				break
			}
			slices.SortFunc(order, byWeight)
			bestV, bestP, bestScore := -1, -1, 0.0
			for v := 0; v < n; v++ {
				if part[v] != heavy {
					continue
				}
				p, score := bestMove(v, true)
				if p >= 0 && (bestV == -1 || score > bestScore) {
					bestV, bestP, bestScore = v, p, score
				}
			}
			if bestV < 0 {
				break
			}
			apply(bestV, bestP)
		}
		// Positive-objective boundary moves.
		moved := 0
		for v := 0; v < n; v++ {
			onBoundary := false
			g.Neighbors(v, func(u int, w int32) {
				if part[u] != part[v] {
					onBoundary = true
				}
			})
			if !onBoundary {
				continue
			}
			if p, score := bestMove(v, false); p >= 0 && score > 0 {
				apply(v, p)
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}
