package partition

import (
	"math/rand"
	"slices"
	"testing"

	"prema/internal/graph"
)

// refineKWayReference is RefineKWay as it was while forced rebalancing
// scored every part for every vertex of the heaviest part: the reference
// FuzzRefineKWayMatchesReference holds the candidate rule to.
func refineKWayReference(g *graph.Graph, part []int, k int, oldPart []int, cost CostFn, opt Options) {
	opt = opt.WithDefaults()
	if cost == nil {
		cost = func(gainCut, _ int64) float64 { return float64(gainCut) }
	}
	n := g.NumVertices()
	wgt := graph.PartWeights(g, part, k)
	tot := g.TotalVWgt()
	maxw := int64(float64(tot) / float64(k) * (1 + opt.Imbalance))

	conn := make([]int64, k)
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
	bestMove := func(v int, force bool) (int, float64) {
		cur := part[v]
		for i := range conn {
			conn[i] = 0
		}
		g.Neighbors(v, func(u int, w int32) {
			conn[part[u]] += int64(w)
		})
		bestP, bestScore := -1, 0.0
		for b := 0; b < k; b++ {
			if b == cur {
				continue
			}
			if conn[b] == 0 && !force {
				continue
			}
			if wgt[b]+g.VWgt[v] > maxw && !force {
				continue
			}
			gainCut := conn[b] - conn[cur]
			score := cost(gainCut, moveDelta(v, b))
			if force {
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

// refineCase is one RefineKWay input drawn from a fuzz entry's parameters.
type refineCase struct {
	g       *graph.Graph
	part    []int
	k       int
	oldPart []int
	alias   bool // oldPart is part itself, as diffusionRepart passes it
	cost    CostFn
	opt     Options
}

// newRefineCase draws a graph of n vertices with about edges edges per
// vertex, vertex weights shifted left by wshift (large shifts reach the
// rounding fallback through the part weights), and a start that puts the
// first skew% of the vertices in part 0 and scatters the rest. oldMode picks
// oldPart (0 nil, 1 independent, 2 part itself) and costMode the objective
// (0 nil, 1 the URA's gainCut − α·moveDelta, 2 diffusion's gainCut, 3 a
// cost of large magnitude).
func newRefineCase(seed int64, n, k, edges, oldMode, costMode int, imbalance float64, skew, wshift int) refineCase {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetVWgt(v, int64(1+rng.Intn(9))<<wshift)
		for e := 0; e < edges; e++ {
			b.AddEdge(v, rng.Intn(n), int32(1+rng.Intn(4)))
		}
	}
	c := refineCase{g: b.Build(), part: make([]int, n), k: k, opt: Options{Imbalance: imbalance}}
	for v := range c.part {
		if v*100 >= skew*n {
			c.part[v] = rng.Intn(k)
		}
	}
	switch oldMode {
	case 1:
		c.oldPart = make([]int, n)
		for v := range c.oldPart {
			c.oldPart[v] = rng.Intn(k)
		}
	case 2:
		c.alias = true
	}
	switch costMode {
	case 1:
		c.cost = func(gainCut, moveDelta int64) float64 { return float64(gainCut) - 0.1*float64(moveDelta) }
	case 2:
		c.cost = func(gainCut, _ int64) float64 { return float64(gainCut) }
	case 3:
		c.cost = func(gainCut, moveDelta int64) float64 { return float64(gainCut)*1e60 - float64(moveDelta)*1e58 }
	}
	return c
}

// run refines a copy of the start with refine and returns it.
func (c refineCase) run(refine func(*graph.Graph, []int, int, []int, CostFn, Options)) []int {
	part := slices.Clone(c.part)
	oldPart := c.oldPart
	if c.alias {
		oldPart = part
	}
	refine(c.g, part, c.k, oldPart, c.cost, c.opt)
	return part
}

// FuzzRefineKWayMatchesReference: on equal inputs RefineKWay, which scores
// at most the adjacent parts, the old part and the lightest other part of a
// vertex while rebalancing, returns exactly the parts of the reference,
// which scores all k. The seed corpus walks k from 2 to 41, edgeless and
// sparse graphs, the three oldPart shapes, the tree's three objectives and
// a large one, Imbalance 0 (the default), 0.03 and 0.1, skewed starts that
// make the forced loop run, and weights large enough for the fallback.
func FuzzRefineKWayMatchesReference(f *testing.F) {
	ks := []int{2, 3, 5, 8, 13, 21, 41}
	imbalances := []float64{0, 0.03, 0.1}
	for i := 0; i < 120; i++ {
		wshift := 0
		if i%11 == 10 {
			wshift = 46
		}
		f.Add(int64(i), uint8(10+(i*37)%110), uint8(ks[i%len(ks)]-2), uint8(i%3), uint8(i%3), uint8(i%4), uint8(i%len(imbalances)), uint8(30+(i*23)%71), uint8(wshift))
	}
	// A large cost on 13 vertices in 8 parts: scoring only the lightest
	// non-adjacent part, without the rounding fallback, picks another part.
	f.Add(int64(3), uint8(11), uint8(6), uint8(1), uint8(0), uint8(3), uint8(2), uint8(99), uint8(15))
	f.Fuzz(func(t *testing.T, seed int64, rawN, rawK, edges, oldMode, costMode, imb, skew, wshift uint8) {
		n, k := 2+int(rawN)%150, 2+int(rawK)%40
		c := newRefineCase(seed, n, k, int(edges%3), int(oldMode%3), int(costMode%4), imbalances[imb%3], int(skew%101), int(wshift%48))
		want, got := c.run(refineKWayReference), c.run(RefineKWay)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d k=%d: parts differ from the reference\n got  %v\n want %v", n, k, got, want)
		}
	})
}

// TestForcedMoveAllocsNothing: a forced move allocates nothing, so
// RefineKWay's allocations do not grow with the number of forced moves.
func TestForcedMoveAllocsNothing(t *testing.T) {
	g := graph.Grid3D(12, 12, 2)
	allocs := func(skew int) float64 {
		part := make([]int, g.NumVertices())
		return testing.AllocsPerRun(20, func() {
			for v := range part {
				part[v] = 0
				if v*100 >= skew*len(part) {
					part[v] = v % 8
				}
			}
			RefineKWay(g, part, 8, nil, nil, Options{})
		})
	}
	if few, many := allocs(20), allocs(100); few != many {
		t.Errorf("%v allocations with few forced moves, %v with many", few, many)
	}
}
