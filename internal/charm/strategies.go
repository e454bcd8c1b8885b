package charm

import (
	"container/heap"
	"sort"

	"prema/internal/graph"
	"prema/internal/parmetis"
)

// GreedyLB is Charm++'s simplest central strategy: sort chares by measured
// load descending and repeatedly assign the heaviest unplaced chare to the
// currently lightest processor. Quality is high; migration volume can be
// large (the strategy ignores current placement).
type GreedyLB struct{}

// Name implements Strategy.
func (GreedyLB) Name() string { return "greedy" }

// procHeap is a min-heap of processor loads.
type procHeap struct {
	load []float64
	id   []int
}

func (h *procHeap) Len() int { return len(h.id) }
func (h *procHeap) Less(i, j int) bool {
	if h.load[i] != h.load[j] {
		return h.load[i] < h.load[j]
	}
	return h.id[i] < h.id[j]
}
func (h *procHeap) Swap(i, j int) {
	h.load[i], h.load[j] = h.load[j], h.load[i]
	h.id[i], h.id[j] = h.id[j], h.id[i]
}
func (h *procHeap) Push(x any) {
	p := x.([2]float64)
	h.load = append(h.load, p[0])
	h.id = append(h.id, int(p[1]))
}
func (h *procHeap) Pop() any {
	n := len(h.id)
	v := [2]float64{h.load[n-1], float64(h.id[n-1])}
	h.load = h.load[:n-1]
	h.id = h.id[:n-1]
	return v
}

// Remap implements Strategy.
func (GreedyLB) Remap(loads []ChareLoad, nprocs int) map[int]int {
	sorted := append([]ChareLoad(nil), loads...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Load != sorted[j].Load {
			return sorted[i].Load > sorted[j].Load
		}
		return sorted[i].Index < sorted[j].Index
	})
	h := &procHeap{}
	for p := 0; p < nprocs; p++ {
		h.load = append(h.load, 0)
		h.id = append(h.id, p)
	}
	heap.Init(h)
	out := make(map[int]int, len(loads))
	for _, c := range sorted {
		v := heap.Pop(h).([2]float64)
		out[c.Index] = int(v[1])
		v[0] += c.Load
		heap.Push(h, v)
	}
	return out
}

// RefineLB moves chares only off overloaded processors, minimizing
// migrations: while some processor exceeds (1+Tolerance) x average, its
// heaviest chare moves to the currently lightest processor.
type RefineLB struct {
	// Tolerance is the allowed overload fraction (default 0.05).
	Tolerance float64
}

// Name implements Strategy.
func (r RefineLB) Name() string { return "refine" }

// Remap implements Strategy.
func (r RefineLB) Remap(loads []ChareLoad, nprocs int) map[int]int {
	tol := r.Tolerance
	if tol <= 0 {
		tol = 0.05
	}
	procLoad := make([]float64, nprocs)
	perProc := make([][]ChareLoad, nprocs)
	total := 0.0
	for _, c := range loads {
		procLoad[c.Proc] += c.Load
		perProc[c.Proc] = append(perProc[c.Proc], c)
		total += c.Load
	}
	for p := range perProc {
		sort.SliceStable(perProc[p], func(i, j int) bool {
			if perProc[p][i].Load != perProc[p][j].Load {
				return perProc[p][i].Load > perProc[p][j].Load
			}
			return perProc[p][i].Index < perProc[p][j].Index
		})
	}
	avg := total / float64(nprocs)
	limit := avg * (1 + tol)
	out := make(map[int]int)
	for iter := 0; iter < len(loads); iter++ {
		// Heaviest processor above the limit.
		heavy := -1
		for p := 0; p < nprocs; p++ {
			if procLoad[p] > limit && (heavy == -1 || procLoad[p] > procLoad[heavy]) {
				heavy = p
			}
		}
		if heavy == -1 {
			break
		}
		light := 0
		for p := 1; p < nprocs; p++ {
			if procLoad[p] < procLoad[light] {
				light = p
			}
		}
		if len(perProc[heavy]) == 0 {
			break
		}
		// Move the heaviest chare that strictly improves the pair; anything
		// else would thrash load back and forth.
		moved := false
		for i, c := range perProc[heavy] {
			if procLoad[light]+c.Load >= procLoad[heavy] {
				continue
			}
			perProc[heavy] = append(perProc[heavy][:i], perProc[heavy][i+1:]...)
			procLoad[heavy] -= c.Load
			procLoad[light] += c.Load
			perProc[light] = append(perProc[light], c)
			out[c.Index] = light
			moved = true
			break
		}
		if !moved {
			break
		}
	}
	return out
}

// MetisLB feeds the database to the graph partitioner, as Charm++'s
// Metis-based strategies do: chares become vertices weighted by measured
// load, and the adaptive repartitioner balances them while minimizing
// migration (no communication edges are available at this interface, so the
// objective reduces to balance + movement).
type MetisLB struct{}

// Name implements Strategy.
func (m MetisLB) Name() string { return "metis" }

// Remap implements Strategy.
func (m MetisLB) Remap(loads []ChareLoad, nprocs int) map[int]int {
	sorted := append([]ChareLoad(nil), loads...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Index < sorted[j].Index })
	b := graph.NewBuilder(len(sorted))
	oldPart := make([]int, len(sorted))
	for i, c := range sorted {
		w := int64(c.Load * 1e6)
		if w < 1 {
			w = 1
		}
		b.SetVWgt(i, w)
		oldPart[i] = c.Proc
	}
	g := b.Build()
	newPart := parmetis.AdaptiveRepart(g, nprocs, oldPart, parmetis.DefaultOptions())
	out := make(map[int]int, len(sorted))
	for i, c := range sorted {
		out[c.Index] = newPart[i]
	}
	return out
}
