package charm

import "sort"

// GreedyLB is Charm++'s simplest central strategy: sort chares by measured
// load descending and repeatedly assign the heaviest unplaced chare to the
// currently lightest processor. Quality is high; migration volume can be
// large (the strategy ignores current placement).
type GreedyLB struct{}

// Remap implements Strategy.
func (GreedyLB) Remap(loads []ChareLoad, nprocs int) map[int]int {
	sorted := append([]ChareLoad(nil), loads...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Load != sorted[j].Load {
			return sorted[i].Load > sorted[j].Load
		}
		return sorted[i].Index < sorted[j].Index
	})
	procLoad := make([]float64, nprocs)
	out := make(map[int]int, len(loads))
	for _, c := range sorted {
		// The lightest processor, the lowest ID among equals.
		light := 0
		for p := 1; p < nprocs; p++ {
			if procLoad[p] < procLoad[light] {
				light = p
			}
		}
		out[c.Index] = light
		procLoad[light] += c.Load
	}
	return out
}

// RefineLB moves chares only off overloaded processors, minimizing
// migrations: while some processor exceeds (1+refineTolerance) x average,
// its heaviest chare moves to the currently lightest processor.
type RefineLB struct{}

// refineTolerance is the overload fraction RefineLB leaves alone.
const refineTolerance = 0.05

// Remap implements Strategy.
func (RefineLB) Remap(loads []ChareLoad, nprocs int) map[int]int {
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
	limit := avg * (1 + refineTolerance)
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
