// Hybrid: the paper's future-work vision (§6), implemented — an end-to-end
// application alternating *asynchronous, highly adaptive* phases (parallel
// mesh refinement around a moving crack) with *loosely synchronous* phases
// (an iterative field solver with a global reduction per sweep).
//
// Neither load balancing style suffices alone:
//
//   - stop-and-repartition balances the solver but leaves refinement
//     imbalanced (and cannot predict where the crack goes);
//   - PREMA work stealing balances refinement as it happens but leaves the
//     solver running on whatever placement stealing produced, and a
//     barrier-paced solver runs at the pace of its most loaded processor.
//
// The unified method — steal during refinement, repartition before each
// solve — beats both.
//
// Run: go run ./examples/hybrid
package main

import (
	"fmt"

	"prema/internal/bench"
)

func main() {
	cfg := bench.DefaultHybridConfig()
	fmt.Printf("hybrid end-to-end application: %d procs, %d subdomains, %d phases "+
		"(refine -> solve x%d)\n\n", cfg.Procs, cfg.NumSubdomains(), cfg.Iterations, cfg.SolveIters)
	mc := bench.BuildMeshCosts(cfg.MeshExpConfig)

	type row struct {
		name string
		r    *bench.Result
	}
	var rows []row
	for _, sys := range bench.HybridSystems {
		r, err := bench.RunHybrid(sys, cfg, mc)
		if err != nil {
			panic(err)
		}
		rows = append(rows, row{sys, r})
	}
	fmt.Printf("%-22s %12s %16s\n", "regime", "makespan", "sync+partition")
	for _, rw := range rows {
		fmt.Printf("%-22s %11.1fs %14.1f%%\n", rw.name, rw.r.Makespan.Seconds(), rw.r.SyncPct())
	}
	uni := rows[2].r.Makespan.Seconds()
	fmt.Printf("\nunified vs repartition-only: %+.1f%%\n", 100*(uni-rows[0].r.Makespan.Seconds())/rows[0].r.Makespan.Seconds())
	fmt.Printf("unified vs prema-only:       %+.1f%%\n", 100*(uni-rows[1].r.Makespan.Seconds())/rows[1].r.Makespan.Seconds())
}
