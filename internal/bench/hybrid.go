package bench

import (
	"fmt"
	"maps"
	"slices"

	"prema/internal/coll"
	"prema/internal/core"
	"prema/internal/dmcs"
	"prema/internal/mol"
	"prema/internal/sim"
	"prema/internal/substrate"
)

// The hybrid experiment implements the paper's future-work direction (§6):
// "a unified method for solving the load balancing problem for end-to-end
// applications that consist of both asynchronous, highly adaptive
// computation phases, such as parallel mesh refinement, and loosely
// synchronous computation phases such as parallel sparse iterative field
// solvers."
//
// Each of Iterations phases is: (1) an asynchronous refinement step — the
// mesh experiment's step: each subdomain remeshes under the moved crack,
// with strongly non-uniform, unpredictable costs — followed by (2) a loosely
// synchronous solve step: SolveIters sweeps over the refined elements with a
// barrier after each sweep, so a solve sweep runs at the pace of its most
// loaded processor.
//
// Three regimes:
//
//   - "repartition": no balancing during refinement; URA repartition of the
//     subdomain graph between refine and solve (classic stop-and-repartition
//     usage — balances the solver, leaves refinement imbalanced).
//   - "prema": PREMA work stealing during refinement; the solver runs on
//     whatever placement stealing produced (balances refinement, leaves the
//     solver approximately balanced at best).
//   - "unified": work stealing during refinement AND URA repartition before
//     each solve — the paper's proposed end-to-end method.
type HybridConfig struct {
	// MeshExpConfig is the refinement: Iterations phases, PerTet per
	// generated tetrahedron.
	MeshExpConfig
	// SolveIters is the number of solver sweeps per phase, PerTetSolve the
	// price of one sweep over one tetrahedron.
	SolveIters  int
	PerTetSolve sim.Time
}

// DefaultHybridConfig returns the configuration used by the hybrid bench.
func DefaultHybridConfig() HybridConfig {
	return HybridConfig{
		MeshExpConfig: MeshExpConfig{
			Procs:      16,
			Grid:       [3]int{8, 4, 2},
			Iterations: 8,
			PerTet:     15 * sim.Millisecond,
			Seed:       23,
		},
		SolveIters:  10,
		PerTetSolve: 2 * sim.Millisecond,
	}
}

// HybridSystems lists the three regimes.
var HybridSystems = []string{"repartition", "prema", "unified"}

// RunHybrid executes one regime over the mesh experiment's cost matrix
// (BuildMeshCosts of cfg.MeshExpConfig). steal enables work stealing during
// refinement; repart enables the between-phase repartition.
func RunHybrid(system string, cfg HybridConfig, mc *MeshCosts) (*Result, error) {
	var steal, repart bool
	switch system {
	case "repartition":
		repart = true
	case "prema":
		steal = true
	case "unified":
		steal, repart = true, true
	default:
		return nil, fmt.Errorf("bench: unknown hybrid system %q", system)
	}

	app := mc.application(cfg.MeshExpConfig)
	pc := meshPrema(steal, mc.meanWeight(cfg.MeshExpConfig))
	w := Workload{Procs: cfg.Procs, Units: app.objects * app.steps, Seed: cfg.Seed}
	var plans planCache
	m := w.simMachine()
	for p := 0; p < cfg.Procs; p++ {
		m.Spawn(fmt.Sprintf("p%03d", p), func(proc substrate.Endpoint) {
			r := core.NewRuntime(proc, pc.options(w, nil))
			cl := coll.New(r.Comm())
			me := proc.ID()

			refined := 0 // root: refinements completed this phase
			phaseDone := false
			var hRefined, hPhaseDone dmcs.HandlerID
			hRefined = r.Comm().Register(func(c *dmcs.Comm, src int, data any, size int) {
				refined++
				if refined == app.objects {
					refined = 0
					for q := 1; q < cfg.Procs; q++ {
						c.SendTagged(q, hPhaseDone, nil, 8, sim.TagSystem)
					}
					phaseDone = true
				}
			})
			hPhaseDone = r.Comm().Register(func(c *dmcs.Comm, src int, data any, size int) {
				phaseDone = true
			})
			phase := 0
			hRefine := r.RegisterHandler(func(l *mol.Layer, obj *mol.Object, src int, data any, size int) {
				r.Compute(app.cost(obj.Data.(int), phase))
				r.Comm().SendTagged(0, hRefined, nil, 8, sim.TagApp)
			})

			for _, sub := range blockOf(me, cfg.Procs, app.objects) {
				r.Register(sub, app.objBytes)
			}
			// local lists this processor's subdomains in ascending order.
			local := func() []*mol.Object {
				objs := slices.Collect(maps.Values(r.Mol().Local()))
				slices.SortFunc(objs, func(a, b *mol.Object) int { return a.Data.(int) - b.Data.(int) })
				return objs
			}

			for phase = 0; phase < cfg.Iterations; phase++ {
				// ---- Asynchronous refinement ----
				phaseDone = false
				for _, obj := range local() {
					sub := obj.Data.(int)
					r.Message(obj.MP, hRefine, nil, app.msgBytes, app.hint(sub, phase))
				}
				for !phaseDone {
					r.Scheduler().Step()
				}
				cl.Barrier()

				// ---- Optional repartition before the solve ----
				// Every processor gathers every subdomain list and is charged
				// for the partition calculation; the host computes the URA's
				// answer once, weighting each subdomain by this phase's
				// tetrahedra. Every round is applied.
				if repart {
					objs := local()
					subs := make([]int, len(objs))
					for i, obj := range objs {
						subs[i] = obj.Data.(int)
					}
					gathered := cl.AllGather(subs, 16*len(subs)+16)
					lists := make([][]int, len(gathered))
					for q, l := range gathered {
						lists[q] = l.([]int)
					}
					tets := mc.Tets[phase]
					pl := plans.get(phase, func() *repartPlan {
						return planRound(phase, lists, w, app, 0, func(sub int) int64 { return max(1, int64(tets[sub])) })
					})
					proc.Advance(50*sim.Millisecond+sim.Time(app.objects)*sim.Millisecond, sim.CatPartition)
					kept := 0
					for _, obj := range objs {
						if q := pl.owner[obj.Data.(int)]; q != me {
							r.Mol().Migrate(obj.MP, q)
						} else {
							kept++
						}
					}
					for len(r.Mol().Local()) != kept+pl.arrivals[me] {
						proc.WaitMsg(sim.CatSync)
						r.Comm().PollTag(sim.TagSystem)
					}
					cl.Barrier()
				}

				// ---- Loosely synchronous solve ----
				// Relaxation sweeps over this processor's share of the field:
				// one unknown per locally owned tetrahedron (the mesh
				// experiment's cost matrix sizes the system), PerTetSolve of
				// virtual time per unknown per sweep, and a barrier after
				// every sweep. Only the costs are modeled.
				var unknowns float64
				for _, obj := range local() {
					unknowns += mc.Tets[phase][obj.Data.(int)]
				}
				for it := 0; it < cfg.SolveIters; it++ {
					proc.Advance(sim.Scale(cfg.PerTetSolve, unknowns), sim.CatCompute)
					cl.Barrier()
				}
			}
			r.Stop()
		})
	}
	if err := m.Run(); err != nil {
		return nil, fmt.Errorf("hybrid %s: %w", system, err)
	}
	return collect(system, w, m), nil
}
