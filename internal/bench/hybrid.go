package bench

import (
	"fmt"
	"sort"

	"prema/internal/coll"
	"prema/internal/core"
	"prema/internal/dmcs"
	"prema/internal/graph"
	"prema/internal/ilb"
	"prema/internal/mesh"
	"prema/internal/mol"
	"prema/internal/parmetis"
	"prema/internal/policy"
	"prema/internal/sim"
	"prema/internal/solver"
	"prema/internal/substrate"
)

// The hybrid experiment implements the paper's future-work direction (§6):
// "a unified method for solving the load balancing problem for end-to-end
// applications that consist of both asynchronous, highly adaptive
// computation phases, such as parallel mesh refinement, and loosely
// synchronous computation phases such as parallel sparse iterative field
// solvers."
//
// Each of NumPhases phases is: (1) an asynchronous refinement step — each
// subdomain remeshes under the moved crack, with strongly non-uniform,
// unpredictable costs — followed by (2) a loosely synchronous solve step:
// SolveIters sweeps over the refined elements with a global reduction
// (barrier) after each sweep, so a solve sweep runs at the pace of its most
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
	Procs      int
	Grid       [3]int
	NumPhases  int
	SolveIters int
	// PerTetRefine and PerTetSolve price one tetrahedron's generation and
	// one solver sweep over it.
	PerTetRefine sim.Time
	PerTetSolve  sim.Time
	Seed         int64
}

// DefaultHybridConfig returns the configuration used by the hybrid bench.
func DefaultHybridConfig() HybridConfig {
	return HybridConfig{
		Procs:        16,
		Grid:         [3]int{8, 4, 2},
		NumPhases:    8,
		SolveIters:   10,
		PerTetRefine: 15 * sim.Millisecond,
		PerTetSolve:  2 * sim.Millisecond,
		Seed:         23,
	}
}

// NumSubdomains returns the subdomain count.
func (c HybridConfig) NumSubdomains() int { return c.Grid[0] * c.Grid[1] * c.Grid[2] }

// HybridSystems lists the three regimes.
var HybridSystems = []string{"repartition", "prema", "unified"}

// BuildHybridCosts reuses the mesh-experiment machinery to produce the
// per-(phase, subdomain) element counts.
func BuildHybridCosts(cfg HybridConfig) *MeshCosts {
	m := MeshExpConfig{
		Procs:      cfg.Procs,
		Grid:       cfg.Grid,
		Iterations: cfg.NumPhases,
		Seed:       cfg.Seed,
	}
	return BuildMeshCosts(m)
}

// RunHybrid executes one regime. steal enables work stealing during
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

	nSubs := cfg.NumSubdomains()
	adjacency := mesh.Neighbors(cfg.Grid[0], cfg.Grid[1], cfg.Grid[2])
	meanRefine := 0.0
	for _, row := range mc.Tets {
		for _, tets := range row {
			meanRefine += tets * cfg.PerTetRefine.Seconds()
		}
	}
	meanRefine /= float64(nSubs * cfg.NumPhases)

	w := Workload{Procs: cfg.Procs, Units: nSubs * cfg.NumPhases, Seed: cfg.Seed}
	m := w.simMachine()
	for p := 0; p < cfg.Procs; p++ {
		m.Spawn(fmt.Sprintf("p%03d", p), func(proc substrate.Endpoint) {
			opts := core.DefaultOptions(ilb.Implicit)
			opts.LB.WaterMark = meanRefine
			if steal {
				ws := policy.DefaultWSConfig()
				ws.MaxObjects = 1
				opts.Policy = policy.NewWorkStealing(ws)
			}
			r := core.NewRuntime(proc, opts)
			cl := coll.New(r.Comm())

			refined := 0 // root: refinements completed this phase
			phaseDone := false
			var hRefined, hPhaseDone dmcs.HandlerID
			hRefined = r.Comm().Register(func(c *dmcs.Comm, src int, data any, size int) {
				refined++
				if refined == nSubs {
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
				sub := obj.Data.(int)
				r.Compute(sim.Scale(cfg.PerTetRefine, mc.Tets[phase][sub]))
				r.Comm().SendTagged(0, hRefined, nil, 8, sim.TagApp)
			})

			// Initial block placement of subdomain objects.
			for sub := 0; sub < nSubs; sub++ {
				if sub*cfg.Procs/nSubs == proc.ID() {
					r.Register(sub, 64<<10)
				}
			}

			localSubs := func() []int {
				var subs []int
				for _, obj := range r.Mol().Local() {
					subs = append(subs, obj.Data.(int))
				}
				sort.Ints(subs)
				return subs
			}

			for phase = 0; phase < cfg.NumPhases; phase++ {
				// ---- Asynchronous refinement ----
				phaseDone = false
				for _, sub := range localSubs() {
					hint := meanRefine
					if phase > 0 {
						hint = mc.Tets[phase-1][sub] * cfg.PerTetRefine.Seconds()
					}
					r.Message(mol.MobilePtr{Home: sub * cfg.Procs / nSubs, Index: homeIndex(sub, cfg.Procs, nSubs)}, hRefine, nil, 16, hint)
				}
				for !phaseDone {
					r.Scheduler().Step()
				}
				cl.Barrier()

				// ---- Optional repartition before the solve ----
				if repart {
					type rec struct {
						Sub  int
						Tets float64
					}
					var mine []rec
					for _, sub := range localSubs() {
						mine = append(mine, rec{Sub: sub, Tets: mc.Tets[phase][sub]})
					}
					gathered := cl.AllGather(mine, 16*len(mine)+16)
					owner := make([]int, nSubs)
					tets := make([]float64, nSubs)
					for q, raw := range gathered {
						if raw == nil {
							continue
						}
						for _, rc := range raw.([]rec) {
							owner[rc.Sub] = q
							tets[rc.Sub] = rc.Tets
						}
					}
					b := graph.NewBuilder(nSubs)
					for sub := 0; sub < nSubs; sub++ {
						w := int64(tets[sub])
						if w < 1 {
							w = 1
						}
						b.SetVWgt(sub, w)
					}
					for _, pr := range adjacency {
						b.AddEdge(pr[0], pr[1], 1)
					}
					opt := parmetis.DefaultOptions()
					opt.Part.Seed = cfg.Seed + int64(phase)
					proc.Advance(50*sim.Millisecond+sim.Time(nSubs)*sim.Millisecond, sim.CatPartition)
					newPart := parmetis.AdaptiveRepart(b.Build(), cfg.Procs, owner, opt)
					for _, sub := range localSubs() {
						if dst := newPart[sub]; dst != proc.ID() {
							mp := mol.MobilePtr{Home: sub * cfg.Procs / nSubs, Index: homeIndex(sub, cfg.Procs, nSubs)}
							r.Mol().Migrate(mp, dst)
						}
					}
					expected := 0
					for sub := 0; sub < nSubs; sub++ {
						if newPart[sub] == proc.ID() {
							expected++
						}
					}
					for len(r.Mol().Local()) != expected {
						proc.WaitMsg(sim.CatSync)
						r.Comm().PollTag(sim.TagSystem)
					}
					cl.Barrier()
				}

				// ---- Loosely synchronous solve ----
				// A real Jacobi relaxation over this processor's share of the
				// field: one unknown per locally owned tetrahedron (the mesh
				// experiment's cost matrix sizes the system), with the global
				// residual reduction after every sweep. Virtual time per sweep
				// is PerTetSolve per unknown; the numerics are actually run.
				var local float64
				for _, sub := range localSubs() {
					local += mc.Tets[phase][sub]
				}
				dim := int(local)
				if dim < 2 {
					dim = 2
				}
				a := solver.Laplacian1D(dim)
				diag := a.Diag()
				x := make([]float64, dim)
				rhs := make([]float64, dim)
				scratch := make([]float64, dim)
				for i := range rhs {
					rhs[i] = 1
				}
				for it := 0; it < cfg.SolveIters; it++ {
					res := solver.JacobiSweep(a, diag, x, rhs, scratch, 0.8)
					proc.Advance(sim.Scale(cfg.PerTetSolve, local), sim.CatCompute)
					// The solver's convergence test is a global reduction.
					cl.AllReduceFloat(res*res, "sum")
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

// homeIndex returns the registration index of sub on its home processor
// (objects are registered in ascending subdomain order per processor).
func homeIndex(sub, procs, nSubs int) int {
	home := sub * procs / nSubs
	idx := 0
	for s := 0; s < sub; s++ {
		if s*procs/nSubs == home {
			idx++
		}
	}
	return idx
}
