package bench

import (
	"fmt"

	"prema/internal/ilb"
	"prema/internal/mesh"
	"prema/internal/sim"
	"prema/internal/sweep"
)

// MeshExpConfig configures the paper's mesh-generation experiment (§5): a
// 3-D advancing front mesher over an octree decomposition, refined around a
// crack that advances through the domain each iteration, run under three
// regimes — no load balancing, PREMA with implicit work stealing, and
// stop-and-repartition. The paper reports PREMA 15% faster than
// stop-and-repartition and 42% faster than no balancing, with <1% overhead.
type MeshExpConfig struct {
	// Procs is the simulated machine size.
	Procs int
	// Grid is the subdomain decomposition (nx, ny, nz).
	Grid [3]int
	// Iterations is the number of crack-growth refinement iterations.
	Iterations int
	// PerTet is the virtual CPU cost of generating one tetrahedron.
	PerTet sim.Time
	// UseMesher selects the real advancing front mesher for the cost matrix
	// (false uses the analytic element estimator — same shape, much faster).
	UseMesher bool
	// Seed drives determinism.
	Seed int64
}

// DefaultMeshExpConfig returns the configuration used by cmd/meshgen.
func DefaultMeshExpConfig() MeshExpConfig {
	return MeshExpConfig{
		Procs:      32,
		Grid:       [3]int{8, 4, 4},
		Iterations: 12,
		PerTet:     15 * sim.Millisecond,
		UseMesher:  false,
		Seed:       42,
	}
}

// NumSubdomains returns the subdomain count.
func (c MeshExpConfig) NumSubdomains() int { return c.Grid[0] * c.Grid[1] * c.Grid[2] }

// crackAt returns the crack at refinement iteration it: it grows along the
// domain diagonal, so the refined band sweeps across subdomains — the
// unpredictable localized spike of the paper's crack-growth application.
func (c MeshExpConfig) crackAt(domain mesh.Box, it int) mesh.Crack {
	diag := domain.Size()
	dir := diag.Scale(1 / diag.Norm())
	full := diag.Norm()
	frac := float64(it+1) / float64(c.Iterations)
	return mesh.Crack{
		Origin: domain.Lo,
		Dir:    dir,
		Length: full * frac * 0.95,
		Radius: 0.16 * full,
		HMin:   0.035,
		HMax:   0.25,
	}
}

// MeshCosts is the per-(iteration, subdomain) workload matrix: tetrahedra
// generated when remeshing that subdomain at that crack position.
type MeshCosts struct {
	Tets [][]float64 // [iteration][subdomain]
	Subs []mesh.Box
}

// Weight returns the virtual compute time for (iteration, subdomain).
func (mc *MeshCosts) Weight(cfg MeshExpConfig, it, sub int) sim.Time {
	return sim.Scale(cfg.PerTet, mc.Tets[it][sub])
}

// TotalWork returns the total virtual compute time of the experiment.
func (mc *MeshCosts) TotalWork(cfg MeshExpConfig) sim.Time {
	var t sim.Time
	for it := range mc.Tets {
		for sub := range mc.Tets[it] {
			t += mc.Weight(cfg, it, sub)
		}
	}
	return t
}

// BuildMeshCosts generates the workload matrix by actually meshing (or
// estimating) every subdomain at every crack position. The same matrix is
// shared by all three system drivers, so the comparison is exact.
func BuildMeshCosts(cfg MeshExpConfig) *MeshCosts { return BuildMeshCostsJobs(cfg, 1) }

// BuildMeshCostsJobs is BuildMeshCosts with up to jobs subdomains meshed
// concurrently. The mesher is deterministic and each (iteration, subdomain)
// cell is independent, so the matrix is identical for any worker count.
func BuildMeshCostsJobs(cfg MeshExpConfig, jobs int) *MeshCosts {
	domain := mesh.Box{Lo: mesh.Vec3{X: 0, Y: 0, Z: 0}, Hi: mesh.Vec3{X: 2, Y: 1, Z: 1}}
	subs := mesh.Decompose(domain, cfg.Grid[0], cfg.Grid[1], cfg.Grid[2])
	cracks := make([]mesh.Crack, cfg.Iterations)
	for it := range cracks {
		cracks[it] = cfg.crackAt(domain, it)
	}
	cells, err := sweep.Map(jobs, len(cracks)*len(subs), func(i int) (float64, error) {
		crack, b := cracks[i/len(subs)], subs[i%len(subs)]
		if cfg.UseMesher {
			return float64(mesh.Generate(b, crack).NumTets()), nil
		}
		return mesh.EstimateElements(b, crack, 6), nil
	})
	if err != nil { // the cell builder never errors; sweep only adds panics
		panic(err)
	}
	mc := &MeshCosts{Subs: subs, Tets: make([][]float64, len(cracks))}
	for it := range mc.Tets {
		mc.Tets[it] = cells[it*len(subs) : (it+1)*len(subs) : (it+1)*len(subs)]
	}
	return mc
}

// application describes the mesh experiment: every subdomain is an object
// refined once per crack position, and neighbouring subdomains share an
// edge. The hint for iteration k+1 is the measured cost of iteration k — the
// persistence guess the moving crack keeps breaking; before any measurement
// it is the experiment's mean.
func (mc *MeshCosts) application(cfg MeshExpConfig) application {
	mean := mc.meanWeight(cfg)
	return application{
		objects: cfg.NumSubdomains(),
		steps:   cfg.Iterations,
		cost:    func(sub, it int) sim.Time { return mc.Weight(cfg, it, sub) },
		hint: func(sub, it int) float64 {
			if it == 0 {
				return mean
			}
			return mc.Weight(cfg, it-1, sub).Seconds()
		},
		objBytes:  64 << 10,
		msgBytes:  16,
		listBytes: 24, // subdomain, iteration, last measured cost
		edges:     mesh.Neighbors(cfg.Grid[0], cfg.Grid[1], cfg.Grid[2]),
	}
}

// meanWeight is the mean virtual compute seconds of one refinement.
func (mc *MeshCosts) meanWeight(cfg MeshExpConfig) float64 {
	return mc.TotalWork(cfg).Seconds() / float64(cfg.NumSubdomains()*cfg.Iterations)
}

// meshPrema is the PREMA configuration refinement runs under: implicit
// mode, the water-mark at the mean refinement cost, a poll after every unit.
// balance false is the no-balancing baseline.
func meshPrema(balance bool, mean float64) PremaConfig {
	pc := DefaultPremaConfig(ilb.Implicit, balance)
	pc.LB.WaterMark = mean
	pc.LB.PollEvery = 1
	return pc
}

// MeshSystems lists the experiment's three regimes.
var MeshSystems = []string{"none", "prema-implicit", "repartition"}

// RunMeshSystem runs one regime over a prebuilt cost matrix: the PREMA
// driver (runPrema) or the stop-and-repartition protocol (runRepartition)
// of the synthetic benchmark, on the mesh application.
func RunMeshSystem(system string, cfg MeshExpConfig, mc *MeshCosts) (*Result, error) {
	return runMeshSystem(system, cfg, mc, 1)
}

// runMeshSystem is RunMeshSystem on a simulator with the given shard count.
func runMeshSystem(system string, cfg MeshExpConfig, mc *MeshCosts, shards int) (*Result, error) {
	app := mc.application(cfg)
	mean := mc.meanWeight(cfg)
	w := Workload{Procs: cfg.Procs, Units: app.objects * app.steps, Seed: cfg.Seed, Shards: shards}
	m := w.simMachine()
	switch system {
	case "none", "prema-implicit":
		return runPrema(m, w, app, meshPrema(system != "none", mean))
	case "repartition":
		// The benchmark's parmetis, with every ParmetisConfig field
		// recalibrated.
		pc := DefaultParmetisConfig()
		pc.WaterMark = 2 * mean
		pc.WarrantPerProc = 0
		pc.RoundInterval = 25 * sim.Second
		pc.PartitionPerUnitCPU = sim.Millisecond
		return runRepartition(system, m, w, app, pc)
	default:
		return nil, fmt.Errorf("bench: unknown mesh system %q", system)
	}
}
