package bench

import (
	"fmt"

	"prema/internal/sweep"
)

// This file fans the evaluation campaigns out across cores. Every sweep
// point is an independent simulation (own engine, own seeded RNGs), so the
// only coordination needed is the worker pool; internal/sweep's ordering
// guarantee makes the parallel output byte-identical to the serial one.

// RunFigures runs the full (figure × system) grid for the given specs at
// the template's scale (tmpl.W.Procs × tmpl.UnitsPerProc) with at most
// tmpl.Jobs simulations in flight, returning FigureRuns in spec order with
// Results ordered as SystemNames — exactly what a Jobs: 1 run produces. The
// template's engine knob (W.Shards) applies to every run; its
// loopback and tracing apply to the PREMA systems (the baselines, which have
// no codecs, run as usual). None of these knobs changes a single
// output byte.
func RunFigures(specs []FigureSpec, tmpl RunSpec) ([]*FigureRun, error) {
	nsys := len(SystemNames)
	results, err := sweep.Map(tmpl.jobs(), len(specs)*nsys, func(i int) (*Result, error) {
		s := tmpl.ForFigure(specs[i/nsys])
		s.System = SystemNames[i%nsys]
		if !HasTransport(s.System) {
			s.W.Wire, s.Trace, s.TracePath, s.MetricsPath = false, false, "", ""
		}
		r, err := s.Run()
		if err != nil {
			return nil, fmt.Errorf("figure %d: %w", specs[i/nsys].ID, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	runs := make([]*FigureRun, len(specs))
	for fi, spec := range specs {
		runs[fi] = &FigureRun{
			Spec:    spec,
			W:       PaperWorkload(spec, tmpl.W.Procs, tmpl.UnitsPerProc),
			Results: results[fi*nsys : (fi+1)*nsys],
		}
	}
	return runs, nil
}

// RunMeshSystems runs the mesh experiment's regimes over one prebuilt cost
// matrix with at most jobs simulations in flight, returning results in
// input order. The cost matrix is shared read-only across the regimes.
func RunMeshSystems(systems []string, cfg MeshExpConfig, mc *MeshCosts, jobs int) ([]*Result, error) {
	return sweep.Map(jobs, len(systems), func(i int) (*Result, error) {
		return RunMeshSystem(systems[i], cfg, mc)
	})
}
