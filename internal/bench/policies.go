package bench

import (
	"fmt"

	"prema/internal/core"
	"prema/internal/dmcs"
	"prema/internal/ilb"
	"prema/internal/mol"
	"prema/internal/policy"
	"prema/internal/substrate"
)

// RunPremaPolicy executes the synthetic benchmark on the PREMA runtime over
// the deterministic simulator in implicit mode under the named load balancing
// policy — the paper's policy suite (§4: Work Stealing, Diffusion, Multi-list
// Scheduling).
func RunPremaPolicy(w Workload, policyName string) (*Result, error) {
	return RunPremaPolicyOn(w.machine(), w, policyName)
}

// RunPremaPolicyOn is RunPremaPolicy on an arbitrary execution substrate.
func RunPremaPolicyOn(m substrate.Machine, w Workload, policyName string) (*Result, error) {
	mkPolicy := func() (ilb.Policy, error) {
		switch policyName {
		case "worksteal":
			cfg := policy.DefaultWSConfig()
			cfg.MaxObjects = 1
			return policy.NewWorkStealing(cfg), nil
		case "diffusion":
			cfg := policy.DefaultDiffConfig()
			cfg.MinTransfer = w.MeanWeight()
			cfg.MaxObjects = 2
			return policy.NewDiffusion(cfg), nil
		case "multilist":
			cfg := policy.DefaultMLConfig()
			cfg.HighMark = 4 * w.MeanWeight()
			cfg.LowMark = 2 * w.MeanWeight()
			return policy.NewMultiList(cfg), nil
		default:
			return nil, fmt.Errorf("bench: unknown policy %q", policyName)
		}
	}
	if _, err := mkPolicy(); err != nil {
		return nil, err
	}
	pollWakes := make([]int, w.Procs)
	for p := 0; p < w.Procs; p++ {
		m.Spawn(fmt.Sprintf("p%03d", p), func(ep substrate.Endpoint) {
			opts := core.DefaultOptions(ilb.Implicit)
			opts.LB.WaterMark = 12
			pol, _ := mkPolicy()
			opts.Policy = pol
			r := core.NewRuntime(ep, opts)
			done := 0
			var hDone dmcs.HandlerID
			hDone = r.Comm().Register(func(c *dmcs.Comm, src int, data any, size int) {
				done++
				if done == w.Units {
					r.StopAll()
				}
			})
			hWork := r.RegisterHandler(func(l *mol.Layer, obj *mol.Object, src int, data any, size int) {
				r.Compute(w.Actual(obj.Data.(int)))
				r.Comm().SendTagged(0, hDone, nil, 8, substrate.TagApp)
			})
			for _, u := range w.UnitsOf(ep.ID()) {
				mp := r.Register(u, w.UnitBytes)
				r.Message(mp, hWork, nil, 8, w.Hint(u))
			}
			r.Run()
			pollWakes[ep.ID()] = r.Scheduler().Stats.PollWakes
		})
	}
	if err := m.Run(); err != nil {
		return nil, fmt.Errorf("bench policy %s: %w", policyName, err)
	}
	res := collect("prema-"+policyName, w, m)
	res.PollWakes = pollWakes
	return res, nil
}
