package bench

import (
	"fmt"
	"math/rand"

	"prema/internal/charm"
	"prema/internal/dmcs"
	"prema/internal/sim"
	"prema/internal/substrate"
)

// CharmConfig configures the Charm++-style benchmark driver.
type CharmConfig struct {
	// SyncPoints is the number of load balancing iterations I. 0 disables
	// AtSync entirely (figures (e)): the chare array holds one chare per
	// work unit and the runtime's initial placement is the only placement.
	// I>0 (figures (f), I=4 in the paper) creates an N/I-element array whose
	// chares each execute I work units with AtSync+LB between iterations.
	SyncPoints int
	// Strategy is the central LB strategy the AtSync rounds run (nil: they
	// never rebalance). DefaultCharmConfig sets RefineLB.
	Strategy charm.Strategy
	// Shuffle models the paper's adaptivity premise for measurement-based
	// balancers: the computationally heavy region is a contiguous chare
	// block whose position is re-drawn each iteration (a localized workload
	// "spike" moving through the domain), so the LB database's measured past
	// mispredicts the future. When false, weights are persistent by global
	// unit index and Charm's persistence assumption holds (ablation).
	Shuffle bool
}

// DefaultCharmConfig returns the configuration for the paper figures.
// RefineLB is the default strategy: it honors the persistence principle and
// minimizes chare migration (the natural choice for heavyweight mesh
// subdomains) — and under the moving-spike adaptive regime its measured-past
// placement cannot anticipate the future, reproducing the paper's finding
// that AtSync balancing buys little for highly adaptive applications.
func DefaultCharmConfig(syncPoints int) CharmConfig {
	return CharmConfig{SyncPoints: syncPoints, Strategy: charm.RefineLB{}, Shuffle: true}
}

// charmWeight returns the true weight of chare c at iteration it for the
// given config, preserving the workload's total work and heavy fraction.
// Chare c stands for units c*I..c*I+I-1; when I does not divide the unit
// count, the last chare's iterations past the final unit weigh nothing.
func charmWeight(w Workload, cfg CharmConfig, chares int, offsets []int, c, it int) sim.Time {
	unit := c*max(cfg.SyncPoints, 1) + it
	if unit >= w.Units {
		return 0
	}
	if cfg.SyncPoints == 0 || !cfg.Shuffle {
		return w.Actual(unit) // persistent weights
	}
	// Adaptive spike: a contiguous block of HeavyFrac*chares chares is heavy
	// each iteration, at a per-iteration offset.
	heavy := int(w.HeavyFrac * float64(chares))
	pos := ((c-offsets[it])%chares + chares) % chares
	if pos < heavy {
		return w.Heavy
	}
	return w.Light
}

// runCharm executes the synthetic benchmark on the Charm-style runtime.
func runCharm(m substrate.Machine, w Workload, cfg CharmConfig) (*Result, error) {
	name := "charm"
	iters := 1
	if cfg.SyncPoints > 0 {
		iters = cfg.SyncPoints
		name = fmt.Sprintf("charm-sync%d", cfg.SyncPoints)
	}
	chares := (w.Units + iters - 1) / iters // rounded up: every unit runs
	// Per-iteration spike offsets, fixed across processors (deterministic).
	offRng := rand.New(rand.NewSource(w.Seed + 77))
	offsets := make([]int, iters)
	for i := range offsets {
		if i == 0 {
			offsets[i] = 0 // iteration 0 matches the block-imbalanced start
		} else {
			offsets[i] = offRng.Intn(chares)
		}
	}

	runtimes := make([]*charm.Runtime, w.Procs)
	for p := 0; p < w.Procs; p++ {
		m.Spawn(fmt.Sprintf("p%03d", p), func(ep substrate.Endpoint) {
			var strat charm.Strategy
			if cfg.SyncPoints > 0 {
				strat = cfg.Strategy
			}
			rt := charm.NewRuntime(ep, strat)
			runtimes[ep.ID()] = rt

			type chareState struct{ iter int }
			done := 0
			var hDone dmcs.HandlerID
			hDone = rt.Comm().Register(func(c *dmcs.Comm, src int, data any, size int) {
				done++
				if done == chares {
					rt.StopAll()
				}
			})
			var eWork charm.EntryID
			eWork = rt.RegisterEntry(func(rt *charm.Runtime, ch *charm.Chare, src int, data any) {
				st := ch.Data.(*chareState)
				rt.Compute(charmWeight(w, cfg, chares, offsets, ch.Index, st.iter))
				st.iter++
				switch {
				case st.iter >= iters:
					rt.Comm().Send(0, hDone, nil, 8)
				case cfg.SyncPoints > 0:
					rt.AtSync(ch, eWork)
				default:
					rt.Invoke(ch.Index, eWork, nil, 0)
				}
			})
			rt.CreateArray(chares, func(i int) (any, int) { return &chareState{}, w.UnitBytes })
			for _, i := range rt.Local() {
				rt.Invoke(i, eWork, nil, 0)
			}
			rt.Run()
		})
	}
	if err := m.Run(); err != nil {
		return nil, fmt.Errorf("bench %s: %w", name, err)
	}
	res := collect(name, w, m)
	var lbSteps, moved int
	for _, rt := range runtimes {
		moved += rt.Stats.CharesMoved
	}
	lbSteps = runtimes[0].Stats.LBSteps
	res.Counters["lb_steps"] = lbSteps
	res.Counters["chares_migrated"] = moved
	return res, nil
}
