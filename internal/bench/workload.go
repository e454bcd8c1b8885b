// Package bench implements the paper's synthetic microbenchmark (§5) and
// one driver per evaluated system: no load balancing, PREMA with explicit or
// implicit (preemptive) work stealing, ParMETIS-style stop-and-repartition,
// and the Charm++-style chare runtime with or without AtSync load balancing
// iterations. Each driver runs on the simulated cluster and returns the
// per-processor time breakdowns that Figures 3-6 plot.
package bench

import "prema/internal/sim"

// HintMode controls how the computational weight *hints* handed to the load
// balancers relate to the true weights. The paper intentionally feeds
// hint-reliant balancers inaccurate information, because highly adaptive
// applications cannot predict the weights of pending work (§5).
type HintMode int

const (
	// HintMean tells the balancers every unit weighs the workload mean —
	// the paper's "intentionally inaccurate" regime (default).
	HintMean HintMode = iota
	// HintAccurate gives exact weights (an ablation: how much of the
	// baselines' shortfall is prediction error vs mechanism?).
	HintAccurate
)

func (h HintMode) String() string {
	if h == HintAccurate {
		return "accurate"
	}
	return "mean"
}

// Workload describes one synthetic benchmark configuration (the paper's
// command-line parameters, step 1 of §5).
type Workload struct {
	// Procs is the machine size (the paper's platform: 128).
	Procs int
	// Units is the total number of work units.
	Units int
	// HeavyFrac is the initial imbalance percentage: the fraction of units
	// (lowest global indices) that are computationally heavy.
	HeavyFrac float64
	// Heavy and Light are the true computational weights. The paper's
	// "double" figures use 10s/5s (≈500/250 Mflops at the platform's
	// sustained rate); the "20% heavier" figures use 6s/5s.
	Heavy, Light sim.Time
	// Hints selects hint accuracy (see HintMode).
	Hints HintMode
	// UnitBytes is each work unit's migration payload size.
	UnitBytes int
	// Seed drives all randomized decisions.
	Seed int64
	// Network overrides the interconnect model (zero value = Fast Ethernet
	// defaults).
	Network sim.NetworkConfig
	// Shards is the simulator's parallel event-loop shard count (<= 1 =
	// serial); processors are placed on shards in contiguous ID blocks (see
	// simConfig). Every report, hash, and trace is byte-identical for every
	// value (internal/bench/shard_equivalence_test.go guards this). It only
	// applies to the simulator backend.
	Shards int
	// Wire wraps the machine in the serialization loopback (wire.Wrap):
	// every message is encoded to its binary frame at Send and delivered as
	// a freshly decoded copy, auditing modeled sizes along the way. Like
	// Shards it never changes output — wire runs are byte-identical
	// (internal/bench/wire_equivalence_test.go) — it only costs host CPU.
	// It applies to the machine-based drivers (none and the prema-*
	// systems); the engine-level cost models (parmetis, charm*) have no
	// transport to wrap.
	Wire bool
}

// NumHeavy returns the number of heavy units.
func (w Workload) NumHeavy() int { return int(w.HeavyFrac * float64(w.Units)) }

// IsHeavy reports whether unit u is heavy. Heavy units occupy the lowest
// global indices, so the block distribution concentrates them on the
// low-numbered processors (the staircase of Figures 3a-6a).
func (w Workload) IsHeavy(u int) bool { return u < w.NumHeavy() }

// Actual returns unit u's true computational weight.
func (w Workload) Actual(u int) sim.Time {
	if w.IsHeavy(u) {
		return w.Heavy
	}
	return w.Light
}

// MeanWeight returns the mean true weight in seconds.
func (w Workload) MeanWeight() float64 {
	h := float64(w.NumHeavy())
	l := float64(w.Units) - h
	return (h*w.Heavy.Seconds() + l*w.Light.Seconds()) / float64(w.Units)
}

// Hint returns the weight estimate the load balancers see for unit u.
func (w Workload) Hint(u int) float64 {
	switch w.Hints {
	case HintAccurate:
		return w.Actual(u).Seconds()
	default:
		return w.MeanWeight()
	}
}

// Owner returns unit u's initial processor under the block distribution
// (step 2 of the benchmark algorithm).
func (w Workload) Owner(u int) int { return u * w.Procs / w.Units }

// UnitsOf returns the unit indices initially owned by processor p.
func (w Workload) UnitsOf(p int) []int {
	var out []int
	lo := (p*w.Units + w.Procs - 1) / w.Procs
	for u := lo; u < w.Units && w.Owner(u) == p; u++ {
		out = append(out, u)
	}
	return out
}

// TotalWork returns the sum of true weights.
func (w Workload) TotalWork() sim.Time {
	return sim.Time(w.NumHeavy())*w.Heavy + sim.Time(w.Units-w.NumHeavy())*w.Light
}

// IdealMakespan returns TotalWork/Procs: the perfect-balance lower bound.
func (w Workload) IdealMakespan() sim.Time {
	return w.TotalWork() / sim.Time(w.Procs)
}

// simConfig assembles the simulator configuration for this workload:
// network model, seed, shard count, and the one processor→shard placement —
// contiguous blocks, shard id*S/P for processor id. Everything that builds a
// sim engine or machine for a workload goes through here, so every driver
// and the benchmark's two-shard workload run the same placement.
func (w Workload) simConfig() sim.Config {
	procs := w.Procs
	return sim.Config{
		Network:   w.Network,
		Seed:      w.Seed,
		Shards:    w.Shards,
		Partition: func(id, shards int) int { return id * shards / procs },
	}
}

// engine builds the simulation engine for this workload.
func (w Workload) engine() *sim.Engine {
	return sim.NewEngine(w.simConfig())
}
