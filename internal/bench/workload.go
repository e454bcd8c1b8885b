// Package bench implements the paper's synthetic microbenchmark (§5), its
// mesh-generation experiment, and one driver per evaluated system: no load
// balancing, PREMA with explicit or implicit (preemptive) work stealing,
// ParMETIS-style stop-and-repartition, and the Charm++-style chare runtime
// with or without AtSync load balancing iterations. The PREMA driver and the
// stop-and-repartition protocol take the application as data, so the two
// applications run the same balancer code. Each driver runs on the simulated
// cluster and returns the per-processor time breakdowns that Figures 3-6
// plot.
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
	// value (TestEquivalence guards this). It only applies to the simulator
	// backend.
	Shards int
	// Wire wraps the machine in the serialization loopback (wire.Wrap):
	// every message is encoded to its binary frame at Send and delivered as
	// a freshly decoded copy, auditing modeled sizes along the way. Like
	// Shards it never changes output — wire runs are byte-identical
	// (TestEquivalence) — it only costs host CPU.
	// It applies to the PREMA drivers (none and the prema-* systems); the
	// baselines (parmetis, charm*) send over the same seam but ship
	// payloads that have no codec.
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

// blockOf returns the objects, of n, that the block distribution starts on
// processor p of procs: those o with o*procs/n == p.
func blockOf(p, procs, n int) []int {
	var out []int
	lo := (p*n + procs - 1) / procs
	for o := lo; o < n && o*procs/n == p; o++ {
		out = append(out, o)
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

// application is what a system driver runs. The synthetic benchmark and the
// mesh experiment are its two values (Workload.application and
// MeshCosts.application), so a balancer under test is the same code on both.
// Objects start in contiguous blocks (blockOf) and each is a chain of steps, step s+1 enabled by the
// completion of step s.
type application struct {
	objects, steps int
	// cost is a step's true computation; hint is what the balancers are
	// told about it beforehand, in seconds.
	cost func(obj, step int) sim.Time
	hint func(obj, step int) float64
	// objBytes is an object's migration payload, msgBytes the size of the
	// message that starts a step.
	objBytes, msgBytes int
	// listBytes is what an unfinished object takes in a work list shipped
	// between processors, batchBytes the header of a batch of migrating
	// objects.
	listBytes, batchBytes int
	// edges lists adjacent object pairs (nil: independent objects).
	edges [][2]int
}

// application describes the synthetic benchmark: every unit is an
// independent object of one step.
func (w Workload) application() application {
	return application{
		objects:    w.Units,
		steps:      1,
		cost:       func(u, _ int) sim.Time { return w.Actual(u) },
		hint:       func(u, _ int) float64 { return w.Hint(u) },
		objBytes:   w.UnitBytes,
		msgBytes:   8,
		listBytes:  4,
		batchBytes: 32,
	}
}

// simConfig assembles the simulator configuration for this workload:
// network model, seed, shard count, and the one processor→shard placement —
// contiguous blocks, shard id*S/P for processor id.
func (w Workload) simConfig() sim.Config {
	procs := w.Procs
	return sim.Config{
		Network:   w.Network,
		Seed:      w.Seed,
		Shards:    w.Shards,
		Partition: func(id, shards int) int { return id * shards / procs },
	}
}

// simMachine builds the simulator for this workload. Every driver and
// buildStack get theirs here, so they all run the same placement.
func (w Workload) simMachine() sim.Machine {
	return sim.NewMachine(w.simConfig())
}
