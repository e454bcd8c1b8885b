// Package bench implements the paper's synthetic microbenchmark (§5) and
// one driver per evaluated system: no load balancing, PREMA with explicit or
// implicit (preemptive) work stealing, ParMETIS-style stop-and-repartition,
// and the Charm++-style chare runtime with or without AtSync load balancing
// iterations. Each driver runs on the simulated cluster and returns the
// per-processor time breakdowns that Figures 3-6 plot.
package bench

import (
	"fmt"
	"sort"

	"prema/internal/sim"
)

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
	// serial). It is a pure performance knob: every report, hash, and trace
	// is byte-identical for every value (internal/bench/shard_equivalence_test.go
	// guards this). It only applies to the simulator backend.
	Shards int
	// Partition selects the processor→shard placement strategy when Shards
	// > 1: PartitionRoundRobin (default; also the empty string),
	// PartitionBlocked (contiguous ID ranges, which aligns shards with
	// network zones and with the block unit distribution's heavy prefix),
	// or PartitionLoaded (greedy LPT over each processor's expected event
	// weight, so shards start with near-equal work). Like Shards it never
	// changes output, only the shard-level balance and barrier cost.
	Partition string
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

// testPartition, when non-nil, overrides every workload's partition strategy
// with an explicit processor→shard map. Only the partition-invariance tests
// set it (and restore nil); it lives outside Workload because Workload must
// stay comparable, so it cannot carry a func field itself.
var testPartition func(id, shards int) int

// Partition strategy names accepted by Workload.Partition and the CLIs'
// -partition flag.
const (
	PartitionRoundRobin = "roundrobin"
	PartitionBlocked    = "blocked"
	PartitionLoaded     = "loaded"
)

// PartitionStrategies lists the valid partition strategy names.
var PartitionStrategies = []string{PartitionRoundRobin, PartitionBlocked, PartitionLoaded}

// ValidPartition reports whether s names a partition strategy ("" counts:
// it means the round-robin default).
func ValidPartition(s string) bool {
	if s == "" {
		return true
	}
	for _, v := range PartitionStrategies {
		if s == v {
			return true
		}
	}
	return false
}

// partition resolves the configured strategy to a sim.Config.Partition
// function (nil = the engine's round-robin default).
func (w Workload) partition() func(id, shards int) int {
	if testPartition != nil {
		return testPartition
	}
	switch w.Partition {
	case "", PartitionRoundRobin:
		return nil
	case PartitionBlocked:
		procs := w.Procs
		return func(id, shards int) int {
			if id >= procs { // defensive: extra spawns fall back to round-robin
				return id % shards
			}
			return id * shards / procs
		}
	case PartitionLoaded:
		return w.loadedPartition()
	default:
		panic(fmt.Sprintf("bench: unknown partition strategy %q (want %v)", w.Partition, PartitionStrategies))
	}
}

// loadedPartition builds the load-aware strategy: each processor's expected
// event weight is the summed true weight of its initial units (the same
// quantity the block distribution skews), and processors are placed on
// shards by greedy LPT — heaviest first, each onto the currently lightest
// shard. Ties break deterministically (lowest processor, lowest shard), so
// the map is a pure function of the workload, as sim.Config.Partition
// requires.
func (w Workload) loadedPartition() func(id, shards int) int {
	weights := make([]sim.Time, w.Procs)
	for p := 0; p < w.Procs; p++ {
		for _, u := range w.UnitsOf(p) {
			weights[p] += w.Actual(u)
		}
	}
	var (
		builtFor int
		assign   []int
	)
	return func(id, shards int) int {
		if assign == nil || builtFor != shards {
			assign = lptAssign(weights, shards)
			builtFor = shards
		}
		if id >= len(assign) { // defensive: extra spawns fall back to round-robin
			return id % shards
		}
		return assign[id]
	}
}

// lptAssign is greedy longest-processing-time placement of weighted items
// onto shards: items in descending weight order (stable on index), each to
// the least-loaded shard (lowest index on ties).
func lptAssign(weights []sim.Time, shards int) []int {
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return weights[order[a]] > weights[order[b]]
	})
	load := make([]sim.Time, shards)
	assign := make([]int, len(weights))
	for _, p := range order {
		best := 0
		for s := 1; s < shards; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		assign[p] = best
		load[best] += weights[p]
	}
	return assign
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

// simConfig assembles the simulator configuration for this workload —
// network model, seed, shard count, partition map. Everything that builds
// a sim engine or machine for a workload goes through here so the partition
// plumbing cannot diverge between drivers.
func (w Workload) simConfig() sim.Config {
	return sim.Config{
		Network:   w.Network,
		Seed:      w.Seed,
		Shards:    w.Shards,
		Partition: w.partition(),
	}
}

// engine builds the simulation engine for this workload.
func (w Workload) engine() *sim.Engine {
	return sim.NewEngine(w.simConfig())
}
