package main

// metricDef is one row of the benchmark's contract: BENCHMARK.json is
// generated from these tables (benchmark -manifest) and a test keeps the two
// equal.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// boundedDef is an end-to-end metric: Bound is the share of the parent's
// median a change may lose before it counts as a regression.
type boundedDef struct {
	metricDef
	Bound float64 `json:"bound"`
}

// End-to-end metrics: what someone running the program waits for or pays.
// One bound per metric has to hold on every workload and across seeds, so
// each is three times the widest spread measured on the authoring host (see
// README.md): wall_s drifts by a fifth over tens of minutes on a shared host,
// alloc_mb differs by a few percent between inputs, and makespan_over_ideal
// is exact on the simulator (compare flags any changed result hash) so that
// only dist2_fig3 needs its 10 %.
var endToEnd = []boundedDef{
	{metricDef{"wall_s", "s", "lower"}, 0.25},
	{metricDef{"alloc_mb", "MB", "lower"}, 0.10},
	{metricDef{"makespan_over_ideal", "ratio", "lower"}, 0.10},
	{metricDef{"setup_s", "s", "lower"}, 0.25},
}

// Per-layer metrics, by source: R = public result fields of the timed runs,
// P = the probed run (seam probe + CPU profile), M = micro-probes and paired
// differentials. A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	// sim
	{Name: "sim.events", Unit: "count", Better: "lower"},          // R
	{Name: "sim.events_per_unit", Unit: "count", Better: "lower"}, // R
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},       // R
	{Name: "sim.under_seam_s", Unit: "s", Better: "lower"},        // P
	{Name: "sim.cpu_share", Unit: "ratio", Better: "lower"},       // P
	{Name: "sim.heap_cpu_share", Unit: "ratio", Better: "lower"},  // P
	{Name: "goruntime.sched_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "goruntime.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.barrier_rounds", Unit: "count", Better: "lower"},  // R
	{Name: "sim.shard_imbalance", Unit: "ratio", Better: "lower"}, // R
	{Name: "sim.s2_speedup", Unit: "ratio", Better: "higher"},     // M
	{Name: "sim.advance_fast_ns", Unit: "ns", Better: "lower"},    // M
	{Name: "sim.advance_queued_ns", Unit: "ns", Better: "lower"},  // M
	// seam
	{Name: "seam.calls", Unit: "count", Better: "lower"}, // P, all of them
	{Name: "seam.advance_compute", Unit: "count", Better: "lower"},
	{Name: "seam.advance_pollthread", Unit: "count", Better: "lower"},
	{Name: "seam.sends", Unit: "count", Better: "lower"},
	{Name: "seam.recvs", Unit: "count", Better: "lower"},
	{Name: "seam.waits", Unit: "count", Better: "lower"},
	{Name: "stack.self_s", Unit: "s", Better: "lower"},
	{Name: "stack.self_share", Unit: "ratio", Better: "lower"},
	// ilb
	{Name: "ilb.poll_wakes", Unit: "count", Better: "lower"}, // P
	{Name: "ilb.units_run", Unit: "count", Better: "higher"}, // R
	{Name: "ilb.cpu_share", Unit: "ratio", Better: "lower"},  // P
	// policy
	{Name: "policy.steal_requests", Unit: "count", Better: "lower"}, // R
	{Name: "policy.steal_grants", Unit: "count", Better: "higher"},  // R
	{Name: "policy.grant_ratio", Unit: "ratio", Better: "higher"},   // R
	{Name: "policy.cpu_share", Unit: "ratio", Better: "lower"},      // P
	// mol
	{Name: "mol.migrations", Unit: "count", Better: "lower"}, // R
	{Name: "mol.cpu_share", Unit: "ratio", Better: "lower"},  // P
	// dmcs
	{Name: "dmcs.sends", Unit: "count", Better: "lower"},            // P
	{Name: "dmcs.rel_data_sent", Unit: "count", Better: "lower"},    // R
	{Name: "dmcs.rel_acks", Unit: "count", Better: "lower"},         // R
	{Name: "dmcs.rel_retransmits", Unit: "count", Better: "lower"},  // R
	{Name: "dmcs.retransmit_ratio", Unit: "ratio", Better: "lower"}, // R
	{Name: "dmcs.cpu_share", Unit: "ratio", Better: "lower"},        // P
	{Name: "dmcs.am_roundtrip_ns", Unit: "ns", Better: "lower"},     // M
	{Name: "dmcs.reliable_cost_x", Unit: "ratio", Better: "lower"},  // M
	// wire
	{Name: "wire.frames", Unit: "count", Better: "lower"},           // R
	{Name: "wire.size_drift", Unit: "count", Better: "lower"},       // R
	{Name: "wire.self_s", Unit: "s", Better: "lower"},               // P
	{Name: "wire.cpu_share", Unit: "ratio", Better: "lower"},        // P
	{Name: "wire.ns_per_frame", Unit: "ns", Better: "lower"},        // M
	{Name: "wire.allocs_per_frame", Unit: "count", Better: "lower"}, // M
	// faulty
	{Name: "faulty.dropped", Unit: "count", Better: "lower"},   // R
	{Name: "faulty.dupped", Unit: "count", Better: "lower"},    // R
	{Name: "faulty.self_s", Unit: "s", Better: "lower"},        // P
	{Name: "faulty.cpu_share", Unit: "ratio", Better: "lower"}, // P
	// trace
	{Name: "trace.events", Unit: "count", Better: "lower"},          // R
	{Name: "trace.dropped", Unit: "count", Better: "lower"},         // R
	{Name: "trace.record_overhead_pct", Unit: "%", Better: "lower"}, // M
	{Name: "trace.export_s", Unit: "s", Better: "lower"},            // R
	{Name: "trace.export_mb", Unit: "MB", Better: "lower"},          // R
	{Name: "trace.ns_per_event", Unit: "ns", Better: "lower"},       // M
	// partition / parmetis
	{Name: "parmetis.lb_rounds", Unit: "count", Better: "lower"},      // R
	{Name: "parmetis.units_migrated", Unit: "count", Better: "lower"}, // R
	{Name: "partition.cpu_share", Unit: "ratio", Better: "lower"},     // P
	{Name: "parmetis.cpu_share", Unit: "ratio", Better: "lower"},      // P
	{Name: "partition.kway_ms", Unit: "ms", Better: "lower"},          // M
	// dist / rtm
	{Name: "dist.am_roundtrip_us", Unit: "us", Better: "lower"},       // M
	{Name: "dist.session_overhead_s", Unit: "s", Better: "lower"},     // M
	{Name: "dist.wire_frames", Unit: "count", Better: "lower"},        // R
	{Name: "rtm.makespan_over_ideal", Unit: "ratio", Better: "lower"}, // M
	{Name: "dist.inflation_vs_rtm", Unit: "ratio", Better: "lower"},   // M
	// host
	{Name: "host.wall_raw_s", Unit: "s", Better: "lower"},     // R
	{Name: "host.slowdown_x", Unit: "ratio", Better: "lower"}, // the reference kernel, see calibrate.go
	{Name: "host.cpu_s", Unit: "s", Better: "lower"},          // R
	{Name: "host.peak_heap_mb", Unit: "MB", Better: "lower"},  // P
	{Name: "probe.overhead_pct", Unit: "%", Better: "lower"},  // P
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []manifestWL `json:"workloads"`
	EndToEnd   []boundedDef `json:"end_to_end"`
	PerLayer   []metricDef  `json:"per_layer"`
}

type manifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const runSeconds = 12

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, wl := range workloads {
		m.Workloads = append(m.Workloads, manifestWL{wl.name, wl.why})
	}
	return m
}
