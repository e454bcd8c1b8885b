// Command perfbench measures the simulator's host performance and the sweep
// runner's parallel speedup, and writes the numbers to a JSON file (the
// repository's BENCH trajectory: BENCH_PR10.json at the repo root).
//
// Usage:
//
//	perfbench [-out BENCH_PR10.json] [-procs 128] [-units-per-proc 128] \
//	          [-jobs J] [-events 500000] [-partition loaded] \
//	          [-skip-sweep] [-skip-trace] [-skip-shards] [-skip-windows] \
//	          [-skip-scale] [-skip-large] [-skip-wire] [-skip-dist] \
//	          [-scale-procs 4096] [-scale-objects 256] \
//	          [-large-procs 1024] [-large-upp 16] \
//	          [-dist-rounds 5000] [-premad PATH]
//
// It reports eight layers, matching the levels of the performance work:
//
//   - engine: microbenchmarks of the discrete-event core — ns/event,
//     allocs/event and events/sec for the Advance hot path, plus the
//     simulated active-message round trip;
//   - trace: the internal/trace recording hot path (ns/event, allocs/event
//     — must be 0), and the tracing overhead on the paper's four figure
//     scenarios: virtual makespan with tracing on vs off (tracing is
//     observational, so the delta must be 0%) and host wall-clock delta —
//     the repository's version of the paper's "<1% runtime overhead" claim;
//   - sweep: wall-clock time of the paper's 4-figure × 6-system evaluation
//     campaign (24 independent simulations) run serially and with -jobs
//     workers, with a byte-identity cross-check between the two;
//   - shards: the sharded engine axis — one irregular message-passing
//     workload timed at S ∈ {1, 2, 4, 8} event-loop shards (ns/event,
//     speedup vs serial, per-shard event imbalance, barrier rounds,
//     identical-makespan cross-check), plus a large-scale figure scenario
//     (-large-procs, default 1024 processors — the full PREMA stack's
//     status messaging grows superlinearly with the processor count, so
//     the 4096-processor point lives in the engine-level scale section)
//     run sharded with the -partition strategy and cross-checked
//     byte-for-byte against the serial engine;
//   - windows: the coordination-round ledger — one figure scenario run
//     sharded with Config.FixedWindows on (PR 6's one-lookahead-per-round
//     protocol) and off (per-destination lookahead + adaptive batching),
//     reporting the barrier-round reduction and checking byte-identity;
//   - scale: the scale push — an engine-level workload of -scale-procs
//     processors × -scale-objects objects each (default 4096 × 256 ≈ 1M
//     objects) at S ∈ {1, 2, 4, 8}, recording ns/event, speedup, and the
//     max completed scenario size;
//   - wire: the serialization loopback (internal/wire) — the codec's
//     encode+decode cost per frame averaged over every registered payload
//     kind, the active-message round trip on a wire-wrapped machine vs the
//     raw engine, and a figure scenario run with the loopback on and off
//     (the outputs must match byte-for-byte, and the Msg.Size audit must
//     report zero drift);
//   - dist: the distributed backend (internal/dist) — a two-node TCP
//     round-trip probe: rank 0 bounces -dist-rounds messages off rank 1,
//     each crossing the full encode/frame/socket/decode path twice, and
//     the wall-clock mean is the transport's message latency. The nodes
//     are spawned premad processes (resolved next to this executable,
//     then PATH, or via -premad); when no premad binary exists, the probe
//     falls back to two in-process nodes over the same localhost sockets
//     and says so in the mode field.
//
// The host section also records how the auto jobs clamp resolves jobs ×
// shards against GOMAXPROCS for each shard count used here, so the ledger
// shows the parallelism budget the numbers were taken under. Shard speedup
// needs spare CPUs: on a single-CPU host expect S > 1 to lose to the serial
// engine on wall clock while still matching its output exactly.
//
// The default scale (-procs 128 -units-per-proc 128) is the paper's; use a
// smaller scale for a quick look. Expect the full-scale run to take several
// minutes per sweep pass plus several minutes per large-scenario leg. Stray
// positional arguments and invalid flag values exit with status 2, matching
// the other commands.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"time"

	"prema/internal/bench"
	"prema/internal/dist"
	"prema/internal/dmcs"
	"prema/internal/sim"
	"prema/internal/substrate"
	"prema/internal/sweep"
	"prema/internal/trace"
	"prema/internal/wire"
)

// Report is the schema of the emitted JSON.
type Report struct {
	Bench   string      `json:"bench"`
	Host    HostInfo    `json:"host"`
	Eng     EngineInfo  `json:"engine"`
	Trace   *TraceInfo  `json:"trace,omitempty"`
	Sweep   *SweepInfo  `json:"sweep,omitempty"`
	Shards  *ShardInfo  `json:"shards,omitempty"`
	Windows *WindowInfo `json:"windows,omitempty"`
	Scale   *ScaleInfo  `json:"scale,omitempty"`
	Wire    *WireInfo   `json:"wire,omitempty"`
	Dist    *DistInfo   `json:"dist,omitempty"`
}

// DistInfo holds the distributed-backend axis: the two-node TCP round-trip
// probe (bench system "pingpong"). Every round trip is two active messages
// through the full encode/frame/localhost-socket/decode path, so
// am_latency_ns (half the round trip) is the one-way message latency of the
// real transport — the number to compare against the wire loopback's
// am_roundtrip_ns, which pays the codec but no socket.
type DistInfo struct {
	Nodes       int     `json:"nodes"`
	Mode        string  `json:"mode"` // "spawn" (premad processes) or "in-process" (fallback)
	Rounds      int     `json:"rounds"`
	RoundTripNs float64 `json:"roundtrip_ns"`
	AMLatencyNs float64 `json:"am_latency_ns"`
	WireFrames  uint64  `json:"wire_frames"`
	VsSimAMX    float64 `json:"vs_sim_am_x,omitempty"` // roundtrip_ns / the raw engine's am_roundtrip_ns
}

// WireInfo holds the serialization-loopback axis: the binary codec's
// encode+decode microbenchmark averaged over every registered payload kind,
// the active-message round trip on a wire-wrapped machine (vs the raw
// engine's am_roundtrip_ns), and one figure scenario run with the loopback
// on and off — the two outputs must be byte-identical and the Msg.Size
// audit must count zero drifted frames.
type WireInfo struct {
	Kinds            int     `json:"kinds"`
	NsPerFrame       float64 `json:"ns_per_frame"`
	AllocsPerFrame   float64 `json:"allocs_per_frame"`
	AvgFrameBytes    float64 `json:"avg_frame_bytes"`
	AMRoundTripNs    float64 `json:"am_roundtrip_ns"`
	AMOverheadPct    float64 `json:"am_overhead_pct"`
	Figure           int     `json:"figure"`
	System           string  `json:"system"`
	Frames           uint64  `json:"frames"`
	SizeDrift        uint64  `json:"size_drift"`
	IdenticalToPlain bool    `json:"identical_to_plain"`
}

// ClampInfo records how the auto jobs clamp resolves the jobs × shards
// product for one shard count: sweep.JobsFor keeps auto_jobs × shards near
// GOMAXPROCS instead of oversubscribing it.
type ClampInfo struct {
	Shards      int `json:"shards"`
	AutoJobs    int `json:"auto_jobs"`
	JobsXShards int `json:"jobs_x_shards"`
}

// HostInfo records the measurement platform and its parallelism budget.
type HostInfo struct {
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	NumCPU     int         `json:"num_cpu"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	JobsClamp  []ClampInfo `json:"jobs_clamp"`
}

// EngineInfo holds the hot-path microbenchmark results. Alloc counts are
// steady-state (measured after a warm-up that fills the event free list),
// so they can be fractional and should be ~0 after the PR2 optimizations.
//
// ns_per_event is the uncontended Advance loop, which since PR 7 rides the
// in-window fast path (no heap, no goroutine handoff). ns_per_event_queued
// forces the full heap + park/transfer path by interleaving two processors
// whose wakes always tie, so it tracks the cost the fast path skips — and
// guards that the queued path itself has not regressed.
type EngineInfo struct {
	NsPerEvent          float64 `json:"ns_per_event"`
	AllocsPerEvent      float64 `json:"allocs_per_event"`
	BytesPerEvent       float64 `json:"bytes_per_event"`
	EventsPerSec        float64 `json:"events_per_sec"`
	NsPerEventQueued    float64 `json:"ns_per_event_queued"`
	AllocsPerEventQueue float64 `json:"allocs_per_event_queued"`
	AMRoundTripNs       float64 `json:"am_roundtrip_ns"`
	AMRoundTripAllocs   float64 `json:"am_roundtrip_allocs"`
}

// TraceScenario is one figure scenario's tracing-on vs tracing-off
// comparison. Virtual overhead must be 0% (tracing charges no substrate
// time); wall overhead is the host-side cost of recording.
type TraceScenario struct {
	Figure          int     `json:"figure"`
	MakespanOffS    float64 `json:"makespan_off_s"`
	MakespanOnS     float64 `json:"makespan_on_s"`
	OverheadPct     float64 `json:"overhead_pct"`
	WallOffS        float64 `json:"wall_off_s"`
	WallOnS         float64 `json:"wall_on_s"`
	WallOverheadPct float64 `json:"wall_overhead_pct"`
	Events          uint64  `json:"events"`
}

// TraceInfo holds the tracing hot-path microbenchmark and the per-scenario
// overhead sweep (system: prema-implicit, sim backend).
type TraceInfo struct {
	NsPerEvent     float64         `json:"ns_per_event"`
	AllocsPerEvent float64         `json:"allocs_per_event"`
	System         string          `json:"system"`
	Procs          int             `json:"procs"`
	UnitsPerProc   int             `json:"units_per_proc"`
	Scenarios      []TraceScenario `json:"scenarios"`
	MaxOverheadPct float64         `json:"max_overhead_pct"`
}

// ShardPoint is one shard count's timing of a scaling workload, with the
// shard-level telemetry the partition quality shows up in: per-shard event
// counts, their max/mean imbalance ratio, and the number of window
// coordination rounds (barriers) the run took.
type ShardPoint struct {
	Shards         int      `json:"shards"`
	Partition      string   `json:"partition,omitempty"`
	WallS          float64  `json:"wall_s"`
	Events         uint64   `json:"events"`
	ShardEvents    []uint64 `json:"shard_events,omitempty"`
	ImbalanceRatio float64  `json:"imbalance_ratio,omitempty"`
	BarrierRounds  uint64   `json:"barrier_rounds,omitempty"`
	NsPerEvent     float64  `json:"ns_per_event"`
	EventsPerSec   float64  `json:"events_per_sec"`
	Speedup        float64  `json:"speedup_vs_serial"`
	MakespanS      float64  `json:"makespan_s"`
}

// LargeInfo is the large-scale scenario: a paper figure workload at >= 4096
// processors on the sharded engine, cross-checked against the serial one.
type LargeInfo struct {
	Procs             int      `json:"procs"`
	UnitsPerProc      int      `json:"units_per_proc"`
	System            string   `json:"system"`
	Shards            int      `json:"shards"`
	Partition         string   `json:"partition"`
	WallS             float64  `json:"wall_s"`
	SerialWallS       float64  `json:"serial_wall_s"`
	MakespanS         float64  `json:"makespan_s"`
	Events            uint64   `json:"events"`
	ShardEvents       []uint64 `json:"shard_events,omitempty"`
	ImbalanceRatio    float64  `json:"imbalance_ratio,omitempty"`
	BarrierRounds     uint64   `json:"barrier_rounds,omitempty"`
	IdenticalToSerial bool     `json:"identical_to_serial"`
}

// ShardInfo holds the sharded-engine axis: the mesh workload timed per shard
// count and the large-scale scenario.
type ShardInfo struct {
	MeshProcs   int          `json:"mesh_procs"`
	MeshRounds  int          `json:"mesh_rounds"`
	Points      []ShardPoint `json:"points"`
	SpeedupAtS4 float64      `json:"speedup_at_s4"`
	SpeedupAtS8 float64      `json:"speedup_at_s8"`
	Identical   bool         `json:"identical_across_shards"`
	Large       *LargeInfo   `json:"large,omitempty"`
}

// WindowInfo compares PR 6's fixed one-lookahead windows against the
// adaptive per-destination protocol on one figure scenario: same output
// (checked), fewer coordination rounds (the point). The scenario runs on
// the cluster-of-SMPs network variant (the paper's platform shape): zones
// of ZoneSize processors with a cheap intra-zone latency, and the blocked
// partition aligning shards with zones — so every cross-shard link costs
// the slow inter-zone latency and the lookahead matrix can open windows
// that wide, while the fixed protocol stays clamped to the global minimum.
type WindowInfo struct {
	Figure         int     `json:"figure"`
	System         string  `json:"system"`
	Procs          int     `json:"procs"`
	UnitsPerProc   int     `json:"units_per_proc"`
	Shards         int     `json:"shards"`
	Partition      string  `json:"partition"`
	ZoneSize       int     `json:"zone_size"`
	ZoneLatencyUs  float64 `json:"zone_latency_us"`
	InterLatencyUs float64 `json:"inter_latency_us"`
	FixedRounds    uint64  `json:"fixed_rounds"`
	AdaptiveRounds uint64  `json:"adaptive_rounds"`
	RoundsRatio    float64 `json:"rounds_ratio"`
	FixedWallS     float64 `json:"fixed_wall_s"`
	AdaptiveWallS  float64 `json:"adaptive_wall_s"`
	Identical      bool    `json:"identical"`
}

// ScaleInfo is the scale push: an engine-level workload of Procs processors
// each stepping ObjectsPerProc objects (~1M objects total at the defaults),
// timed across shard counts.
type ScaleInfo struct {
	Procs          int          `json:"procs"`
	ObjectsPerProc int          `json:"objects_per_proc"`
	Objects        int          `json:"objects"`
	Points         []ShardPoint `json:"points"`
	SpeedupAtS2    float64      `json:"speedup_at_s2"`
	SpeedupAtS4    float64      `json:"speedup_at_s4"`
	SpeedupAtS8    float64      `json:"speedup_at_s8"`
	Identical      bool         `json:"identical_across_shards"`
	MaxObjects     int          `json:"max_scenario_objects"`
}

// SweepInfo holds the serial vs parallel campaign timing.
type SweepInfo struct {
	Figures          []int    `json:"figures"`
	Systems          []string `json:"systems"`
	Simulations      int      `json:"simulations"`
	Procs            int      `json:"procs"`
	UnitsPerProc     int      `json:"units_per_proc"`
	Jobs             int      `json:"jobs"`
	SerialWallS      float64  `json:"serial_wall_s"`
	ParallelWallS    float64  `json:"parallel_wall_s"`
	Speedup          float64  `json:"speedup"`
	OutputsIdentical bool     `json:"outputs_identical"`
}

// shardCounts is the shard axis every scaling section sweeps.
var shardCounts = []int{1, 2, 4, 8}

func main() {
	out := flag.String("out", "BENCH_PR10.json", "output JSON path")
	procs := flag.Int("procs", 128, "simulated processors for the sweep, trace, and windows timing")
	upp := flag.Int("units-per-proc", 128, "work units per processor for the sweep, trace, and windows timing")
	jobs := flag.Int("jobs", sweep.DefaultJobs(), "parallel sweep worker count")
	events := flag.Int("events", 500_000, "microbenchmark event count")
	partition := flag.String("partition", bench.PartitionLoaded, "partition strategy for the large scenario: roundrobin, blocked, or loaded")
	skipSweep := flag.Bool("skip-sweep", false, "skip the serial-vs-parallel sweep timing")
	skipTrace := flag.Bool("skip-trace", false, "skip the tracing-overhead scenario sweep")
	skipShards := flag.Bool("skip-shards", false, "skip the sharded-engine axis")
	skipWindows := flag.Bool("skip-windows", false, "skip the fixed-vs-adaptive window comparison")
	skipScale := flag.Bool("skip-scale", false, "skip the scale-push axis")
	skipLarge := flag.Bool("skip-large", false, "skip the large-scale scenario of the shards axis")
	skipWire := flag.Bool("skip-wire", false, "skip the serialization-loopback axis")
	skipDist := flag.Bool("skip-dist", false, "skip the distributed-backend round-trip probe")
	distRounds := flag.Int("dist-rounds", 5000, "distributed probe: TCP round trips to time")
	premadPath := flag.String("premad", "", "distributed probe: premad binary to spawn (default: next to this executable, then PATH; falls back to in-process nodes)")
	scaleProcs := flag.Int("scale-procs", 4096, "scale push: simulated processors")
	scaleObjects := flag.Int("scale-objects", 256, "scale push: objects per processor")
	largeProcs := flag.Int("large-procs", 1024, "large-scale scenario: simulated processors")
	largeUPP := flag.Int("large-upp", 16, "large-scale scenario: work units per processor")
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}
	if *out == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -out must not be empty")
		os.Exit(2)
	}
	if *procs < 1 || *upp < 1 || *jobs < 1 || *events < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -procs, -units-per-proc, -jobs and -events must be positive")
		os.Exit(2)
	}
	if *largeProcs < 1 || *largeUPP < 1 || *scaleProcs < 1 || *scaleObjects < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -large-procs, -large-upp, -scale-procs and -scale-objects must be positive")
		os.Exit(2)
	}
	if !bench.ValidPartition(*partition) {
		fmt.Fprintf(os.Stderr, "perfbench: -partition must be one of %v (got %q)\n", bench.PartitionStrategies, *partition)
		os.Exit(2)
	}
	if *distRounds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -dist-rounds must be positive")
		os.Exit(2)
	}

	rep := Report{
		Bench: "PR10",
		Host: HostInfo{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
	}
	for _, s := range shardCounts {
		j := sweep.JobsFor(s)
		rep.Host.JobsClamp = append(rep.Host.JobsClamp, ClampInfo{
			Shards: s, AutoJobs: j, JobsXShards: j * s,
		})
	}

	fmt.Printf("perfbench: engine microbenchmarks (%d events)...\n", *events)
	rep.Eng = measureEngine(*events)
	fmt.Printf("  advance:  %8.1f ns/event  %.4f allocs/event  %.1f B/event  %.2fM events/s\n",
		rep.Eng.NsPerEvent, rep.Eng.AllocsPerEvent, rep.Eng.BytesPerEvent, rep.Eng.EventsPerSec/1e6)
	fmt.Printf("  queued:   %8.1f ns/event  %.4f allocs/event\n",
		rep.Eng.NsPerEventQueued, rep.Eng.AllocsPerEventQueue)
	fmt.Printf("  AM trip:  %8.1f ns/msg    %.4f allocs/msg\n", rep.Eng.AMRoundTripNs, rep.Eng.AMRoundTripAllocs)

	if !*skipTrace {
		fmt.Printf("perfbench: trace hot path (%d events) + overhead scenarios...\n", *events)
		ti, err := measureTrace(*events, *procs, *upp, *jobs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		rep.Trace = ti
		fmt.Printf("  record:   %8.1f ns/event  %.4f allocs/event\n", ti.NsPerEvent, ti.AllocsPerEvent)
		for _, s := range ti.Scenarios {
			fmt.Printf("  fig %d:    makespan %-9.1fs -> %-9.1fs (%+.4f%% virtual)  wall %.2fs -> %.2fs (%+.1f%%)  %d events\n",
				s.Figure, s.MakespanOffS, s.MakespanOnS, s.OverheadPct, s.WallOffS, s.WallOnS, s.WallOverheadPct, s.Events)
		}
		fmt.Printf("  max virtual makespan overhead with tracing on: %.4f%%\n", ti.MaxOverheadPct)
	}

	if !*skipSweep {
		info, err := measureSweep(*procs, *upp, *jobs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		rep.Sweep = info
		fmt.Printf("  sweep:    serial %.1fs  parallel(jobs=%d) %.1fs  speedup %.2fx  identical=%v\n",
			info.SerialWallS, info.Jobs, info.ParallelWallS, info.Speedup, info.OutputsIdentical)
	}

	if !*skipShards {
		si, err := measureShards(*events, *largeProcs, *largeUPP, *partition, *skipLarge)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		rep.Shards = si
		for _, p := range si.Points {
			fmt.Printf("  shards=%d: %8.1f ns/event  %.2fM events/s  wall %.2fs  speedup %.2fx  imbalance %.2f  rounds %d\n",
				p.Shards, p.NsPerEvent, p.EventsPerSec/1e6, p.WallS, p.Speedup, p.ImbalanceRatio, p.BarrierRounds)
		}
		fmt.Printf("  identical across shard counts: %v\n", si.Identical)
		if si.Large != nil {
			fmt.Printf("  large:    %d procs x %d units/proc (%s, shards=%d, partition=%s)  wall %.1fs (serial %.1fs)  makespan %.1fs  imbalance %.2f  rounds %d  identical=%v\n",
				si.Large.Procs, si.Large.UnitsPerProc, si.Large.System, si.Large.Shards, si.Large.Partition,
				si.Large.WallS, si.Large.SerialWallS, si.Large.MakespanS,
				si.Large.ImbalanceRatio, si.Large.BarrierRounds, si.Large.IdenticalToSerial)
		}
	}

	if !*skipWindows {
		wi, err := measureWindows(*procs, *upp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		rep.Windows = wi
		fmt.Printf("  windows:  fig %d (%d procs, shards=%d)  fixed %d rounds -> adaptive %d rounds (%.1fx fewer)  identical=%v\n",
			wi.Figure, wi.Procs, wi.Shards, wi.FixedRounds, wi.AdaptiveRounds, wi.RoundsRatio, wi.Identical)
	}

	if !*skipScale {
		sc, err := measureScale(*scaleProcs, *scaleObjects)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		rep.Scale = sc
		for _, p := range sc.Points {
			fmt.Printf("  scale s=%d: %8.1f ns/event  %.2fM events/s  wall %.2fs  speedup %.2fx  imbalance %.2f  rounds %d\n",
				p.Shards, p.NsPerEvent, p.EventsPerSec/1e6, p.WallS, p.Speedup, p.ImbalanceRatio, p.BarrierRounds)
		}
		fmt.Printf("  scale:    %d procs x %d objects/proc = %d objects  identical=%v\n",
			sc.Procs, sc.ObjectsPerProc, sc.Objects, sc.Identical)
	}

	if !*skipWire {
		wi, err := measureWire(*events, *procs, *upp, rep.Eng.AMRoundTripNs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		rep.Wire = wi
		fmt.Printf("  codec:    %8.1f ns/frame  %.4f allocs/frame  %.1f B/frame avg over %d kinds\n",
			wi.NsPerFrame, wi.AllocsPerFrame, wi.AvgFrameBytes, wi.Kinds)
		fmt.Printf("  AM trip:  %8.1f ns/msg wire-wrapped (%+.1f%% vs raw engine)\n",
			wi.AMRoundTripNs, wi.AMOverheadPct)
		fmt.Printf("  fig %d:    %s  frames=%d  size_drift=%d  identical=%v\n",
			wi.Figure, wi.System, wi.Frames, wi.SizeDrift, wi.IdenticalToPlain)
	}

	if !*skipDist {
		fmt.Printf("perfbench: distributed transport probe (%d TCP round trips, 2 nodes)...\n", *distRounds)
		di, err := measureDist(*distRounds, *premadPath, rep.Eng.AMRoundTripNs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		rep.Dist = di
		fmt.Printf("  dist:     %8.1f ns/roundtrip  %8.1f ns one-way  (%s, %d frames, %.0fx the raw engine AM trip)\n",
			di.RoundTripNs, di.AMLatencyNs, di.Mode, di.WireFrames, di.VsSimAMX)
	}

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("perfbench: wrote %s\n", *out)
}

// probe is one steady-state measurement window: a warm-up phase (filling the
// event free list and runtime caches), then n operations bracketed by
// ReadMemStats and a wall clock.
type probe struct {
	n      int
	dur    time.Duration
	allocs uint64
	bytes  uint64
}

func (pr *probe) begin() (runtime.MemStats, time.Time) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m, time.Now()
}

func (pr *probe) end(m0 runtime.MemStats, t0 time.Time) {
	pr.dur = time.Since(t0)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	pr.allocs = m1.Mallocs - m0.Mallocs
	pr.bytes = m1.TotalAlloc - m0.TotalAlloc
}

// measureEngine runs the two hot-path microbenchmarks: the Advance event
// loop (one typed wake event per op) and the dmcs active-message round trip
// (two sends, two deliveries, two polls per op).
func measureEngine(events int) EngineInfo {
	const warm = 10_000
	adv := probe{n: events}
	{
		e := sim.NewEngine(sim.Config{Seed: 1})
		e.Spawn("p", func(p *sim.Proc) {
			for i := 0; i < warm; i++ {
				p.Advance(sim.Microsecond, sim.CatCompute)
			}
			m0, t0 := adv.begin()
			for i := 0; i < adv.n; i++ {
				p.Advance(sim.Microsecond, sim.CatCompute)
			}
			adv.end(m0, t0)
		})
		if err := e.Run(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: advance probe:", err)
			os.Exit(1)
		}
	}
	queued := probe{n: events / 2}
	{
		e := sim.NewEngine(sim.Config{Seed: 1})
		// Two processors advancing by the same quantum: every wake ties
		// with the peer's pending wake, and ties always take the slow
		// path, so this times the heap + park/transfer round trip.
		rounds := warm + queued.n
		e.Spawn("a", func(p *sim.Proc) {
			for i := 0; i < rounds; i++ {
				p.Advance(sim.Microsecond, sim.CatCompute)
			}
		})
		e.Spawn("b", func(p *sim.Proc) {
			for i := 0; i < warm; i++ {
				p.Advance(sim.Microsecond, sim.CatCompute)
			}
			m0, t0 := queued.begin()
			for i := 0; i < queued.n; i++ {
				p.Advance(sim.Microsecond, sim.CatCompute)
			}
			queued.end(m0, t0)
		})
		if err := e.Run(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: queued probe:", err)
			os.Exit(1)
		}
	}
	am := probe{n: events / 4}
	{
		e := sim.NewEngine(sim.Config{Seed: 1})
		rounds := warm + am.n
		e.Spawn("pong", func(p *sim.Proc) {
			c := dmcs.New(p)
			var h dmcs.HandlerID
			h = c.Register(func(c *dmcs.Comm, src int, data any, size int) {
				if data.(int) > 0 {
					c.Send(src, h, data.(int)-1, 8)
				}
			})
			for i := 0; i < rounds; i++ {
				c.WaitPoll(sim.CatIdle)
			}
		})
		e.Spawn("ping", func(p *sim.Proc) {
			c := dmcs.New(p)
			var h dmcs.HandlerID
			h = c.Register(func(c *dmcs.Comm, src int, data any, size int) {
				if data.(int) > 0 {
					c.Send(src, h, data.(int)-1, 8)
				}
			})
			c.Send(0, h, 2*rounds, 8)
			for i := 0; i < warm; i++ {
				c.WaitPoll(sim.CatIdle)
			}
			m0, t0 := am.begin()
			for i := 0; i < am.n; i++ {
				c.WaitPoll(sim.CatIdle)
			}
			am.end(m0, t0)
		})
		if err := e.Run(); err != nil && err != sim.ErrDeadlock {
			fmt.Fprintln(os.Stderr, "perfbench: AM probe:", err) // tail messages may strand one poller
		}
	}
	info := EngineInfo{
		NsPerEvent:          float64(adv.dur.Nanoseconds()) / float64(adv.n),
		AllocsPerEvent:      float64(adv.allocs) / float64(adv.n),
		BytesPerEvent:       float64(adv.bytes) / float64(adv.n),
		NsPerEventQueued:    float64(queued.dur.Nanoseconds()) / float64(queued.n),
		AllocsPerEventQueue: float64(queued.allocs) / float64(queued.n),
		AMRoundTripNs:       float64(am.dur.Nanoseconds()) / float64(am.n),
		AMRoundTripAllocs:   float64(am.allocs) / float64(am.n),
	}
	if info.NsPerEvent > 0 {
		info.EventsPerSec = 1e9 / info.NsPerEvent
	}
	return info
}

// measureTrace benchmarks the trace recording hot path and measures the
// tracing overhead on the four paper figure scenarios (prema-implicit, sim
// backend): virtual makespan with tracing on vs off — the repository's
// version of the paper's "<1%" overhead claim — plus the host wall-clock
// delta, which is what recording actually costs the machine running the
// simulation.
func measureTrace(events, procs, upp, jobs int) (*TraceInfo, error) {
	const warm = 10_000
	const system = "prema-implicit"
	r := trace.NewRecorder(0, trace.DefaultRingCap)
	for i := 0; i < warm; i++ {
		r.Instant(trace.EvSend, sim.Time(i), 1, 2, 3)
	}
	rec := probe{n: events}
	m0, t0 := rec.begin()
	for i := 0; i < rec.n; i++ {
		r.Instant(trace.EvSend, sim.Time(i), 1, 2, 3)
	}
	rec.end(m0, t0)

	ti := &TraceInfo{
		NsPerEvent:     float64(rec.dur.Nanoseconds()) / float64(rec.n),
		AllocsPerEvent: float64(rec.allocs) / float64(rec.n),
		System:         system,
		Procs:          procs,
		UnitsPerProc:   upp,
	}
	type outcome struct {
		scen TraceScenario
		off  string // Report(0) fingerprints, compared below
		on   string
	}
	specs := bench.Figures()
	outs, err := sweep.Map(jobs, len(specs), func(i int) (outcome, error) {
		w := bench.PaperWorkload(specs[i], procs, upp)
		t0 := time.Now()
		off, err := bench.RunSystem(system, w)
		if err != nil {
			return outcome{}, err
		}
		wallOff := time.Since(t0).Seconds()
		t1 := time.Now()
		on, err := bench.RunSpec{System: system, W: w, Trace: true}.Run()
		if err != nil {
			return outcome{}, err
		}
		wallOn := time.Since(t1).Seconds()
		col := on.Trace
		s := TraceScenario{
			Figure:       specs[i].ID,
			MakespanOffS: off.Makespan.Seconds(),
			MakespanOnS:  on.Makespan.Seconds(),
			WallOffS:     wallOff,
			WallOnS:      wallOn,
			Events:       col.Total(),
		}
		if s.MakespanOffS > 0 {
			s.OverheadPct = 100 * (s.MakespanOnS - s.MakespanOffS) / s.MakespanOffS
		}
		if wallOff > 0 {
			s.WallOverheadPct = 100 * (wallOn - wallOff) / wallOff
		}
		return outcome{scen: s, off: off.Summary(), on: on.Summary()}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, o := range outs {
		if o.off != o.on {
			return nil, fmt.Errorf("traced run diverged from untraced: %q vs %q", o.off, o.on)
		}
		if o.scen.OverheadPct > ti.MaxOverheadPct {
			ti.MaxOverheadPct = o.scen.OverheadPct
		}
		ti.Scenarios = append(ti.Scenarios, o.scen)
	}
	return ti, nil
}

// measureSweep times the full evaluation campaign serially and in parallel
// and cross-checks that both produce identical reports.
func measureSweep(procs, upp, jobs int) (*SweepInfo, error) {
	specs := bench.Figures()
	info := &SweepInfo{
		Systems:      bench.SystemNames,
		Simulations:  len(specs) * len(bench.SystemNames),
		Procs:        procs,
		UnitsPerProc: upp,
		Jobs:         jobs,
	}
	for _, s := range specs {
		info.Figures = append(info.Figures, s.ID)
	}

	fmt.Printf("perfbench: serial sweep (%d sims at %d procs x %d units/proc)...\n",
		info.Simulations, procs, upp)
	t0 := time.Now()
	serial, err := bench.RunFigures(specs, bench.RunSpec{W: bench.Workload{Procs: procs}, UnitsPerProc: upp, Jobs: 1})
	if err != nil {
		return nil, err
	}
	info.SerialWallS = time.Since(t0).Seconds()
	fmt.Printf("  serial: %.1fs\n", info.SerialWallS)

	fmt.Printf("perfbench: parallel sweep (jobs=%d)...\n", jobs)
	t1 := time.Now()
	parallel, err := bench.RunFigures(specs, bench.RunSpec{W: bench.Workload{Procs: procs}, UnitsPerProc: upp, Jobs: jobs})
	if err != nil {
		return nil, err
	}
	info.ParallelWallS = time.Since(t1).Seconds()
	if info.ParallelWallS > 0 {
		info.Speedup = info.SerialWallS / info.ParallelWallS
	}

	info.OutputsIdentical = true
	for i := range serial {
		if serial[i].Report(0) != parallel[i].Report(0) {
			info.OutputsIdentical = false
		}
	}
	return info, nil
}

// point packages one engine run's timing and telemetry into a ShardPoint.
func point(e *sim.Engine, shards int, wall time.Duration) ShardPoint {
	p := ShardPoint{
		Shards:     shards,
		WallS:      wall.Seconds(),
		Events:     e.EventsFired(),
		MakespanS:  e.Makespan().Seconds(),
		NsPerEvent: float64(wall.Nanoseconds()) / float64(e.EventsFired()),
	}
	if p.NsPerEvent > 0 {
		p.EventsPerSec = 1e9 / p.NsPerEvent
	}
	if shards > 1 {
		p.ShardEvents = e.ShardEventsFired()
		p.ImbalanceRatio = e.ImbalanceRatio()
		p.BarrierRounds = e.BarrierRounds()
	}
	return p
}

// meshRun executes one irregular message-passing workload — every processor
// alternates randomized compute quanta with sends to random peers — on the
// given shard count, returning the engine (for telemetry) and wall time.
// The workload is deterministic (all randomness comes from the
// per-processor streams), so the makespan must be identical for every shard
// count; the caller cross-checks that.
func meshRun(procs, rounds, shards int) (*sim.Engine, time.Duration, error) {
	e := sim.NewEngine(sim.Config{Seed: 7, Shards: shards})
	for i := 0; i < procs; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			rng := p.Rand()
			n := p.Engine().NumProcs()
			for r := 0; r < rounds; r++ {
				p.Advance(sim.Time(1+rng.Intn(20))*sim.Microsecond, sim.CatCompute)
				dst := rng.Intn(n)
				if dst == p.ID() {
					dst = (dst + 1) % n
				}
				p.Send(&sim.Msg{Dst: dst, Tag: 1, Size: 64}, sim.CatMessaging)
				if p.WaitMsgFor(100*sim.Microsecond, sim.CatIdle) {
					p.TryRecv(sim.CatMessaging)
				}
			}
			for p.WaitMsgFor(200*sim.Microsecond, sim.CatIdle) {
				p.TryRecv(sim.CatMessaging)
			}
		})
	}
	t0 := time.Now()
	if err := e.Run(); err != nil {
		return nil, 0, err
	}
	return e, time.Since(t0), nil
}

// measureShards times the mesh workload at S in {1, 2, 4, 8} shards and runs
// the large-scale figure scenario sharded and serial, cross-checking both
// byte-identity claims.
func measureShards(events, largeProcs, largeUPP int, partition string, skipLarge bool) (*ShardInfo, error) {
	const meshProcs = 256
	rounds := events / (meshProcs * 5) // ~5 events per (advance, send, recv) round
	if rounds < 10 {
		rounds = 10
	}
	si := &ShardInfo{MeshProcs: meshProcs, MeshRounds: rounds, Identical: true}
	fmt.Printf("perfbench: sharded engine axis (mesh: %d procs x %d rounds)...\n", meshProcs, rounds)
	var serialWall, serialMakespan float64
	for _, s := range shardCounts {
		e, wall, err := meshRun(meshProcs, rounds, s)
		if err != nil {
			return nil, fmt.Errorf("mesh shards=%d: %w", s, err)
		}
		p := point(e, s, wall)
		if s == 1 {
			serialWall, serialMakespan = p.WallS, p.MakespanS
			p.Speedup = 1
		} else {
			if p.WallS > 0 {
				p.Speedup = serialWall / p.WallS
			}
			if p.MakespanS != serialMakespan {
				si.Identical = false
			}
			if s == 4 {
				si.SpeedupAtS4 = p.Speedup
			}
			if s == 8 {
				si.SpeedupAtS8 = p.Speedup
			}
		}
		si.Points = append(si.Points, p)
	}
	if skipLarge {
		return si, nil
	}

	const largeShards = 4
	const system = "prema-implicit"
	spec := bench.Figures()[0]
	w := bench.PaperWorkload(spec, largeProcs, largeUPP)
	fmt.Printf("perfbench: large scenario (%d procs x %d units/proc, %s, shards=%d, partition=%s, vs serial)...\n",
		largeProcs, largeUPP, system, largeShards, partition)
	w.Shards = largeShards
	w.Partition = partition
	t0 := time.Now()
	sharded, err := bench.RunSystem(system, w)
	if err != nil {
		return nil, fmt.Errorf("large sharded: %w", err)
	}
	shardedWall := time.Since(t0).Seconds()
	w.Shards = 1
	w.Partition = ""
	t1 := time.Now()
	serial, err := bench.RunSystem(system, w)
	if err != nil {
		return nil, fmt.Errorf("large serial: %w", err)
	}
	si.Large = &LargeInfo{
		Procs:          largeProcs,
		UnitsPerProc:   largeUPP,
		System:         system,
		Shards:         largeShards,
		Partition:      partition,
		WallS:          shardedWall,
		SerialWallS:    time.Since(t1).Seconds(),
		MakespanS:      sharded.Makespan.Seconds(),
		Events:         sharded.Events,
		ShardEvents:    sharded.ShardEvents,
		ImbalanceRatio: sharded.ImbalanceRatio(),
		BarrierRounds:  sharded.BarrierRounds,
		IdenticalToSerial: serial.Summary() == sharded.Summary() &&
			serial.Breakdown(1) == sharded.Breakdown(1),
	}
	return si, nil
}

// measureWindows runs one figure scenario sharded twice — fixed windows vs
// the adaptive protocol — and reports the barrier-round reduction. The two
// runs must produce identical reports; only the round count (and wall
// clock) may differ. The network is the two-level cluster-of-SMPs variant
// with one zone per shard (blocked partition), the configuration the
// per-destination lookahead matrix exists for.
func measureWindows(procs, upp int) (*WindowInfo, error) {
	const system = "prema-implicit"
	const shards = 4
	const zoneLat = 5 * sim.Microsecond
	spec := bench.Figures()[0]
	fmt.Printf("perfbench: window protocol (fig %d, %d procs x %d units/proc, %s, shards=%d, zoned net, fixed vs adaptive)...\n",
		spec.ID, procs, upp, system, shards)
	w := bench.PaperWorkload(spec, procs, upp)
	net := sim.DefaultNetwork()
	net.ZoneSize = (procs + shards - 1) / shards
	net.ZoneLatency = zoneLat
	w.Network = net
	w.Shards = shards
	w.Partition = bench.PartitionBlocked

	w.FixedWindows = true
	t0 := time.Now()
	fixed, err := bench.RunSystem(system, w)
	if err != nil {
		return nil, fmt.Errorf("windows fixed: %w", err)
	}
	fixedWall := time.Since(t0).Seconds()

	w.FixedWindows = false
	t1 := time.Now()
	adaptive, err := bench.RunSystem(system, w)
	if err != nil {
		return nil, fmt.Errorf("windows adaptive: %w", err)
	}
	wi := &WindowInfo{
		Figure:         spec.ID,
		System:         system,
		Procs:          procs,
		UnitsPerProc:   upp,
		Shards:         shards,
		Partition:      bench.PartitionBlocked,
		ZoneSize:       net.ZoneSize,
		ZoneLatencyUs:  float64(net.ZoneLatency) / float64(sim.Microsecond),
		InterLatencyUs: float64(net.Latency) / float64(sim.Microsecond),
		FixedRounds:    fixed.BarrierRounds,
		AdaptiveRounds: adaptive.BarrierRounds,
		FixedWallS:     fixedWall,
		AdaptiveWallS:  time.Since(t1).Seconds(),
		Identical: fixed.Summary() == adaptive.Summary() &&
			fixed.Breakdown(1) == adaptive.Breakdown(1),
	}
	if wi.AdaptiveRounds > 0 {
		wi.RoundsRatio = float64(wi.FixedRounds) / float64(wi.AdaptiveRounds)
	}
	return wi, nil
}

// scaleRun executes the scale-push workload: procs processors each stepping
// `objects` objects (one compute quantum per object, one message per 16
// objects — an AMR-flavored compute/communicate mix) on the given shard
// count.
func scaleRun(procs, objects, shards int) (*sim.Engine, time.Duration, error) {
	e := sim.NewEngine(sim.Config{Seed: 11, Shards: shards})
	for i := 0; i < procs; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			rng := p.Rand()
			n := p.Engine().NumProcs()
			for o := 0; o < objects; o++ {
				p.Advance(sim.Time(1+rng.Intn(4))*sim.Microsecond, sim.CatCompute)
				if o&15 == 0 {
					dst := rng.Intn(n)
					if dst == p.ID() {
						dst = (dst + 1) % n
					}
					p.Send(&sim.Msg{Dst: dst, Tag: 1, Size: 32}, sim.CatMessaging)
				}
				if o&15 == 8 && p.TryRecv(sim.CatMessaging) == nil {
					// Nothing pending; keep stepping objects.
					continue
				}
			}
			for p.WaitMsgFor(200*sim.Microsecond, sim.CatIdle) {
				p.TryRecv(sim.CatMessaging)
			}
		})
	}
	t0 := time.Now()
	if err := e.Run(); err != nil {
		return nil, 0, err
	}
	return e, time.Since(t0), nil
}

// measureWire benchmarks the serialization loopback at three levels: the
// raw codec (one encode + decode per registered payload kind, frames sized
// exactly to their encoding so the audit sees zero drift), the dmcs
// active-message round trip on a wire-wrapped simulator machine, and a full
// figure scenario with the loopback on vs off — the repository's "the codec
// charges nothing" claim, checked byte-for-byte.
func measureWire(events, procs, upp int, rawAMNs float64) (*WireInfo, error) {
	const warm = 10_000
	samples := wire.Samples()
	msgs := make([]*substrate.Msg, len(samples))
	var totalBytes int
	for i, s := range samples {
		m := &substrate.Msg{Src: i % 7, Dst: (i + 1) % 7, Kind: i, Tag: i % 3,
			Data: s, Seq: uint64(i), SentAt: substrate.Time(i)}
		_, plen := wire.EncodeMsg(m)
		m.Size = plen // exact fit: no padding, no drift
		frame, _ := wire.EncodeMsg(m)
		totalBytes += len(frame)
		msgs[i] = m
	}
	var w wire.Writer
	roundTrips := func(n int) error {
		for i := 0; i < n; i++ {
			m := msgs[i%len(msgs)]
			w.Reset()
			wire.AppendMsg(&w, m)
			if _, err := wire.DecodeMsg(w.Buf()); err != nil {
				return fmt.Errorf("wire codec probe (%T): %w", m.Data, err)
			}
		}
		return nil
	}
	fmt.Printf("perfbench: wire loopback axis (%d kinds, %d frames)...\n", len(samples), events)
	codec := probe{n: events}
	if err := roundTrips(warm); err != nil {
		return nil, err
	}
	m0, t0 := codec.begin()
	if err := roundTrips(codec.n); err != nil {
		return nil, err
	}
	codec.end(m0, t0)
	wi := &WireInfo{
		Kinds:          len(samples),
		NsPerFrame:     float64(codec.dur.Nanoseconds()) / float64(codec.n),
		AllocsPerFrame: float64(codec.allocs) / float64(codec.n),
		AvgFrameBytes:  float64(totalBytes) / float64(len(samples)),
	}

	// The engine AM probe, re-run with every message crossing the codec.
	am := probe{n: events / 4}
	{
		m := wire.Wrap(sim.NewMachine(sim.Config{Seed: 1}))
		rounds := warm + am.n
		body := func(measure bool) func(substrate.Endpoint) {
			return func(ep substrate.Endpoint) {
				c := dmcs.New(ep)
				var h dmcs.HandlerID
				h = c.Register(func(c *dmcs.Comm, src int, data any, size int) {
					if data.(int) > 0 {
						c.Send(src, h, data.(int)-1, 8)
					}
				})
				if !measure {
					for i := 0; i < rounds; i++ {
						c.WaitPoll(substrate.CatIdle)
					}
					return
				}
				c.Send(0, h, 2*rounds, 8)
				for i := 0; i < warm; i++ {
					c.WaitPoll(substrate.CatIdle)
				}
				m0, t0 := am.begin()
				for i := 0; i < am.n; i++ {
					c.WaitPoll(substrate.CatIdle)
				}
				am.end(m0, t0)
			}
		}
		m.Spawn("pong", body(false))
		m.Spawn("ping", body(true))
		if err := m.Run(); err != nil && err != sim.ErrDeadlock {
			fmt.Fprintln(os.Stderr, "perfbench: wire AM probe:", err) // tail messages may strand one poller
		}
	}
	wi.AMRoundTripNs = float64(am.dur.Nanoseconds()) / float64(am.n)
	if rawAMNs > 0 {
		wi.AMOverheadPct = 100 * (wi.AMRoundTripNs - rawAMNs) / rawAMNs
	}

	// Full-stack identity: one figure scenario, loopback off vs on.
	const system = "prema-implicit"
	spec := bench.Figures()[0]
	wl := bench.PaperWorkload(spec, procs, upp)
	plain, err := bench.RunSystem(system, wl)
	if err != nil {
		return nil, fmt.Errorf("wire plain run: %w", err)
	}
	wl.Wire = true
	wired, err := bench.RunSystem(system, wl)
	if err != nil {
		return nil, fmt.Errorf("wire wrapped run: %w", err)
	}
	wi.Figure = spec.ID
	wi.System = system
	wi.Frames = wired.WireFrames
	wi.SizeDrift = wired.WireDrift
	wi.IdenticalToPlain = plain.Summary() == wired.Summary() &&
		plain.Breakdown(1) == wired.Breakdown(1)
	return wi, nil
}

// measureDist times the distributed backend's transport: a two-node
// pingpong session where every round trip is two frames over localhost TCP.
// The preferred mode spawns real premad processes (full process isolation);
// when no premad binary can be resolved the probe degrades to two in-process
// nodes joined over the same sockets, which measures the identical wire path
// minus the scheduler isolation — and records which mode ran.
func measureDist(rounds int, premad string, engAMNs float64) (*DistInfo, error) {
	spec := bench.NewDistSpec("pingpong", bench.Workload{
		Procs: 2, Units: rounds, UnitBytes: 8, Seed: 7,
	})
	mode := "spawn"
	res, err := bench.RunDist(spec, bench.DistOptions{
		Nodes: 2, Listen: "127.0.0.1:0", Premad: premad,
	})
	if err != nil && strings.Contains(err.Error(), "premad binary not found") {
		mode = "in-process"
		res, err = runDistInProcess(spec)
	}
	if err != nil {
		return nil, fmt.Errorf("dist probe: %w", err)
	}
	di := &DistInfo{
		Nodes:      2,
		Mode:       mode,
		Rounds:     res.Counters["pingpong_rounds"],
		WireFrames: res.WireFrames,
	}
	if total := res.Counters["pingpong_ns_total"]; di.Rounds > 0 {
		di.RoundTripNs = float64(total) / float64(di.Rounds)
		di.AMLatencyNs = di.RoundTripNs / 2
	}
	if engAMNs > 0 {
		di.VsSimAMX = di.RoundTripNs / engAMNs
	}
	return di, nil
}

// runDistInProcess hosts both session nodes in this process: grab a free
// port, join two nodes against it, and run the coordinator in attach mode.
// The frames still cross real localhost sockets.
func runDistInProcess(spec bench.RunSpec) (*bench.Result, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	const nodes = 2
	errc := make(chan error, nodes)
	for i := 0; i < nodes; i++ {
		go func(i int) {
			n, err := dist.Join(dist.NodeConfig{Coord: addr, Node: i})
			if err != nil {
				errc <- err
				return
			}
			defer n.Close()
			errc <- bench.RunDistNode(n)
		}(i)
	}
	res, err := bench.RunDist(spec, bench.DistOptions{Nodes: nodes, Listen: addr, Attach: true})
	for i := 0; i < nodes; i++ {
		if nerr := <-errc; nerr != nil && err == nil {
			err = nerr
		}
	}
	return res, err
}

// measureScale runs the scale-push workload across the shard axis.
func measureScale(procs, objects int) (*ScaleInfo, error) {
	sc := &ScaleInfo{
		Procs:          procs,
		ObjectsPerProc: objects,
		Objects:        procs * objects,
		MaxObjects:     procs * objects,
		Identical:      true,
	}
	fmt.Printf("perfbench: scale push (%d procs x %d objects/proc = %d objects)...\n",
		procs, objects, sc.Objects)
	var serialWall, serialMakespan float64
	for _, s := range shardCounts {
		e, wall, err := scaleRun(procs, objects, s)
		if err != nil {
			return nil, fmt.Errorf("scale shards=%d: %w", s, err)
		}
		p := point(e, s, wall)
		if s == 1 {
			serialWall, serialMakespan = p.WallS, p.MakespanS
			p.Speedup = 1
		} else {
			if p.WallS > 0 {
				p.Speedup = serialWall / p.WallS
			}
			if p.MakespanS != serialMakespan {
				sc.Identical = false
			}
			switch s {
			case 2:
				sc.SpeedupAtS2 = p.Speedup
			case 4:
				sc.SpeedupAtS4 = p.Speedup
			case 8:
				sc.SpeedupAtS8 = p.Speedup
			}
		}
		sc.Points = append(sc.Points, p)
	}
	return sc, nil
}
