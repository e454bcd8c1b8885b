package bench

import (
	"fmt"
	"io"
	"strings"

	"prema/internal/faulty"
	"prema/internal/recov"
	"prema/internal/stats"
	"prema/internal/substrate"
	"prema/internal/trace"
)

// Result is the outcome of one benchmark run: the quantities the paper's
// figures plot (per-processor time breakdowns) and its text reports
// (makespan, load-quality standard deviation, overhead percentages).
type Result struct {
	// System identifies the load balancing configuration
	// ("none", "prema-explicit", "prema-implicit", "parmetis",
	// "charm", "charm-sync4", ...).
	System string
	// W is the workload that was run.
	W Workload
	// Makespan is the overall runtime (max processor finish time).
	Makespan substrate.Time
	// Accounts holds each processor's final time ledger.
	Accounts []substrate.Account
	// Counters carries system-specific counters (steals, migrations,
	// repartition rounds, ...) for reporting.
	Counters map[string]int
	// Resident is the number of mobile objects resident on each processor
	// at the end of the run (PREMA drivers only; nil for baseline models).
	// The chaos harness uses it to check object conservation — every
	// registered object lives on exactly one processor, dup or no dup.
	Resident []int
	// PollWakes is each processor's count of implicit-mode polling-thread
	// wake-ups (ilb.Stats.PollWakes; PREMA drivers on the in-process
	// backends, nil otherwise). Like Resident it is for checks, not reports.
	PollWakes []int
	// Recov is the machine-wide crash-recovery ledger (nil unless the run
	// had PremaConfig.Recovery set): checkpoints taken, charged overhead,
	// crash verdicts, objects re-homed, envelopes replayed.
	Recov *recov.Stats
	// Faults is the fault injector's machine-wide ledger (zero unless the
	// run's fault plan was active; node-local, hence zero, on a dist
	// coordinator's merged result).
	Faults faulty.Stats
	// Trace is the collector the run recorded into (nil unless the spec
	// asked for tracing; RunSpec.ExportTrace writes it out).
	Trace *trace.Collector

	// Engine telemetry (simulator backend only; zero on the real
	// backend — collect unwraps the trace, faulty and wire decorators to
	// reach it). These describe the host-side execution, not the
	// simulated system, so they appear in benchmark/'s per-layer rows but
	// never in Summary/Breakdown/CSV — the outputs the golden hashes and
	// byte-identity tests cover.

	// Events is the total number of simulator events the run fired.
	Events uint64
	// BarrierRounds is the number of window coordination rounds the sharded
	// engine executed (0 for serial runs).
	BarrierRounds uint64
	// PollsElided is the number of polling-thread wake-ups the simulator
	// charged arithmetically instead of firing (sim.Proc.AdvancePolled).
	PollsElided uint64
	// Transfers is the number of times an event loop switched into a
	// processor body (sim.Engine.Transfers): the denominator for a host
	// cost per hand-off, at most one per event.
	Transfers uint64

	// Wire telemetry (wire-wrapped runs only; zero otherwise). Like the
	// engine telemetry it is host-side observability, excluded from
	// Summary/Breakdown/CSV.

	// WireFrames is the number of messages the wire codec round-tripped.
	WireFrames uint64
	// WireDrift counts sends whose encoded payload exceeded the modeled
	// Msg.Size (the wire_size_drift_total metrics counter); zero means the
	// cost model's byte accounting is honest.
	WireDrift uint64
}

// CheckConservation verifies the application-level outcome of a PREMA run:
// every work unit computed exactly once, and every registered mobile object
// resident on exactly one processor at the end — no unit lost to a dropped
// message, none run twice off a duplicated one. This is the invariant the
// chaos experiments assert against a faulted machine.
func (r *Result) CheckConservation() error {
	if r.Resident == nil {
		return fmt.Errorf("%s: no residency data (not a PREMA run)", r.System)
	}
	if got := r.Counters["units_run"]; got != r.W.Units {
		return fmt.Errorf("%s: ran %d units, want %d", r.System, got, r.W.Units)
	}
	objs := 0
	for _, n := range r.Resident {
		objs += n
	}
	if objs != r.W.Units {
		return fmt.Errorf("%s: %d objects resident, want %d", r.System, objs, r.W.Units)
	}
	return nil
}

// Series extracts one per-processor category series in seconds — one
// stacked-bar component of the paper's figures.
func (r *Result) Series(cat substrate.Category) []float64 {
	out := make([]float64, len(r.Accounts))
	for i := range r.Accounts {
		out[i] = r.Accounts[i][cat].Seconds()
	}
	return out
}

// ComputeStdDev is the paper's load-quality metric: the standard deviation
// of per-processor computation times, in seconds.
func (r *Result) ComputeStdDev() float64 {
	return stats.StdDev(r.Series(substrate.CatCompute))
}

// TotalCompute returns the machine-wide useful computation in seconds.
func (r *Result) TotalCompute() float64 {
	t := 0.0
	for i := range r.Accounts {
		t += r.Accounts[i][substrate.CatCompute].Seconds()
	}
	return t
}

// OverheadPct returns total runtime-attributable overhead (everything that
// is neither computation nor idle) as a percentage of useful computation —
// the paper's "overhead attributable to the runtime system".
func (r *Result) OverheadPct() float64 {
	var o float64
	for i := range r.Accounts {
		o += r.Accounts[i].Overhead().Seconds()
	}
	c := r.TotalCompute()
	if c == 0 {
		return 0
	}
	return 100 * o / c
}

// SyncPct returns synchronization plus partition-calculation time as a
// percentage of useful computation — the cost the paper charges against
// stop-and-repartition schemes.
func (r *Result) SyncPct() float64 {
	var s float64
	for i := range r.Accounts {
		s += (r.Accounts[i][substrate.CatSync] + r.Accounts[i][substrate.CatPartition]).Seconds()
	}
	c := r.TotalCompute()
	if c == 0 {
		return 0
	}
	return 100 * s / c
}

// OverheadOfRuntimePct returns total runtime-attributable overhead as a
// percentage of total machine time (makespan x processors) — the measure the
// paper's mesh-experiment "<1% of the total runtime" claim uses.
func (r *Result) OverheadOfRuntimePct() float64 {
	var o float64
	for i := range r.Accounts {
		o += r.Accounts[i].Overhead().Seconds()
	}
	total := r.Makespan.Seconds() * float64(len(r.Accounts))
	if total == 0 {
		return 0
	}
	return 100 * o / total
}

// IdlePct returns idle time as a percentage of the makespan, averaged over
// processors.
func (r *Result) IdlePct() float64 {
	var idle float64
	for i := range r.Accounts {
		idle += r.Accounts[i][substrate.CatIdle].Seconds()
	}
	total := r.Makespan.Seconds() * float64(len(r.Accounts))
	if total == 0 {
		return 0
	}
	return 100 * idle / total
}

// Summary renders a one-line summary.
func (r *Result) Summary() string {
	return fmt.Sprintf("%-16s makespan=%8.1fs  stddev(comp)=%7.2fs  overhead=%6.3f%%  sync=%6.3f%%  idle=%5.1f%%",
		r.System, r.Makespan.Seconds(), r.ComputeStdDev(), r.OverheadPct(), r.SyncPct(), r.IdlePct())
}

// WriteCSV emits the full per-processor breakdown as CSV (one row per
// processor, seconds per category) for external plotting of the paper's
// stacked-bar figures.
func (r *Result) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "proc,compute,idle,messaging,scheduling,callback,pollthread,partition,sync"); err != nil {
		return err
	}
	for i := range r.Accounts {
		a := &r.Accounts[i]
		_, err := fmt.Fprintf(w, "%d,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f\n", i,
			a[substrate.CatCompute].Seconds(), a[substrate.CatIdle].Seconds(),
			a[substrate.CatMessaging].Seconds(), a[substrate.CatScheduling].Seconds(),
			a[substrate.CatCallback].Seconds(), a[substrate.CatPollThread].Seconds(),
			a[substrate.CatPartition].Seconds(), a[substrate.CatSync].Seconds())
		if err != nil {
			return err
		}
	}
	return nil
}

// Breakdown renders the per-processor stacked-bar data of the paper's
// figures as a text table, sampling every stride-th processor.
func (r *Result) Breakdown(stride int) string {
	if stride < 1 {
		stride = 1
	}
	t := stats.NewTable(strings.Fields("proc compute idle msg sched callback pollthr partition sync total")...)
	for i := 0; i < len(r.Accounts); i += stride {
		a := &r.Accounts[i]
		t.AddRow(i,
			a[substrate.CatCompute].Seconds(), a[substrate.CatIdle].Seconds(),
			a[substrate.CatMessaging].Seconds(), a[substrate.CatScheduling].Seconds(),
			a[substrate.CatCallback].Seconds(), a[substrate.CatPollThread].Seconds(),
			a[substrate.CatPartition].Seconds(), a[substrate.CatSync].Seconds(),
			a.Total().Seconds())
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (procs=%d units=%d heavyFrac=%.2f heavy=%s light=%s hints=%s)\n",
		r.System, r.W.Procs, r.W.Units, r.W.HeavyFrac, r.W.Heavy, r.W.Light, r.W.Hints)
	b.WriteString(t.String())
	return b.String()
}
