// Command chaosbench runs the paper's microbenchmark figures on a faulted
// machine and checks that PREMA survives: with DMCS reliable delivery on,
// every work unit must compute exactly once and every mobile object must end
// resident on exactly one processor, no matter how lossy the network is.
//
// Usage:
//
//	chaosbench [-system prema-implicit] [-figs 3,4,5,6] \
//	           [-procs 32] [-units-per-proc 32] [-shards S] [-wire] \
//	           [-fault-plan "drop=0.2,dup=0.1"] [-fault-seed 1] \
//	           [-rto 50ms] [-backend sim|real|dist] [-timescale 1e-2] \
//	           [-nodes N -dist-listen HOST:PORT] [-premad PATH] [-dist-attach] \
//	           [-recover] [-checkpoint-interval 1s] [-lease-timeout 500ms] \
//	           [-trace trace.json] [-metrics metrics.txt]
//
// Everything but -figs is a shared flag: one declaration in internal/bench's
// flag table (run with -h for the help texts), one compatibility check
// (bench.RunSpec.Validate; the "what composes with what" matrix is in
// DESIGN.md). A combination the matrix rejects exits 2 before anything runs.
//
// For each figure scenario it runs three configurations:
//
//	clean      classic fire-and-forget DMCS, no faults (the baseline)
//	reliable   reliable delivery, no faults (protocol overhead measurement)
//	faulted    reliable delivery on the faulted machine (the chaos run)
//
// and reports makespans, the reliable-mode overhead on a fault-free network,
// retransmission counts, injected-fault counts, and the conservation check.
// A classic (unreliable) stack on the same fault plan would lose units; the
// point of the harness is that the reliable stack does not. Exits non-zero
// if any run fails conservation or the application outcome diverges from
// the clean run.
//
// -recover arms the crash-recovery subsystem on the reliable and faulted
// legs. With no crash in the plan it leaves the reliable leg byte-identical:
// the checkpoint costs accrue silently and only hit the ledgers once a crash
// verdict fires. -trace/-metrics write one file per leg, suffixing
// figN.label (clean, reliable, faulted) before the extension.
//
// On -backend=dist each leg is a full multi-process session (with
// -dist-attach the daemons must serve three sessions per figure). The fault
// plan is shipped to every node and injected at its local substrate seam,
// so the injected-fault counts stay node-local; the cross-process ground
// truth reported is conservation and the unit totals merged from every
// node's partial result.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"prema/internal/bench"
	"prema/internal/faulty"
	"prema/internal/substrate"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	// The template is the faulted leg; the other two legs strip it down.
	spec := bench.RunSpec{
		System:       "prema-implicit",
		W:            bench.Workload{Procs: 32},
		UnitsPerProc: 32,
		TimeScale:    1e-2,
		Reliable:     true,
		RTO:          substrate.FromDuration(50 * time.Millisecond),
		FaultPlan:    "drop=0.2,dup=0.1",
		FaultSeed:    1,
	}.WithDefaults()
	fs := flag.NewFlagSet("chaosbench", flag.ContinueOnError)
	spec.BindFlags(fs, `system procs units-per-proc shards wire
		backend timescale nodes dist-listen premad dist-attach
		fault-plan fault-seed rto recover checkpoint-interval lease-timeout
		trace metrics trace-ring`)
	figs := fs.String("figs", "3,4,5,6", "comma-separated paper figure scenarios to run")
	var specs []bench.FigureSpec
	local := func() error {
		for _, f := range strings.Split(*figs, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return fmt.Errorf("bad figure %q in -figs", f)
			}
			fig, err := bench.FigureByID(id)
			if err != nil {
				return err
			}
			specs = append(specs, fig)
		}
		if len(spec.Systems()) != 1 {
			return errors.New("-system takes exactly one configuration")
		}
		if spec.Backend == bench.BackendDist && (spec.TracePath != "" || spec.MetricsPath != "") {
			return errors.New("-trace and -metrics apply to the in-process backends; use premabench -backend=dist -trace for per-node timelines")
		}
		return nil
	}
	if code, done := spec.ParseFlags(fs, args, stderr, local); done {
		return code
	}

	failed := false
	for _, fig := range specs {
		s := spec.ForFigure(fig)
		fmt.Fprintf(stdout, "=== Figure %d scenario: imbalance %.0f%%, heavy = %.1fx light (procs=%d, units=%d, backend=%s) ===\n",
			fig.ID, fig.Imbalance*100, fig.Ratio, s.W.Procs, s.W.Units, s.Backend)
		ok, err := triple(stdout, s, fig.ID)
		if err != nil {
			fmt.Fprintln(stderr, "chaosbench:", err)
		}
		failed = failed || !ok || err != nil
		fmt.Fprintln(stdout)
	}
	if failed {
		return 1
	}
	return 0
}

// triple executes the clean / reliable / faulted triple of one scenario and
// prints the comparison. ok is false if any check failed.
func triple(stdout io.Writer, faulted bench.RunSpec, fig int) (ok bool, err error) {
	ok = true
	leg := func(label string, s bench.RunSpec) (*bench.Result, error) {
		r, err := s.Run()
		if r == nil {
			return nil, err
		}
		// A run that broke conservation comes back with its result and an
		// error; report prints the FAIL line for it, so err is dropped here.
		report(stdout, label, r, &ok)
		return r, s.ExportTrace(stdout, "  ", r, fmt.Sprintf("fig%d.%s", fig, label))
	}

	// Recovery rides on reliable delivery, so it arms on the reliable leg
	// (and the faulted leg, which inherits).
	reliable := faulted
	reliable.FaultPlan = ""
	cleanSpec := reliable
	cleanSpec.Reliable, cleanSpec.Recover = false, false

	clean, err := leg("clean", cleanSpec)
	if err != nil {
		return false, err
	}
	rel, err := leg("reliable", reliable)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "  reliable-mode overhead on a fault-free network: %+.2f%% of makespan\n", pctOver(rel, clean))

	if plan, _ := faulty.ParsePlan(faulted.FaultPlan); plan.Active() { // Validate has parsed it
		f, err := leg("faulted", faulted)
		if err != nil {
			return false, err
		}
		if f.Counters["units_run"] != clean.Counters["units_run"] {
			fmt.Fprintf(stdout, "  FAIL: faulted run computed %d units, clean run %d\n",
				f.Counters["units_run"], clean.Counters["units_run"])
			ok = false
		}
		reportRecovery(stdout, f, clean)
	}
	return ok, nil
}

// pctOver is r's makespan inflation over base, in percent.
func pctOver(r, base *bench.Result) float64 {
	return 100 * (r.Makespan.Seconds() - base.Makespan.Seconds()) / base.Makespan.Seconds()
}

// reportRecovery prints the crash-recovery ledger for the faulted leg: what
// the failure detector, directory repair, and replay did, and what the
// checkpoints cost relative to the clean run. Prints nothing unless a crash
// verdict actually fired, so fault plans without fail-stops keep their
// output.
func reportRecovery(stdout io.Writer, fRes, clean *bench.Result) {
	rs := fRes.Recov
	if rs == nil || rs.Suspects == 0 {
		return
	}
	fmt.Fprintf(stdout, "  recovery: suspects=%d objects_restored=%d replayed=%d units_skipped=%d lost_units=%d rejoins=%d\n",
		rs.Suspects, rs.ObjectsRecovered, rs.EnvelopesReplayed, rs.UnitsSkipped,
		fRes.Counters["recov_lost_units"], rs.Rejoins)
	perProc := rs.Charged.Seconds() / float64(fRes.W.Procs)
	fmt.Fprintf(stdout, "  checkpoints: %d rounds, %d objects, %d bytes; cost %.4fs/proc = %.2f%% of clean makespan\n",
		rs.Checkpoints, rs.CheckpointObjects, rs.CheckpointBytes,
		perProc, 100*perProc/clean.Makespan.Seconds())
	fmt.Fprintf(stdout, "  recovered-run makespan inflation: %+.2f%% vs clean\n", pctOver(fRes, clean))
}

// report prints one run's line and applies the conservation check.
func report(stdout io.Writer, label string, r *bench.Result, ok *bool) {
	fmt.Fprintf(stdout, "  %-9s makespan=%9.1fs  units=%d  retransmits=%d  dup_dropped=%d",
		label, r.Makespan.Seconds(), r.Counters["units_run"],
		r.Counters["rel_retransmits"], r.Counters["rel_dup_dropped"])
	if st := r.Faults; st != (faulty.Stats{}) {
		fmt.Fprintf(stdout, "  [injected: dropped=%d dupped=%d delayed=%d reordered=%d stalls=%d]",
			st.Dropped, st.Dupped, st.Delayed, st.Reordered, st.Stalls)
	}
	if err := r.CheckConservation(); err != nil {
		fmt.Fprintf(stdout, "\n  FAIL: %v\n", err)
		*ok = false
		return
	}
	fmt.Fprintln(stdout, "  conservation OK")
}
