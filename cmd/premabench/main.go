// Command premabench runs configurations of the paper's synthetic
// microbenchmark (§5) and prints the per-processor time breakdowns.
//
// Usage:
//
//	premabench -system prema-implicit -imbalance 0.5 -ratio 2.0 \
//	           [-procs 128] [-units-per-proc 128] [-stride 8] [-hints mean] \
//	           [-jobs J] [-shards S] \
//	           [-backend sim|real|dist] [-timescale 1e-3] [-wire] \
//	           [-nodes N -dist-listen HOST:PORT] [-premad PATH] [-dist-attach] \
//	           [-fault-plan PLAN] [-fault-seed N] [-reliable] \
//	           [-recover] [-checkpoint-interval 1s] [-lease-timeout 500ms] \
//	           [-trace trace.json] [-metrics metrics.txt] [-trace-ring N]
//
// Everything but -imbalance, -ratio and -hints is a shared flag: one
// declaration in internal/bench's flag table (run with -h for the help
// texts), one compatibility check (bench.RunSpec.Validate; the "what
// composes with what" matrix is in DESIGN.md). A combination the matrix
// rejects exits 2 before anything runs.
//
// -system also accepts a comma-separated list (multi-system mode): the named
// configurations all run on the same workload — up to -jobs simulations in
// flight, wall-clock runs (-backend real|dist) one after another — and the
// summaries print in the order given. -trace and -metrics
// then insert the system name before the file extension. For dedicated
// chaos sweeps over the paper figures see cmd/chaosbench.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"prema/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	spec := bench.RunSpec{
		System:       "prema-implicit",
		W:            bench.Workload{Procs: 128},
		UnitsPerProc: 128,
		Stride:       8,
		TimeScale:    1e-3,
		FaultSeed:    1,
	}.WithDefaults()
	fs := flag.NewFlagSet("premabench", flag.ContinueOnError)
	spec.BindFlags(fs, `system procs units-per-proc stride jobs shards wire
		backend timescale nodes dist-listen premad dist-attach
		fault-plan fault-seed reliable recover checkpoint-interval lease-timeout
		trace metrics trace-ring`)
	imb := fs.Float64("imbalance", 0.5, "initial imbalance percentage (fraction of heavy units)")
	ratio := fs.Float64("ratio", 2.0, "heavy/light weight ratio")
	hints := fs.String("hints", "mean", "weight hints given to balancers: mean | accurate")
	hintMode := map[string]bench.HintMode{"mean": bench.HintMean, "accurate": bench.HintAccurate}
	checkLocal := func() error {
		if _, ok := hintMode[*hints]; !ok {
			return fmt.Errorf("unknown -hints %q (want mean or accurate)", *hints)
		}
		// NaN fails every comparison, so both ranges are written to refuse it.
		if !(*imb >= 0 && *imb <= 1) {
			return fmt.Errorf("-imbalance must be a fraction in [0, 1], got %v", *imb)
		}
		if !(*ratio > 0 && *ratio <= math.MaxFloat64) {
			return fmt.Errorf("-ratio must be positive and finite, got %v", *ratio)
		}
		return nil
	}
	if code, done := spec.ParseFlags(fs, args, stderr, checkLocal); done {
		return code
	}
	spec = spec.ForFigure(bench.FigureSpec{Imbalance: *imb, Ratio: *ratio})
	spec.W.Hints = hintMode[*hints]

	results, err := spec.RunAll()
	if err != nil {
		fmt.Fprintln(stderr, "premabench:", err)
		return 1
	}
	for _, r := range results {
		fmt.Fprintln(stdout, r.Summary())
	}
	for _, r := range results {
		if spec.Stride > 0 {
			fmt.Fprintln(stdout)
			fmt.Fprintln(stdout, r.Breakdown(spec.Stride))
		}
		if len(r.Counters) > 0 {
			fmt.Fprintf(stdout, "counters (%s): %v\n", r.System, r.Counters)
		}
	}
	for _, r := range results {
		suffix := ""
		if len(results) > 1 {
			suffix = r.System
		}
		if err := spec.ExportTrace(stdout, "", r, suffix); err != nil {
			fmt.Fprintln(stderr, "premabench:", err)
			return 1
		}
	}
	return 0
}
