// Command figures regenerates the paper's benchmark figures (3-6) and the
// derived scalar claims of §5 on the simulated 128-processor cluster.
//
// Usage:
//
//	figures [-fig N] [-procs P] [-units-per-proc U] [-stride S] [-jobs J] \
//	        [-shards S] [-wire] \
//	        [-csv DIR] [-trace trace.json] [-metrics metrics.txt]
//
// Everything but -fig and -csv is a shared flag: one declaration in
// internal/bench's flag table (run with -h for the help texts), one
// compatibility check (bench.RunSpec.Validate; the "what composes with
// what" matrix is in DESIGN.md). A combination the matrix rejects exits 2
// before anything runs.
//
// With no -fig, all four figures run. -stride 0 suppresses the per-processor
// breakdown tables (the summary lines always print). -fig 1 prints the
// paper's Figure 1 taxonomy table.
//
// The 24 simulations of the full sweep are independent; -jobs fans them out
// across cores. -shards runs each simulation's event loop on that many
// shards; it changes no output and is not a speedup (two shards take about
// twice the serial wall time — the benchmark's sim.s2_speedup row).
// -wire, -trace and -metrics apply to the PREMA systems of each figure (the
// baselines, which have no codecs, run as usual); the trace and metrics
// files are written per (figure, system), suffixing figN.system before the
// extension. Output is byte-identical for any -jobs, -shards, -wire and
// -trace values.
//
// figures runs the simulator only. A figure's transport-backed systems on
// the distributed backend are one premabench invocation:
// premabench -system none,prema-explicit,prema-implicit -backend dist ...
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"prema/internal/bench"
)

const taxonomy = `Figure 1 — Using synchronization as a criterion for system classification

  Synchronization model   Initiation             Dissemination  Systems
  ----------------------  ---------------------  -------------  -----------------------------------------
  (loosely) synchronous   stop-and-repartition   explicit       Zoltan, DRAMA, METIS, ParMETIS
  asynchronous            poll-driven            explicit       PREMA + explicit polling, Charm++
  asynchronous            interrupt-driven       implicit       PREMA + interrupts (this paper's approach)
`

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	spec := bench.RunSpec{
		W:            bench.Workload{Procs: 128},
		UnitsPerProc: 128,
		Stride:       8,
	}.WithDefaults()
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	spec.BindFlags(fs, `procs units-per-proc stride jobs shards wire
		trace metrics trace-ring`)
	fig := fs.Int("fig", 0, "figure to regenerate (3-6; 1 prints the taxonomy; 0 = all benchmarks)")
	csvDir := fs.String("csv", "", "directory to write per-system breakdown CSVs into (plots)")
	var specs []bench.FigureSpec
	local := func() error {
		switch {
		case *fig == 0:
			specs = bench.Figures()
		case *fig != 1:
			f, err := bench.FigureByID(*fig)
			if err != nil {
				return err
			}
			specs = []bench.FigureSpec{f}
		}
		return nil
	}
	if code, done := spec.ParseFlags(fs, args, stderr, local); done {
		return code
	}
	if *fig == 1 {
		fmt.Fprint(stdout, taxonomy)
		return 0
	}
	if err := runFigures(stdout, spec, specs, *csvDir); err != nil {
		fmt.Fprintln(stderr, "figures:", err)
		return 1
	}
	return 0
}

// runFigures runs the simulator sweep: every report (and CSV), then the
// trace and metrics files of the runs that recorded one.
func runFigures(stdout io.Writer, spec bench.RunSpec, specs []bench.FigureSpec, csvDir string) error {
	runs, err := bench.RunFigures(specs, spec)
	if err != nil {
		return err
	}
	for _, fr := range runs {
		fmt.Fprintln(stdout, fr.Report(spec.Stride))
		if err := writeCSVs(stdout, csvDir, fr.Spec.ID, fr.Results); err != nil {
			return err
		}
	}
	for _, fr := range runs {
		for _, r := range fr.Results {
			if err := spec.ExportTrace(stdout, "", r, fmt.Sprintf("fig%d.%s", fr.Spec.ID, r.System)); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeCSVs dumps one breakdown CSV per result into dir ("" = none).
func writeCSVs(stdout io.Writer, dir string, figID int, results []*bench.Result) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, r := range results {
		path := filepath.Join(dir, fmt.Sprintf("fig%d_%s.csv", figID, r.System))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := r.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
	}
	return nil
}
