// Command meshgen runs the paper's mesh-generation experiment (§5): the 3-D
// advancing front mesher with a crack sweeping through the domain, under
// three regimes — no load balancing, PREMA with implicit work stealing, and
// root-coordinated stop-and-repartition. The paper reports PREMA 15% faster
// than stop-and-repartition and 42% faster than no balancing, with runtime
// overheads under 1% of total runtime.
//
// Usage:
//
//	meshgen [-procs 32] [-iters 12] [-real] [-stride 4] [-jobs J]
//
// -real runs the actual advancing front mesher for every
// (subdomain, crack position) pair to build the workload matrix (slower);
// the default uses the analytic element estimator, which tracks the mesher's
// counts closely.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"prema/internal/bench"
	"prema/internal/sim"
	"prema/internal/sweep"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("meshgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	procs := fs.Int("procs", 32, "simulated processors")
	iters := fs.Int("iters", 12, "crack growth iterations")
	real := fs.Bool("real", false, "run the real advancing front mesher for the cost matrix")
	stride := fs.Int("stride", 0, "per-processor breakdown sampling stride (0 = summaries only)")
	jobs := fs.Int("jobs", sweep.DefaultJobs(), "max concurrent subdomain meshes / simulations (1 = serial)")
	err := fs.Parse(args)
	switch {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		return 2 // the flag package has reported it
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected arguments: %v", fs.Args())
	case *procs < 1 || *iters < 1:
		err = fmt.Errorf("-procs and -iters must be positive (got %d, %d)", *procs, *iters)
	case *stride < 0:
		err = fmt.Errorf("-stride must be >= 0 (got %d)", *stride)
	case *jobs < 1:
		err = fmt.Errorf("-jobs must be >= 1 (got %d)", *jobs)
	}
	if err != nil {
		fmt.Fprintf(stderr, "meshgen: %v\n", err)
		return 2
	}

	cfg := bench.DefaultMeshExpConfig()
	cfg.Procs = *procs
	cfg.Iterations = *iters
	cfg.UseMesher = *real

	src := "estimator"
	if *real {
		src = "advancing front mesher"
	}
	fmt.Fprintf(stdout, "building workload matrix (%s): %d subdomains x %d iterations...\n",
		src, cfg.NumSubdomains(), cfg.Iterations)
	mc := bench.BuildMeshCostsJobs(cfg, *jobs)
	fmt.Fprintf(stdout, "total work %v, ideal makespan %v on %d procs\n\n",
		mc.TotalWork(cfg), mc.TotalWork(cfg)/sim.Time(cfg.Procs), cfg.Procs)

	results, err := bench.RunMeshSystems(bench.MeshSystems, cfg, mc, *jobs)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	for i, r := range results {
		fmt.Fprintf(stdout, "  %-15s makespan=%8.1fs  overhead=%6.3f%% of runtime  sync+partition=%5.1f%% of compute\n",
			bench.MeshSystems[i], r.Makespan.Seconds(), r.OverheadOfRuntimePct(), r.SyncPct())
		if *stride > 0 {
			fmt.Fprintln(stdout, r.Breakdown(*stride))
		}
	}
	none, prema, repart := results[0], results[1], results[2]
	fmt.Fprintf(stdout, "\nPREMA vs no balancing:        %+.1f%%  (paper: -42%%)\n",
		100*(prema.Makespan.Seconds()-none.Makespan.Seconds())/none.Makespan.Seconds())
	fmt.Fprintf(stdout, "PREMA vs stop-and-repartition: %+.1f%%  (paper: -15%%)\n",
		100*(prema.Makespan.Seconds()-repart.Makespan.Seconds())/repart.Makespan.Seconds())
	fmt.Fprintf(stdout, "PREMA overhead:                %.3f%% of total runtime (paper: <1%%)\n",
		prema.OverheadOfRuntimePct())
	return 0
}
