// Command benchmark is the repository's one performance benchmark: seven
// fixed workloads, measured end to end with tracing off and then, in a
// separate probed run, layer by layer. See README.md in this directory.
//
//	go run ./benchmark -seed 1                       the whole suite, interleaved rounds
//	go run ./benchmark compare OLD.json NEW.json     two suite records against the bounds
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                                 one workload, one JSON result line
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// setupReps is how often set-up is repeated so setup_s is a median too.
const setupReps = 5

// buildDir is where premad is built: next to the benchmark's own binary when
// run.sh built it, and git-ignored either way.
const buildDir = ".bench_build/bin"

// hardLimit ends a run that hangs before anything outside has to: a lost
// premad or a deadlocked machine must not outlive the caller's patience.
const hardLimit = 170 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	var (
		name     = flag.String("workload", "", "measure this one workload and print one JSON result line (default: the whole suite)")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", runSeconds, "with -workload: how long to measure")
		trace    = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = per-layer metrics from probed runs")
		reps     = flag.Int("reps", 5, "suite: interleaved rounds of timed runs")
		quick    = flag.Bool("quick", false, "every workload at an eighth of its size, one round; for smoke tests, refused by compare")
		out      = flag.String("out", "", "suite: output record (default benchmark/out/seed<seed>.json)")
		printMan = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *printMan {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.SetEscapeHTML(false)
		if err := enc.Encode(buildManifest()); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() > 0 || *seconds <= 0 || *reps < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	cal, err := newCalibration()
	if err != nil {
		fatal(fmt.Errorf("reference kernel: %w", err))
	}
	e := &env{seed: *seed, quick: *quick, progress: os.Stdout, cal: cal}
	if *name != "" {
		wl, err := workloadByName(*name)
		if err != nil {
			fatal(err)
		}
		time.AfterFunc(hardLimit, func() { fatal(fmt.Errorf("%s: still running after %v", wl.name, hardLimit)) })
		os.Exit(e.single(wl, *seconds, *trace == 1))
	}
	if *quick {
		*reps = 1
	}
	if *out == "" {
		*out = fmt.Sprintf("benchmark/out/seed%d.json", *seed)
	}
	os.Exit(e.suite(*reps, *out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// result is the one line a single-workload run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// single measures one workload for about seconds and prints its metrics:
// the end-to-end set from unprobed runs, or the per-layer set from a few
// unprobed runs, probed runs and the workload's micro-probes.
func (e *env) single(wl *workload, seconds float64, traced bool) int {
	if wl.backend == "dist" {
		if err := e.buildPremad(buildDir); err != nil {
			fatal(err)
		}
	}
	// Per-layer numbers describe one input; end-to-end medians span them all.
	inputs := subSeeds
	if traced {
		inputs = 1
	}
	var (
		s      *samples
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		var (
			sec float64
			err error
		)
		if s, sec, err = e.setUp(wl, inputs); err != nil {
			fatal(fmt.Errorf("set-up: %w", err))
		}
		setups = append(setups, sec)
	}
	budget := time.Duration(seconds * float64(time.Second))
	if traced {
		budget = budget * 3 / 10 // then probed runs, then micro-probes
	}
	// Every input at least once; then as many runs as end within the budget,
	// judging the next by the last.
	start := time.Now()
	var last time.Duration
	for runs := 0; ; runs++ {
		if runs >= max(inputs, 2) && time.Since(start)+last > budget {
			break
		}
		t0 := time.Now()
		s.timedRun(e)
		last = time.Since(t0)
	}
	e.checkPeer(s)

	metrics := map[string]stat{}
	var layerErr error
	if traced {
		var rep *layerReport
		rep, layerErr = e.layers(s, budget)
		for _, d := range perLayer {
			metrics[d.Name] = stat{Unit: d.Unit}
			if st, ok := rep.metrics[d.Name]; ok {
				metrics[d.Name] = st
			}
		}
	} else {
		metrics = s.endToEnd(e.cal)
		metrics["setup_s"] = e.cal.scaled(wl, summarize(setups, "s"))
		fmt.Printf("%-17s host was %.3f x the calm reference over %d samples; raw wall_s median %.6g s\n",
			wl.name, e.cal.slowdown(), len(e.cal.samples), s.summary("s", wallOf).Median)
	}
	printStats(wl.name, metrics)
	for _, msg := range s.errs {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED:", msg)
	}
	if layerErr != nil {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED:", layerErr)
	}
	res := result{
		Correct:   s.failed == 0 && layerErr == nil && len(s.runs) > 0,
		Attempted: s.attempted,
		Failed:    s.failed,
		Metrics:   map[string]resultValue{},
	}
	for name, st := range metrics {
		res.Metrics[name] = resultValue{st.Median, st.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// checkPeer holds a workload to its hash peer: the same inputs on a
// differently configured engine must compute the identical result.
func (e *env) checkPeer(s *samples) {
	if s.wl.hashPeer == "" || s.first[0] == nil {
		return
	}
	err := func() error {
		peer, err := workloadByName(s.wl.hashPeer)
		if err != nil {
			return err
		}
		in, err := peer.generate(e.seed, 0, e.quick)
		if err != nil {
			return err
		}
		o, err := in.run(e.premad, nil)
		if err != nil {
			return err
		}
		if o.hash != s.first[0].hash {
			return fmt.Errorf("%s: result hash %s, but %s computed %s from the same input", s.wl.name, s.first[0].hash, peer.name, o.hash)
		}
		return nil
	}()
	s.attempted += s.ins[0].w.Units
	if err != nil {
		s.failed += s.ins[0].w.Units
		s.errs = append(s.errs, err.Error())
	}
}

// printStats prints one line per metric: name, median, unit, n and spread.
func printStats(workload string, metrics map[string]stat) {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := metrics[name]
		fmt.Printf("%-17s %-27s %14.6g %-5s n=%-3d min=%.6g max=%.6g iqr=%.3g mad=%.3g\n",
			workload, name, st.Median, st.Unit, st.N, st.Min, st.Max, st.IQR, st.MAD)
	}
}
