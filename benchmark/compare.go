package main

import (
	"fmt"
	"io"
)

// verdict judges one end-to-end metric of one workload, old against new.
// A spread (IQR over median, either side) wider than the bound means the
// runs cannot tell: the row is unresolved, never "same".
func verdict(old, new stat, better string, bound float64) string {
	if old.Median == 0 {
		return "unresolved"
	}
	if ratio(old.IQR, old.Median) > bound || ratio(new.IQR, new.Median) > bound {
		return "unresolved"
	}
	delta := (new.Median - old.Median) / old.Median
	if better == "higher" {
		delta = -delta
	}
	switch {
	case delta > bound:
		return "worse"
	case delta < -bound:
		return "better"
	}
	return "same"
}

// exactCounts are per-layer counts that repeat exactly on the simulator; a
// change in one is not a regression by itself but says the program computed
// something else.
var exactCounts = []string{"sim.events", "policy.steal_requests"}

// compare prints one row per (workload, end-to-end metric) and reports
// whether anything got worse.
func compare(w io.Writer, old, new *record) (bad bool) {
	fmt.Fprintf(w, "%-17s %-20s %12s %12s %8s %6s  %s\n", "workload", "metric", "old", "new", "delta", "bound", "verdict")
	for _, wl := range workloads {
		o, n := old.Workloads[wl.name], new.Workloads[wl.name]
		if o == nil || n == nil {
			fmt.Fprintf(w, "%-17s missing from one record\n", wl.name)
			bad = true
			continue
		}
		for _, d := range endToEnd {
			if d.Name != "setup_s" { // one per record, below
				bad = compareRow(w, wl.name, d, o.EndToEnd[d.Name], n.EndToEnd[d.Name]) || bad
			}
		}
		if n.FailedShare > o.FailedShare {
			fmt.Fprintf(w, "%-17s %-20s %12.6g %12.6g  worse: more work units failed\n", wl.name, "failed_share", o.FailedShare, n.FailedShare)
			bad = true
		}
		if o.Hash != n.Hash {
			fmt.Fprintf(w, "%-17s note: result hash changed %s -> %s (makespan, counters or accounts differ)\n", wl.name, o.Hash, n.Hash)
		}
		if o.Hash == "" {
			continue // wall-clock backend: no count repeats exactly
		}
		for _, name := range exactCounts {
			if a, b := o.PerLayer[name].Median, n.PerLayer[name].Median; a != b {
				fmt.Fprintf(w, "%-17s note: %s changed %.0f -> %.0f (%+.1f %% of %.0f)\n", wl.name, name, a, b, 100*ratio(b-a, a), a)
			}
		}
	}
	setup := endToEnd[len(endToEnd)-1] // setup_s, by the table's order (TestManifest checks it is there)
	return compareRow(w, "(all)", setup, old.SetupS, new.SetupS) || bad
}

func compareRow(w io.Writer, workload string, d boundedDef, old, new stat) bool {
	v := verdict(old, new, d.Better, d.Bound)
	fmt.Fprintf(w, "%-17s %-20s %12.6g %12.6g %+7.1f%% %5.0f%%  %s", workload, d.Name, old.Median, new.Median,
		100*ratio(new.Median-old.Median, old.Median), 100*d.Bound, v)
	if v == "unresolved" {
		fmt.Fprintf(w, " (IQR %.1f %% of %.6g, %.1f %% of %.6g)", 100*ratio(old.IQR, old.Median), old.Median, 100*ratio(new.IQR, new.Median), new.Median)
	}
	fmt.Fprintln(w)
	return v == "worse"
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare OLD.json NEW.json")
		return 2
	}
	var recs [2]*record
	for i, path := range args {
		rec, err := readRecord(path)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark compare:", err)
			return 2
		}
		if rec.Host.Quick {
			fmt.Fprintf(stderr, "benchmark compare: %s is a -quick record; quick runs are smoke tests, not measurements\n", path)
			return 2
		}
		recs[i] = rec
	}
	if compare(stdout, recs[0], recs[1]) {
		return 1
	}
	return 0
}
