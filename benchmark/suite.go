package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// record is the suite's output file: one stable schema, compared by
// `benchmark compare`.
type record struct {
	Schema    string                     `json:"schema"`
	Host      hostInfo                   `json:"host"`
	SetupS    stat                       `json:"setup_s"`
	Workloads map[string]*workloadRecord `json:"workloads"`
}

const recordSchema = "prema-benchmark/1"

// suiteProbeBudget is how long the suite keeps probing one workload: a few
// probed runs under one CPU profile (a quick run makes one).
const suiteProbeBudget = 3 * time.Second

type workloadRecord struct {
	Units       int                `json:"units"`
	Hash        string             `json:"result_hash"` // "" on the wall-clock backend
	FailedShare float64            `json:"failed_share"`
	Errors      []string           `json:"errors,omitempty"`
	EndToEnd    map[string]stat    `json:"end_to_end"`
	PerLayer    map[string]stat    `json:"per_layer"`
	Profile     map[string]float64 `json:"cpu_profile_shares,omitempty"`
	Spans       []spanRow          `json:"spans,omitempty"`
}

// hostInfo is the record's host block.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Reps       int    `json:"reps"`
	Quick      bool   `json:"quick"`
}

func (e *env) host(reps int) hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		Seed:       e.seed,
		Reps:       reps,
		Quick:      e.quick,
	}
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// suite runs every workload, prints every metric and writes the record.
func (e *env) suite(reps int, out string) int {
	if err := e.buildPremad(buildDir); err != nil {
		fatal(err)
	}
	rec, err := e.runSuite(reps)
	if err != nil {
		fatal(err)
	}
	failed := false
	for _, wl := range workloads {
		wr := rec.Workloads[wl.name]
		printStats(wl.name, wr.EndToEnd)
		fmt.Printf("%-17s %-27s %14.6g ratio\n", wl.name, "failed_share", wr.FailedShare)
		printStats(wl.name, wr.PerLayer)
		for _, msg := range wr.Errors {
			failed = true
			fmt.Fprintln(os.Stderr, "benchmark: FAILED:", msg)
		}
	}
	printStats("(all)", map[string]stat{"setup_s": rec.SetupS})
	if err := writeRecord(out, rec); err != nil {
		fatal(err)
	}
	fmt.Println("record:", out)
	if failed {
		return 1
	}
	return 0
}

// runSuite measures every workload on its first input: set-up, reps
// interleaved rounds of timed runs (round r runs each workload once, in table
// order, so slow host drift hits all of them alike), then the layers phase,
// one workload at a time. One input keeps every row of a record about one
// deterministic computation: its spread is run-to-run noise and nothing
// else, and two records of one seed compare exactly.
func (e *env) runSuite(reps int) (*record, error) {
	var (
		all    []*samples
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		all = all[:0]
		total := 0.0
		for w := range workloads {
			s, sec, err := e.setUp(&workloads[w], 1)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			all = append(all, s)
			total += sec
		}
		setups = append(setups, total)
	}
	for r := 0; r < reps; r++ {
		for _, s := range all {
			t0 := time.Now()
			s.timedRun(e)
			fmt.Fprintf(e.progress, "round %d  %-17s %.3f s\n", r+1, s.wl.name, time.Since(t0).Seconds())
		}
	}
	rec := &record{Schema: recordSchema, Host: e.host(reps), SetupS: e.cal.scaled(nil, summarize(setups, "s")), Workloads: map[string]*workloadRecord{}}
	for _, s := range all {
		e.checkPeer(s)
		rep, err := e.layers(s, suiteProbeBudget)
		if err != nil {
			s.errs = append(s.errs, err.Error())
		}
		wr := &workloadRecord{
			Units:       s.ins[0].w.Units,
			Hash:        s.hash(),
			FailedShare: ratio(float64(s.failed), float64(s.attempted)),
			Errors:      s.errs,
			EndToEnd:    s.endToEnd(e.cal),
			PerLayer:    rep.metrics,
			Profile:     rep.profile,
			Spans:       rep.spans,
		}
		wr.EndToEnd["units_per_s"] = summarize([]float64{ratio(float64(wr.Units), wr.EndToEnd["wall_s"].Median)}, "1/s")
		rec.Workloads[s.wl.name] = wr
	}
	return rec, nil
}

func writeRecord(path string, rec *record) error {
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rec := &record{}
	if err := json.Unmarshal(b, rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rec.Schema != recordSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rec.Schema, recordSchema)
	}
	return rec, nil
}
