// Command tracestat summarizes a Chrome trace_event JSON file produced by
// the internal/trace exporter (premabench/figures/chaosbench -trace): the
// per-processor time breakdown by phase, migration traffic, forwarding-chain
// lengths, and work-unit duration percentiles — the drilldown behind the
// paper's idle-time and overhead claims, without opening Perfetto.
//
// Usage:
//
//	tracestat [-stride N] trace.json
//
// -stride samples the per-processor table (0 = totals only, 1 = every
// processor). Exits 2 on flag errors, 1 if the file is not a Chrome trace.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"prema/internal/stats"
)

// tev is the subset of a Chrome trace_event record tracestat reads.
type tev struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Tid  int     `json:"tid"`
	Ts   float64 `json:"ts"`  // microseconds
	Dur  float64 `json:"dur"` // microseconds
	Args struct {
		Hops *float64 `json:"hops"` // forward events only
	} `json:"args"`
}

// errNoEvents is a well-formed file with no trace events in it.
var errNoEvents = errors.New("no traceEvents in file")

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracestat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	stride := fs.Int("stride", 1, "per-processor table sampling stride (0 = totals only)")
	switch err := fs.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		return 2 // the flag package has reported it
	}

	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "tracestat: exactly one trace file argument required")
		return 2
	}
	if *stride < 0 {
		fmt.Fprintf(stderr, "tracestat: -stride must be >= 0 (got %d)\n", *stride)
		return 2
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "tracestat:", err)
		return 1
	}
	defer f.Close()
	switch err := summarize(stdout, f, *stride); {
	case errors.Is(err, errNoEvents):
		fmt.Fprintln(stderr, "tracestat:", err)
		return 1
	case err != nil:
		fmt.Fprintln(stderr, "tracestat: not a Chrome trace:", err)
		return 1
	}
	return 0
}

// eachEvent streams the traceEvents array of the Chrome trace JSON in r,
// decoding each element into one reused tev, zeroed first, and returns how
// many there were. The rest of the document is checked, not kept.
func eachEvent(r io.Reader, fn func(*tev)) (int, error) {
	dec := json.NewDecoder(r)
	if tok, err := dec.Token(); err != nil {
		return 0, err
	} else if tok != json.Delim('{') {
		return 0, fmt.Errorf("top-level value is %v, not an object", tok)
	}
	n := 0
	var e tev
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return n, err
		}
		if key != "traceEvents" {
			var skip json.RawMessage
			if err := dec.Decode(&skip); err != nil {
				return n, err
			}
			continue
		}
		switch tok, err := dec.Token(); {
		case err != nil:
			return n, err
		case tok == nil: // null: no events
			continue
		case tok != json.Delim('['):
			return n, fmt.Errorf("traceEvents is %v, not an array", tok)
		}
		for dec.More() {
			e = tev{}
			if err := dec.Decode(&e); err != nil {
				return n, err
			}
			fn(&e)
			n++
		}
		if _, err := dec.Token(); err != nil { // ']'
			return n, err
		}
	}
	if _, err := dec.Token(); err != nil { // '}'
		return n, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return n, errors.New("data after the trace object")
	}
	return n, nil
}

// procStat accumulates one processor's row.
type procStat struct {
	phases     map[string]float64 // seconds per phase name
	units      int
	unitS      []float64
	migOut     int
	migIn      int
	forwards   int
	sends      int
	retransmit int
	ckpt       int
	suspects   int
	repairs    int
	replays    int
}

// summarize reads the trace in r and prints its summary to w; it prints
// nothing when the trace is malformed or empty.
func summarize(w io.Writer, r io.Reader, stride int) error {
	procs := map[int]*procStat{}
	get := func(tid int) *procStat {
		p := procs[tid]
		if p == nil {
			p = &procStat{phases: map[string]float64{}}
			procs[tid] = p
		}
		return p
	}
	phaseNames := map[string]bool{}
	var hops []float64
	var end float64
	firstSuspect, lastRepair := -1.0, -1.0
	events, err := eachEvent(r, func(e *tev) {
		if t := e.Ts + e.Dur; t > end {
			end = t
		}
		switch {
		case e.Ph == "X" && e.Cat == "phase":
			get(e.Tid).phases[e.Name] += e.Dur / 1e6
			phaseNames[e.Name] = true
		case e.Ph == "X" && e.Name == "unit":
			p := get(e.Tid)
			p.units++
			p.unitS = append(p.unitS, e.Dur/1e6)
		case e.Ph == "i":
			p := get(e.Tid)
			switch e.Name {
			case "migrate-out":
				p.migOut++
			case "migrate-in":
				p.migIn++
			case "forward":
				p.forwards++
				if e.Args.Hops != nil {
					hops = append(hops, *e.Args.Hops)
				}
			case "send":
				p.sends++
			case "retransmit":
				p.retransmit++
			case "checkpoint":
				p.ckpt++
			case "suspect":
				p.suspects++
				if firstSuspect < 0 || e.Ts < firstSuspect {
					firstSuspect = e.Ts
				}
			case "repair":
				p.repairs++
				if e.Ts > lastRepair {
					lastRepair = e.Ts
				}
			case "replay":
				p.replays++
				if e.Ts > lastRepair {
					lastRepair = e.Ts
				}
			}
		}
	})
	switch {
	case err != nil:
		return err
	case events == 0:
		return errNoEvents
	}

	tids := make([]int, 0, len(procs))
	for tid := range procs {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	names := make([]string, 0, len(phaseNames))
	for n := range phaseNames {
		names = append(names, n)
	}
	sort.Strings(names)

	var allUnits []float64
	tot := &procStat{phases: map[string]float64{}}
	for _, tid := range tids {
		p := procs[tid]
		for n, s := range p.phases {
			tot.phases[n] += s
		}
		tot.units += p.units
		tot.migOut += p.migOut
		tot.migIn += p.migIn
		tot.forwards += p.forwards
		tot.sends += p.sends
		tot.retransmit += p.retransmit
		tot.ckpt += p.ckpt
		tot.suspects += p.suspects
		tot.repairs += p.repairs
		tot.replays += p.replays
		allUnits = append(allUnits, p.unitS...)
	}
	recovery := tot.ckpt+tot.suspects+tot.repairs+tot.replays > 0

	fmt.Fprintf(w, "trace: %d processors, %d events, span %.3fs\n\n",
		len(tids), events, end/1e6)

	header := append([]string{"proc"}, names...)
	header = append(header, "units", "mig-out", "mig-in", "fwd", "sends")
	if recovery {
		header = append(header, "ckpt", "suspect", "repair", "replay")
	}
	t := stats.NewTable(header...)
	row := func(label string, p *procStat) {
		cells := []any{label}
		for _, n := range names {
			cells = append(cells, fmt.Sprintf("%.2fs", p.phases[n]))
		}
		cells = append(cells, p.units, p.migOut, p.migIn, p.forwards, p.sends)
		if recovery {
			cells = append(cells, p.ckpt, p.suspects, p.repairs, p.replays)
		}
		t.AddRow(cells...)
	}
	if stride > 0 {
		for i := 0; i < len(tids); i += stride {
			p := procs[tids[i]]
			row(fmt.Sprintf("p%03d", tids[i]), p)
		}
	}
	row("TOTAL", tot)
	fmt.Fprintln(w, t.String())

	// Idle share across the machine: the headline number of the paper's
	// figures (idle is what load balancing removes).
	var busy, idle float64
	for n, s := range tot.phases {
		busy += s
		if n == "Idle" {
			idle = s
		}
	}
	if busy > 0 {
		fmt.Fprintf(w, "idle share: %.2f%% of traced processor time\n", 100*idle/busy)
	}
	if tot.retransmit > 0 {
		fmt.Fprintf(w, "retransmissions: %d\n", tot.retransmit)
	}
	if tot.ckpt > 0 {
		fmt.Fprintf(w, "checkpoints: %d rounds across the machine\n", tot.ckpt)
	}
	if tot.suspects > 0 {
		fmt.Fprintf(w, "recovery: %d suspect verdicts, %d objects repaired, %d envelopes replayed\n",
			tot.suspects, tot.repairs, tot.replays)
		// Time-to-recovery: first down verdict to the last repair/replay the
		// coordinator issued. Suspect verdicts with no repair activity (e.g.
		// an object-free processor crashing) report zero.
		if lastRepair >= firstSuspect {
			fmt.Fprintf(w, "time to recovery: %.3fs (first suspect to last repair/replay)\n",
				(lastRepair-firstSuspect)/1e6)
		}
	}
	if len(allUnits) > 0 {
		fmt.Fprintf(w, "work units: %d  p50=%.3fs p95=%.3fs p99=%.3fs max=%.3fs\n",
			len(allUnits), stats.P50(allUnits), stats.P95(allUnits), stats.P99(allUnits), stats.Max(allUnits))
	}
	if len(hops) > 0 {
		fmt.Fprintf(w, "forwarding chains: %d  mean=%.2f p95=%.0f max=%.0f hops\n",
			len(hops), stats.Mean(hops), stats.P95(hops), stats.Max(hops))
	}
	return nil
}
