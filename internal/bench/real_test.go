package bench

import (
	"fmt"
	"strings"
	"testing"
)

// TestRealBackendTracksSimulatorAtPaperWidth: at the paper's 128
// processors, far more goroutines than host cores, the wall-clock machine
// still runs the unbalanced baseline close to the simulator's makespan. A
// wait that burns CPU instead of sleeping makes 128 processors compete for
// the cores and inflates every makespan, and with it every comparison
// against the baseline. Other work on the host can only delay a wall-clock
// run, never speed it up, so the best of up to 20 runs is the reading.
func TestRealBackendTracksSimulatorAtPaperWidth(t *testing.T) {
	if raceDetector {
		t.Skip("wall-clock fidelity is not measured under the race detector")
	}
	const runs = 20
	spec := RunSpec{System: "none", W: Workload{Procs: 128}, UnitsPerProc: 8, TimeScale: 1e-3}.
		WithDefaults().ForFigure(FigureSpec{Imbalance: 0.5, Ratio: 2})
	simRes, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	bound := simRes.Makespan * 14 / 10
	spec.Backend = BackendReal
	var seen []string
	for range runs {
		res, err := spec.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := res.CheckConservation(); err != nil {
			t.Fatal(err)
		}
		seen = append(seen, fmt.Sprintf("%.2fx", float64(res.Makespan)/float64(simRes.Makespan)))
		if res.Makespan <= bound {
			t.Logf("real %v, simulator %v (runs: %s)", res.Makespan, simRes.Makespan, strings.Join(seen, " "))
			return
		}
	}
	t.Errorf("real makespan over 1.4x the simulator's %v in all %d runs: %s", simRes.Makespan, runs, strings.Join(seen, " "))
}
