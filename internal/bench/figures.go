package bench

import (
	"fmt"
	"strings"

	"prema/internal/sim"
)

// FigureSpec identifies one of the paper's benchmark figures by its two
// swept parameters.
type FigureSpec struct {
	// ID is the paper figure number (3-6).
	ID int
	// Imbalance is the initial imbalance percentage (fraction of heavy
	// units).
	Imbalance float64
	// Ratio is heavy/light weight (2.0 = "double", 1.2 = "20% heavier").
	Ratio float64
}

// Figures returns the paper's four benchmark figures.
func Figures() []FigureSpec {
	return []FigureSpec{
		{ID: 3, Imbalance: 0.50, Ratio: 2.0},
		{ID: 4, Imbalance: 0.10, Ratio: 2.0},
		{ID: 5, Imbalance: 0.50, Ratio: 1.2},
		{ID: 6, Imbalance: 0.10, Ratio: 1.2},
	}
}

// FigureByID returns the spec for a paper figure number.
func FigureByID(id int) (FigureSpec, error) {
	for _, f := range Figures() {
		if f.ID == id {
			return f, nil
		}
	}
	return FigureSpec{}, fmt.Errorf("bench: no figure %d (have 3-6)", id)
}

// PaperWorkload builds the workload for a figure spec at a given machine
// scale. Full paper scale is procs=128, units=16384 (128 units per
// processor, heavy ≈ 500 Mflops ≈ 10 s at the platform's sustained rate).
func PaperWorkload(spec FigureSpec, procs, unitsPerProc int) Workload {
	light := 5 * sim.Second
	return Workload{
		Procs:     procs,
		Units:     procs * unitsPerProc,
		HeavyFrac: spec.Imbalance,
		Heavy:     sim.Scale(light, spec.Ratio),
		Light:     light,
		Hints:     HintMean,
		UnitBytes: 4096,
		Seed:      1_000*int64(spec.ID) + 7,
	}
}

// FigureRun holds the six results of one figure.
type FigureRun struct {
	Spec    FigureSpec
	W       Workload
	Results []*Result // ordered as SystemNames
}

// Get returns the named result of a figure run.
func (fr *FigureRun) Get(name string) *Result {
	for i, n := range SystemNames {
		if n == name {
			return fr.Results[i]
		}
	}
	return nil
}

// Report renders the whole figure: one summary line per system plus the
// paper's derived claims.
func (fr *FigureRun) Report(breakdownStride int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== Figure %d: imbalance %.0f%%, heavy = %.1fx light (procs=%d, units=%d, ideal=%.0fs) ===\n",
		fr.Spec.ID, fr.Spec.Imbalance*100, fr.Spec.Ratio, fr.W.Procs, fr.W.Units, fr.W.IdealMakespan().Seconds())
	for _, r := range fr.Results {
		b.WriteString("  " + r.Summary() + "\n")
	}
	none := fr.Get("none")
	impl := fr.Get("prema-implicit")
	pm := fr.Get("parmetis")
	if none != nil && impl != nil && pm != nil {
		fmt.Fprintf(&b, "  prema-implicit vs none:     %+.1f%%\n", 100*(impl.Makespan.Seconds()-none.Makespan.Seconds())/none.Makespan.Seconds())
		fmt.Fprintf(&b, "  prema-implicit vs parmetis: %+.1f%%\n", 100*(impl.Makespan.Seconds()-pm.Makespan.Seconds())/pm.Makespan.Seconds())
		fmt.Fprintf(&b, "  parmetis sync+partition:    %.2f%% of useful compute (%d rounds, %d declined)\n",
			pm.SyncPct(), pm.Counters["lb_rounds"], pm.Counters["rounds_declined"])
		fmt.Fprintf(&b, "  prema-implicit overhead:    %.4f%% of useful compute\n", impl.OverheadPct())
	}
	if breakdownStride > 0 {
		b.WriteString("\nPer-processor breakdowns (paper's stacked bars):\n")
		for _, r := range fr.Results {
			b.WriteString(r.Breakdown(breakdownStride))
			b.WriteByte('\n')
		}
	}
	return b.String()
}
