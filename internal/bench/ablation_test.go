package bench

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"prema/internal/charm"
	"prema/internal/dmcs"
	"prema/internal/graph"
	"prema/internal/ilb"
	"prema/internal/mol"
	"prema/internal/parmetis"
	"prema/internal/partition"
	"prema/internal/sim"
	"prema/internal/substrate"
)

// TestAblations pins the DESIGN.md §5 ablations: one knob of one design
// decision at a time, on the deterministic simulator (a figure's workload at
// 32 processors × 32 units, or the row's own fixture), each setting
// rendered as one line of §5's table. The table in DESIGN.md is the golden:
// a change that moves a number must re-record the line there, and a row the
// test no longer produces (or a line it produces that §5 lacks) fails.
func TestAblations(t *testing.T) {
	var got []string
	row := func(decision, setting, measured string) {
		got = append(got, fmt.Sprintf("| %s | %s | %s |", decision, setting, measured))
	}
	runs := func(r *Result, err error) string {
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%.3f s, overhead %.4f %%", r.Makespan.Seconds(), r.OverheadPct())
	}
	prema := func(figure int, mode ilb.Mode, tune func(*PremaConfig)) (*Result, error) {
		cfg := DefaultPremaConfig(mode, true)
		tune(&cfg)
		w := ablationWorkload(figure)
		return RunPremaOn(w.simMachine(), w, cfg)
	}
	steals := func(r *Result, err error) string {
		m := runs(r, err)
		return fmt.Sprintf("%s, %d of %d steals granted", m, r.Counters["steal_grants"], r.Counters["steal_requests"])
	}

	// 1. Preemptive vs poll-driven: the implicit mode's polling period.
	for _, d := range []sim.Time{sim.Millisecond, 10 * sim.Millisecond, 100 * sim.Millisecond, sim.Second} {
		row("1 poll interval, Fig 4 implicit", d.String(), runs(prema(4, ilb.Implicit, func(c *PremaConfig) { c.LB.PollInterval = d })))
	}
	// 2. Objects migrated per steal grant (paper footnote 2).
	for _, n := range []int{1, 4, 16} {
		row("2 objects per steal, Fig 3 implicit", fmt.Sprint(n), steals(prema(3, ilb.Implicit, func(c *PremaConfig) { c.WS.MaxObjects = n })))
	}
	// 3. Forwarding: tell the origin where an object went, or not.
	for _, notify := range []bool{true, false} {
		row("3 forward-notify, 3-processor chase", fmt.Sprintf("NotifyOrigin %v", notify), fmt.Sprintf("%d forwards", chaseForwards(t, notify)))
	}
	// 4. The explicit mode's water-mark (paper §4.1's "cushion").
	for _, wm := range []float64{3, 12, 50, 200} {
		row("4 water-mark, Fig 4 explicit", fmt.Sprintf("%g s", wm), steals(prema(4, ilb.Explicit, func(c *PremaConfig) { c.LB.WaterMark = wm })))
	}
	// 5. The URA's Relative Cost Factor (paper Eq. 1).
	for _, alpha := range []float64{0.01, 0.1, 1, 100} {
		cut, moved := uraTradeoff(alpha)
		row("5 URA α, 16×16×4 grid in 16 parts", fmt.Sprint(alpha), fmt.Sprintf("edge-cut %d, migration volume %d", cut, moved))
	}
	// 6. Charm's strategy under persistent and moving-spike weights, with
	// no balancing for reference: the evidence for EXPERIMENTS deviation 3.
	fig3 := ablationWorkload(3)
	row("6 Charm strategy, Fig 3", "no AtSync", runs(RunSystem("charm", fig3)))
	for _, shuffle := range []bool{false, true} {
		weights := map[bool]string{false: "persistent", true: "moving spike"}[shuffle]
		for _, s := range []charm.Strategy{charm.GreedyLB{}, charm.RefineLB{}} {
			r, err := runCharm(fig3.simMachine(), fig3, CharmConfig{SyncPoints: 4, Strategy: s, Shuffle: shuffle})
			m := runs(r, err)
			row("6 Charm strategy, Fig 3", fmt.Sprintf("%s, %s weights", strings.TrimPrefix(fmt.Sprintf("%T", s), "charm."), weights),
				fmt.Sprintf("%s, %d chares migrated", m, r.Counters["chares_migrated"]))
		}
	}
	// 7. How often the application polls in explicit mode.
	for _, every := range []int{1, 4, 8, 32} {
		row("7 PollEvery, Fig 4 explicit", fmt.Sprint(every), steals(prema(4, ilb.Explicit, func(c *PremaConfig) { c.LB.PollEvery = every })))
	}
	// 8. Hints fed to the stop-and-repartition baseline.
	for _, hints := range []HintMode{HintMean, HintAccurate} {
		w := fig3
		w.Hints = hints
		r, err := RunSystem("parmetis", w)
		m := runs(r, err)
		row("8 hints, Fig 3 parmetis", hints.String(), fmt.Sprintf("%s, %d of %d rounds declined", m, r.Counters["rounds_declined"], r.Counters["lb_rounds"]))
	}

	want := designAblationTable(t)
	if !slices.Equal(got, want) {
		t.Errorf("DESIGN.md §5's table no longer matches the runs; the runs give:\n%s", strings.Join(got, "\n"))
	}
}

// ablationWorkload is the paper figure's workload at 32 × 32.
func ablationWorkload(figure int) Workload {
	spec, _ := FigureByID(figure)
	return PaperWorkload(spec, 32, 32)
}

// designAblationTable returns the body rows of the table in DESIGN.md §5.
func designAblationTable(t *testing.T) []string {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := strings.Index(doc, "\n## 5. ")
	end := strings.Index(doc, "\n## 6. ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §5")
	}
	var rows []string
	for _, line := range strings.Split(doc[start:end], "\n") {
		if strings.HasPrefix(line, "| ") && !strings.HasPrefix(line, "| decision ") {
			rows = append(rows, line)
		}
	}
	return rows
}

// uraTradeoff repartitions a 16×16×4 grid whose 4×4 corner column grew 12×
// heavier, from its balanced 16-way partition, and returns the new edge-cut
// and migration volume (ParMETIS' |Vmove|).
func uraTradeoff(alpha float64) (cut, moved int64) {
	g := graph.Grid3D(16, 16, 4)
	old := partition.Partition(g, 16, partition.Options{Seed: 3})
	for v := 0; v < g.NumVertices(); v++ {
		if v%16 < 4 && (v/16)%16 < 4 {
			g.VWgt[v] = 12
		}
	}
	opt := parmetis.DefaultOptions()
	opt.Alpha = alpha
	part := parmetis.AdaptiveRepart(g, 16, old, opt)
	return graph.EdgeCut(g, part), graph.MoveVolume(g, old, part)
}

// chaseForwards streams 200 messages from processor 2 at an object that
// migrates 50 times between processors 0 and 1, and returns how many
// messages the MOL forwarded.
func chaseForwards(t *testing.T, notify bool) int {
	m := Workload{Procs: 3, Seed: 5}.simMachine()
	var forwards int
	for p := 0; p < 3; p++ {
		m.Spawn("p", func(ep substrate.Endpoint) {
			cfg := mol.DefaultConfig()
			cfg.NotifyOrigin = notify
			l := mol.New(dmcs.New(ep), cfg)
			h := l.RegisterHandler(func(l *mol.Layer, obj *mol.Object, src int, data any, size int) {})
			mp := mol.MobilePtr{Home: 0, Index: 0}
			switch ep.ID() {
			case 0, 1:
				if ep.ID() == 0 {
					mp = l.Register("obj", 256)
				}
				for round := 0; round < 50; round++ {
					if l.Local()[mp] != nil {
						l.Migrate(mp, 1-ep.ID())
					}
					ep.WaitMsgFor(20*sim.Millisecond, sim.CatIdle)
					l.Comm().Poll()
				}
			case 2:
				for round := 0; round < 200; round++ {
					l.Message(mp, h, round, 64, sim.TagApp, 0)
					ep.Advance(5*sim.Millisecond, sim.CatCompute)
					l.Comm().PollTag(sim.TagSystem)
				}
			}
			for l.Comm().WaitPollFor(200*sim.Millisecond, sim.CatIdle) > 0 {
			}
			forwards += l.Stats.Forwards
		})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return forwards
}
