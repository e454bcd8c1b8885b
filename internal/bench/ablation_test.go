package bench

import (
	"fmt"
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

// Ablations of the design decisions called out in DESIGN.md §5, and a weak
// scaling sweep, at 32-processor scale. Each reports simulated quantities
// that no CLI prints, as custom metrics (host performance is measured by
// benchmark/, the paper's figures are regenerated by cmd/figures and
// cmd/meshgen):
//
//	makespan-s    virtual seconds of overall runtime
//	overhead-pct  runtime overhead as % of useful computation
//	sync-pct      synchronization + partitioning as % of useful computation
//
// Run them with go test -bench=. -benchtime=1x ./internal/bench.

const (
	benchProcs = 32
	benchUPP   = 32 // units per processor
)

func report(b *testing.B, r *Result) {
	b.Helper()
	b.ReportMetric(r.Makespan.Seconds(), "makespan-s")
	b.ReportMetric(r.OverheadPct(), "overhead-pct")
	b.ReportMetric(r.SyncPct(), "sync-pct")
}

// ablatePrema runs one customized PREMA configuration over each setting:
// tune applies the setting to the figure's default configuration.
func ablatePrema[T any](b *testing.B, figure int, mode ilb.Mode, settings []T, name func(T) string, tune func(*PremaConfig, T)) {
	spec, _ := FigureByID(figure)
	w := PaperWorkload(spec, benchProcs, benchUPP)
	for _, s := range settings {
		b.Run(name(s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := DefaultPremaConfig(mode, true)
				tune(&cfg, s)
				r, err := RunPremaOn(w.simMachine(), w, cfg)
				if err != nil {
					b.Fatal(err)
				}
				report(b, r)
			}
		})
	}
}

// BenchmarkAblationPollInterval sweeps the implicit-mode polling thread
// period: the paper's preemption mechanism vs its cost.
func BenchmarkAblationPollInterval(b *testing.B) {
	ablatePrema(b, 4, ilb.Implicit,
		[]sim.Time{1 * sim.Millisecond, 10 * sim.Millisecond, 100 * sim.Millisecond, sim.Second},
		sim.Time.String, func(cfg *PremaConfig, interval sim.Time) { cfg.LB.PollInterval = interval })
}

// BenchmarkAblationPollEvery sweeps how often the application posts polls
// between work units — the lever behind explicit-mode decay (paper §3-4).
func BenchmarkAblationPollEvery(b *testing.B) {
	ablatePrema(b, 4, ilb.Explicit, []int{1, 4, 8, 32},
		func(every int) string { return fmt.Sprintf("every%d", every) },
		func(cfg *PremaConfig, every int) { cfg.LB.PollEvery = every })
}

// BenchmarkAblationMaxObjects sweeps how many mobile objects migrate per
// steal grant (paper footnote 2: single coarse object vs several finer ones).
func BenchmarkAblationMaxObjects(b *testing.B) {
	ablatePrema(b, 3, ilb.Implicit, []int{1, 4, 16},
		func(maxObj int) string { return fmt.Sprintf("objects%d", maxObj) },
		func(cfg *PremaConfig, maxObj int) { cfg.WS.MaxObjects = maxObj })
}

// BenchmarkAblationWaterMark sweeps the explicit-mode water-mark, the
// "cushion" tuning problem of paper §4.1.
func BenchmarkAblationWaterMark(b *testing.B) {
	ablatePrema(b, 4, ilb.Explicit, []float64{3, 12, 50, 200},
		func(wm float64) string { return fmt.Sprintf("wm%.0f", wm) },
		func(cfg *PremaConfig, wm float64) { cfg.LB.WaterMark = wm })
}

// BenchmarkAblationAutoWaterMark compares the fixed explicit-mode water-mark
// with the runtime-derived one (paper §4.2's proposed optimization,
// implemented here).
func BenchmarkAblationAutoWaterMark(b *testing.B) {
	ablatePrema(b, 4, ilb.Explicit, []bool{false, true},
		func(auto bool) string { return fmt.Sprintf("auto=%v", auto) },
		func(cfg *PremaConfig, auto bool) { cfg.WS.AutoWaterMark = auto })
}

// BenchmarkAblationHints compares intentionally inaccurate (mean) hints
// against accurate weights for the stop-and-repartition baseline: how much
// of its shortfall is prediction error?
func BenchmarkAblationHints(b *testing.B) {
	spec, _ := FigureByID(3)
	for _, hints := range []HintMode{HintMean, HintAccurate} {
		b.Run(hints.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := PaperWorkload(spec, benchProcs, benchUPP)
				w.Hints = hints
				r, err := RunSystem("parmetis", w)
				if err != nil {
					b.Fatal(err)
				}
				report(b, r)
			}
		})
	}
}

// BenchmarkAblationCharmStrategy compares the Charm-style central
// strategies under the adaptive (moving spike) regime.
func BenchmarkAblationCharmStrategy(b *testing.B) {
	spec, _ := FigureByID(4)
	w := PaperWorkload(spec, benchProcs, benchUPP)
	strategies := map[string]charm.Strategy{
		"greedy": charm.GreedyLB{},
		"refine": charm.RefineLB{},
		"metis":  charm.MetisLB{},
	}
	for _, name := range []string{"greedy", "refine", "metis"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := DefaultCharmConfig(4)
				cfg.Strategy = strategies[name]
				r, err := runCharm(w.simMachine(), w, cfg)
				if err != nil {
					b.Fatal(err)
				}
				report(b, r)
			}
		})
	}
}

// BenchmarkAblationURAAlpha sweeps the Relative Cost Factor of the Unified
// Repartitioning Algorithm (paper Eq. 1): edge-cut vs migration volume.
func BenchmarkAblationURAAlpha(b *testing.B) {
	g := graph.Grid3D(16, 16, 4)
	old := partition.Partition(g, 16, partition.Options{Seed: 3})
	for v := 0; v < g.NumVertices(); v++ {
		if v%16 < 4 && (v/16)%16 < 4 {
			g.VWgt[v] = 12
		}
	}
	for _, alpha := range []float64{0.01, 0.1, 1, 100} {
		b.Run(fmt.Sprintf("alpha%g", alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := parmetis.DefaultOptions()
				opt.Alpha = alpha
				newPart := parmetis.AdaptiveRepart(g, 16, old, opt)
				b.ReportMetric(float64(graph.EdgeCut(g, newPart)), "edgecut")
				b.ReportMetric(float64(graph.MoveVolume(g, old, newPart)), "movevol")
			}
		})
	}
}

// BenchmarkAblationForwardNotify toggles the MOL's forwarding cache updates
// (DESIGN.md design decision 3: chase the chain vs tell the origin).
func BenchmarkAblationForwardNotify(b *testing.B) {
	for _, notify := range []bool{true, false} {
		b.Run(fmt.Sprintf("notify=%v", notify), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := Workload{Procs: 3, Seed: 5}.simMachine()
				var forwards int
				// Proc 2 streams messages at an object that keeps migrating
				// between procs 0 and 1.
				for p := 0; p < 3; p++ {
					m.Spawn("p", func(ep substrate.Endpoint) {
						cfg := mol.DefaultConfig()
						cfg.NotifyOrigin = notify
						l := mol.New(dmcs.New(ep), cfg)
						h := l.RegisterHandler(func(l *mol.Layer, obj *mol.Object, src int, data any, size int) {})
						switch ep.ID() {
						case 0, 1:
							mp := mol.MobilePtr{Home: 0, Index: 0}
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
							for l.Comm().WaitPollFor(200*sim.Millisecond, sim.CatIdle) > 0 {
							}
							forwards += l.Stats.Forwards
						case 2:
							mp := mol.MobilePtr{Home: 0, Index: 0}
							for round := 0; round < 200; round++ {
								l.Message(mp, h, round, 64, sim.TagApp, 0)
								ep.Advance(5*sim.Millisecond, sim.CatCompute)
								l.Comm().PollTag(sim.TagSystem)
							}
							for l.Comm().WaitPollFor(200*sim.Millisecond, sim.CatIdle) > 0 {
							}
						}
					})
				}
				if err := m.Run(); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(forwards), "forwards")
			}
		})
	}
}

// BenchmarkScalability sweeps the machine size at fixed per-processor work
// (weak scaling, beyond the paper): PREMA's asynchronous balancing should
// hold its relative advantage as processors grow, while the centralized
// stop-and-repartition baseline pays growing synchronization costs.
func BenchmarkScalability(b *testing.B) {
	spec, _ := FigureByID(4)
	for _, procs := range []int{16, 32, 64, 128} {
		w := PaperWorkload(spec, procs, 32)
		for _, sys := range []string{"prema-implicit", "parmetis"} {
			b.Run(fmt.Sprintf("procs%d/%s", procs, sys), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r, err := RunSystem(sys, w)
					if err != nil {
						b.Fatal(err)
					}
					report(b, r)
				}
			})
		}
	}
}
