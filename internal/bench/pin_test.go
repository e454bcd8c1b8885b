package bench

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"testing"

	"prema/internal/sim"
)

// pinRow is one recorded outcome: the makespan, a digest of every
// processor's ledger, and the run's counters.
type pinRow struct {
	name     string
	makespan sim.Time
	accounts uint64 // FNV-1a over every account, category by category
	counters string
}

func (p pinRow) String() string {
	return fmt.Sprintf("{%q, %d, %#x, %q},", p.name, int64(p.makespan), p.accounts, p.counters)
}

func pinAccounts(r *Result) uint64 {
	h := fnv.New64a()
	for i := range r.Accounts {
		for _, v := range r.Accounts[i] {
			fmt.Fprintf(h, "%d,", int64(v))
		}
	}
	return h.Sum64()
}

func sortedCounters(r *Result) string {
	var kv []string
	for k, v := range r.Counters {
		kv = append(kv, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(kv)
	return strings.Join(kv, " ")
}

// appliedRounds is the number of repartition rounds that moved work. The
// PREMA regimes of the mesh experiment pin no counters: steals are already
// pinned through the ledgers they leave behind.
func appliedRounds(r *Result) string {
	if _, ok := r.Counters["lb_rounds"]; !ok {
		return ""
	}
	return fmt.Sprintf("applied=%d", r.Counters["lb_rounds"]-r.Counters["rounds_declined"])
}

// pinned was recorded at the last commit that had one stop-and-repartition
// driver and one PREMA driver per application, before the drivers were
// merged. A mismatch prints the fresh row in this syntax.
var pinned = []pinRow{
	{"parmetis fig3 8x6", 80303651280, 0x68e45467226c8754, "lb_rounds=3 rounds_declined=3 units_migrated_root=0"},
	{"parmetis fig3 13x5", 70305794920, 0x3c63a7190ffe40e, "lb_rounds=3 rounds_declined=3 units_migrated_root=0"},
	{"parmetis fig3 32x16", 180659239920, 0x16e1396934ab93ff, "lb_rounds=6 rounds_declined=6 units_migrated_root=0"},
	{"parmetis fig3 8x6 warrant=0", 60203390040, 0x4980c8e1def9006b, "lb_rounds=2 rounds_declined=0 units_migrated_root=6"},
	{"parmetis fig3 8x6 warrant=1e+09", 80303651280, 0x68e45467226c8754, "lb_rounds=3 rounds_declined=3 units_migrated_root=0"},
	{"parmetis fig4 8x6", 55304664640, 0xf8524a26831ac0d, "lb_rounds=3 rounds_declined=3 units_migrated_root=0"},
	{"parmetis fig4 13x5", 55304621280, 0x4269f7cad2f73ca0, "lb_rounds=3 rounds_declined=3 units_migrated_root=0"},
	{"parmetis fig4 32x16", 195733045760, 0x22a32368e2c58602, "lb_rounds=7 rounds_declined=7 units_migrated_root=0"},
	{"parmetis fig4 8x6 warrant=0", 40202932800, 0xf6052571995eaf85, "lb_rounds=2 rounds_declined=1 units_migrated_root=4"},
	{"parmetis fig4 8x6 warrant=1e+09", 55304664640, 0xf8524a26831ac0d, "lb_rounds=3 rounds_declined=3 units_migrated_root=0"},
	{"parmetis fig5 8x6", 42202634240, 0x3cc4600b848b2d74, "lb_rounds=2 rounds_declined=2 units_migrated_root=0"},
	{"parmetis fig5 13x5", 36204019240, 0xfc3637084bd0bddb, "lb_rounds=2 rounds_declined=2 units_migrated_root=0"},
	{"parmetis fig5 32x16", 108315627920, 0xc0e1c7bc27449a4, "lb_rounds=3 rounds_declined=3 units_migrated_root=0"},
	{"parmetis fig5 8x6 warrant=0", 42202634240, 0x3cc4600b848b2d74, "lb_rounds=2 rounds_declined=1 units_migrated_root=0"},
	{"parmetis fig5 8x6 warrant=1e+09", 42202634240, 0x3cc4600b848b2d74, "lb_rounds=2 rounds_declined=2 units_migrated_root=0"},
	{"parmetis fig6 8x6", 35102374280, 0x7113d6583d27995a, "lb_rounds=1 rounds_declined=1 units_migrated_root=0"},
	{"parmetis fig6 13x5", 33204019240, 0x1b258ffb4de97375, "lb_rounds=2 rounds_declined=2 units_migrated_root=0"},
	{"parmetis fig6 32x16", 108311877920, 0xb11bb71aa4314ad6, "lb_rounds=3 rounds_declined=3 units_migrated_root=0"},
	{"parmetis fig6 8x6 warrant=0", 35102466160, 0xb6decde36a5ef583, "lb_rounds=1 rounds_declined=0 units_migrated_root=1"},
	{"parmetis fig6 8x6 warrant=1e+09", 35102374280, 0x7113d6583d27995a, "lb_rounds=1 rounds_declined=1 units_migrated_root=0"},
	// Recorded while a hint was still Workload.Hint, recomputed on each call.
	{"parmetis fig3 8x6 hints=accurate", 80406180240, 0xda5cef96722cebac, "lb_rounds=4 rounds_declined=4 units_migrated_root=0"},
	{"parmetis fig4 13x5 hints=accurate", 55304589280, 0x150f09236ce3d8d7, "lb_rounds=3 rounds_declined=3 units_migrated_root=0"},
	{"mesh quick none", 212006263707, 0x7c709222c3e82d0, ""},
	{"mesh quick prema-implicit", 173263905930, 0xca42df67153757ca, ""},
	// The one row recorded after the merge (before: 0x329f982a6440fc73). The
	// mesh copy re-reported underload every 5 s while busy; the one protocol
	// reports once per round, as the benchmark's always did. Here that is
	// three 8-byte reports fewer: 15 µs of messaging on processors 3, 4 and
	// 7, 51 µs at the root, absorbed by their idle and sync time.
	{"mesh quick repartition", 215793060835, 0x150048857279ec60, "applied=5"},
	{"mesh 13x7 none", 215139224429, 0x898ef11790ede19a, ""},
	{"mesh 13x7 prema-implicit", 106318950469, 0x6eb0e1e225864f54, ""},
	{"mesh 13x7 repartition", 137546082410, 0x8e11f14af317765f, "applied=4"},
	{"mesh default none", 307928732583, 0x61867bccd2d9fe48, ""},
	{"mesh default prema-implicit", 157133007252, 0x618b891a89374d03, ""},
	{"mesh default repartition", 175847935000, 0xf8017c6e774bf474, "applied=6"},
	{"hybrid repartition", 349463899455, 0xc0329260d73ceaf, ""},
	{"hybrid prema", 523906980052, 0x89cc7b65819f1a50, ""},
	{"hybrid unified", 344484866836, 0x25039193aed67515, ""},
	// Recorded while the charm driver still spawned *sim.Proc bodies on its
	// own engine, before it moved onto substrate.Machine.
	{"charm fig3 8x6", 60001128280, 0x4263b5313c19889, "chares_migrated=0 lb_steps=0"},
	{"charm fig3 32x16", 160009566640, 0xde1da47f878a6c7b, "chares_migrated=0 lb_steps=0"},
	{"charm fig4 8x6", 50001162280, 0x153b20b5e9f19139, "chares_migrated=0 lb_steps=0"},
	{"charm fig4 32x16", 160009576280, 0x1e05c562390f823b, "chares_migrated=0 lb_steps=0"},
	{"charm fig5 8x6", 36001128280, 0xbc8bd16a3573e1ad, "chares_migrated=0 lb_steps=0"},
	{"charm fig5 32x16", 96009566640, 0x818143b9648fe9d1, "chares_migrated=0 lb_steps=0"},
	{"charm fig6 8x6", 34001118640, 0xe2c6354aaef1e6b8, "chares_migrated=0 lb_steps=0"},
	{"charm fig6 32x16", 96009576280, 0x9ddce4b2582ad47, "chares_migrated=0 lb_steps=0"},
	{"charm-sync4 fig3 8x6", 80002040320, 0xc73ce3f62cf47419, "chares_migrated=4 lb_steps=3"},
	{"charm-sync4 fig3 32x16", 175005118680, 0xc82795b3d9671509, "chares_migrated=54 lb_steps=3"},
	{"charm-sync4 fig4 8x6", 55001540520, 0x3824cee1e2627612, "chares_migrated=3 lb_steps=3"},
	{"charm-sync4 fig4 32x16", 160003286200, 0x6a3addef7f34a8ea, "chares_migrated=8 lb_steps=3"},
	{"charm-sync4 fig5 8x6", 47002083280, 0xe9880a389bdf91d5, "chares_migrated=7 lb_steps=3"},
	{"charm-sync4 fig5 32x16", 96003675200, 0xe87bd441640c1979, "chares_migrated=0 lb_steps=3"},
	{"charm-sync4 fig6 8x6", 43002092920, 0x5d0fe45fba853bbc, "chares_migrated=2 lb_steps=3"},
	{"charm-sync4 fig6 32x16", 96003451200, 0xf5a718d41b93ec71, "chares_migrated=0 lb_steps=3"},
	// Recorded while multi-list advertisements could still be given a
	// time-to-live.
	{"prema-multilist fig3 32x16", 130305355800, 0x4e9dd7273c914da8, "units_run=512"},
}

// TestDriversPinned holds the drivers to the recorded outcomes: parmetis on
// Figures 3-6 at three scales, with the warrant forced both ways and, on
// Figures 3 and 4, with accurate hints, the three mesh regimes at three
// scales, the hybrid example's makespans, both charm rows on Figures 3-6 at
// two scales, and multi-list on Figure 3.
func TestDriversPinned(t *testing.T) {
	var got []pinRow
	add := func(name string, counters func(*Result) string, r *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got = append(got, pinRow{name, r.Makespan, pinAccounts(r), counters(r)})
	}

	var applied, declined, mixed bool
	addParmetis := func(name string, r *Result, err error) {
		t.Helper()
		add(name, sortedCounters, r, err)
		switch n, d := r.Counters["lb_rounds"], r.Counters["rounds_declined"]; {
		case n > 0 && d == 0:
			applied = true
		case n > 0 && d == n:
			declined = true
		case d > 0:
			mixed = true
		}
	}
	for _, f := range Figures() {
		for _, scale := range [][2]int{{8, 6}, {13, 5}, {32, 16}} {
			w := PaperWorkload(f, scale[0], scale[1])
			r, err := runParmetis(w, DefaultParmetisConfig())
			addParmetis(fmt.Sprintf("parmetis fig%d %dx%d", f.ID, scale[0], scale[1]), r, err)
		}
		for _, warrant := range []float64{0, 1e9} {
			cfg := DefaultParmetisConfig()
			cfg.WarrantPerProc = warrant
			r, err := runParmetis(PaperWorkload(f, 8, 6), cfg)
			addParmetis(fmt.Sprintf("parmetis fig%d 8x6 warrant=%g", f.ID, warrant), r, err)
		}
	}
	for _, c := range []struct{ fig, procs, perProc int }{{3, 8, 6}, {4, 13, 5}} {
		w := PaperWorkload(Figures()[c.fig-3], c.procs, c.perProc)
		w.Hints = HintAccurate
		r, err := runParmetis(w, DefaultParmetisConfig())
		addParmetis(fmt.Sprintf("parmetis fig%d %dx%d hints=accurate", c.fig, c.procs, c.perProc), r, err)
	}
	if !applied || !declined || !mixed {
		t.Errorf("parmetis rows cover applied=%v declined=%v mixed=%v rounds; want all three", applied, declined, mixed)
	}

	mid := DefaultMeshExpConfig()
	mid.Procs, mid.Iterations = 13, 7
	for _, c := range []struct {
		name string
		cfg  MeshExpConfig
	}{{"quick", quickMeshConfig()}, {"13x7", mid}, {"default", DefaultMeshExpConfig()}} {
		mc := BuildMeshCosts(c.cfg)
		for _, sys := range MeshSystems {
			r, err := RunMeshSystem(sys, c.cfg, mc)
			add("mesh "+c.name+" "+sys, appliedRounds, r, err)
		}
	}

	hc := DefaultHybridConfig()
	hmc := BuildMeshCosts(hc.MeshExpConfig)
	for _, sys := range HybridSystems {
		r, err := RunHybrid(sys, hc, hmc)
		add("hybrid "+sys, func(*Result) string { return "" }, r, err)
	}

	for _, sys := range []string{"charm", "charm-sync4"} {
		for _, f := range Figures() {
			for _, scale := range [][2]int{{8, 6}, {32, 16}} {
				r, err := RunSystem(sys, PaperWorkload(f, scale[0], scale[1]))
				add(fmt.Sprintf("%s fig%d %dx%d", sys, f.ID, scale[0], scale[1]), sortedCounters, r, err)
			}
		}
	}

	r, err := RunSystem("prema-multilist", PaperWorkload(Figures()[0], 32, 16))
	add("prema-multilist fig3 32x16", sortedCounters, r, err)

	if len(got) != len(pinned) {
		t.Errorf("%d rows, %d pinned", len(got), len(pinned))
	}
	for i, g := range got {
		if i >= len(pinned) || g != pinned[i] {
			t.Errorf("row %d differs from the pinned table; fresh row:\n%v", i, g)
		}
	}
}

// TestFigure3BarrierRoundsPinned: the coordination-round counts of
// prema-implicit on Figure 3 at 8 processors × 6 units, recorded with the
// engine's matrix relaxation and the blocked placement before the closed-form
// window rule and the single placement replaced them, then re-recorded when
// the simulator stopped firing wait timeouts a message had beaten (1,417
// fewer events; 3,360 → 2,467 and 3,758 → 2,742 rounds), and again when it
// stopped leaving a polled advance's superseded end and moved wakes in the
// heap (19 fewer events: 9,955 → 9,936; a lingering end no longer bounds a
// window, 2,467 → 2,463 and 2,742 → 2,735 rounds).
func TestFigure3BarrierRoundsPinned(t *testing.T) {
	for shards, want := range map[int]uint64{2: 2463, 4: 2735} {
		w := PaperWorkload(Figures()[0], 8, 6)
		w.Shards = shards
		r, err := RunSystem("prema-implicit", w)
		if err != nil {
			t.Fatal(err)
		}
		if r.BarrierRounds != want || r.Events != 9936 {
			t.Errorf("shards=%d: %d barrier rounds over %d events, want %d over 9936",
				shards, r.BarrierRounds, r.Events, want)
		}
	}
}

// reliablePinned holds the reliable, faulted runs to outcomes recorded
// before the DMCS stream tables, the wire kind table and the resolved link
// faults replaced hash-map lookups: a fig3_chaos-shaped run (wire loopback,
// light loss and duplication) and an explicit-mode run under heavier loss.
// Each row's counters end with the injector's totals and, where the run is
// wire-wrapped, the frame count.
var reliablePinned = []pinRow{
	{"chaos fig3 32x6 prema-implicit wire drop=0.01,dup=0.01", 50308164960, 0xac0e50e027872bbd, "objects_migrated=21 rel_acks=28599 rel_data_sent=28463 rel_dup_dropped=513 rel_held=13 rel_retransmits=496 rel_timeouts=476 steal_grants=21 steal_nacks=14078 steal_requests=14099 units_run=192 dropped=559 dupped=593 delayed=0 reordered=0 wire_frames=57558 wire_drift=0"},
	{"chaos fig3 8x8 prema-explicit drop=0.05,dup=0.05", 80252164440, 0x9d86718aab90f29e, "objects_migrated=0 rel_acks=100 rel_data_sent=153 rel_dup_dropped=1585 rel_held=17 rel_retransmits=1593 rel_timeouts=355 steal_grants=0 steal_nacks=41 steal_requests=41 units_run=64 dropped=96 dupped=89 delayed=0 reordered=0"},
}

// TestReliablePinned: reliable delivery over faulty (and wire) reproduces
// the recorded makespans, ledgers, protocol counters and injected faults.
func TestReliablePinned(t *testing.T) {
	var got []pinRow
	for _, c := range []struct {
		name, system, plan string
		procs, perProc     int
		wire               bool
	}{
		{"chaos fig3 32x6 prema-implicit wire drop=0.01,dup=0.01", "prema-implicit", "drop=0.01,dup=0.01", 32, 6, true},
		{"chaos fig3 8x8 prema-explicit drop=0.05,dup=0.05", "prema-explicit", "drop=0.05,dup=0.05", 8, 8, false},
	} {
		w := PaperWorkload(Figures()[0], c.procs, c.perProc)
		w.Wire = c.wire
		r, err := RunSpec{System: c.system, W: w, Reliable: true, FaultPlan: c.plan, FaultSeed: 7}.Run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		f := r.Faults
		counters := fmt.Sprintf("%s dropped=%d dupped=%d delayed=%d reordered=%d", sortedCounters(r), f.Dropped, f.Dupped, f.Delayed, f.Reordered)
		if c.wire {
			counters += fmt.Sprintf(" wire_frames=%d wire_drift=%d", r.WireFrames, r.WireDrift)
		}
		got = append(got, pinRow{c.name, r.Makespan, pinAccounts(r), counters})
	}
	if len(got) != len(reliablePinned) {
		t.Errorf("%d rows, %d pinned", len(got), len(reliablePinned))
	}
	for i, g := range got {
		if i >= len(reliablePinned) || g != reliablePinned[i] {
			t.Errorf("row %d differs from the pinned table; fresh row:\n%v", i, g)
		}
	}
}
