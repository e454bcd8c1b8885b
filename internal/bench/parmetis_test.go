package bench

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// TestPlanRound: the round plan on a clean exchange — every live object gets
// an owner, a finished one none, and the arrivals add up to the moves — the
// vertex weights reaching the URA, and a doctored exchange, where an object
// listed twice is a conservation break reported with the round and both
// processors.
func TestPlanRound(t *testing.T) {
	w := PaperWorkload(Figures()[0], 4, 6)
	app := w.application()
	hinted := func(e int) int64 { return max(1, int64(app.remaining(e)*1000)) }
	// Processor 0 holds most of the work, so the repartition moves some;
	// object 22 has finished.
	lists := make([][]int, w.Procs)
	oldOwner := map[int]int{}
	for obj := 0; obj < w.Units; obj++ {
		q := 0
		switch {
		case obj == 22:
			continue
		case obj >= 23:
			q = 3
		case obj >= 20:
			q = 2
		case obj >= 14:
			q = 1
		}
		lists[q] = append(lists[q], obj)
		oldOwner[obj] = q
	}

	if pl := planRound(7, lists, w, app, 1e9, hinted); pl.apply || pl.moved != 0 {
		t.Errorf("plan under an unmet warrant: apply=%v moved=%d", pl.apply, pl.moved)
	}
	pl := planRound(7, lists, w, app, 0, hinted)
	if !pl.apply || pl.entries != w.Units-1 || pl.round != 7 {
		t.Fatalf("plan apply=%v entries=%d round=%d, want true %d 7", pl.apply, pl.entries, pl.round, w.Units-1)
	}
	arrivals := make([]int, w.Procs)
	for obj, q := range pl.owner {
		old, live := oldOwner[obj]
		switch {
		case !live && q != -1:
			t.Errorf("finished object %d owned by %d", obj, q)
		case live && (q < 0 || q >= w.Procs):
			t.Errorf("object %d owned by %d", obj, q)
		case live && q != old:
			arrivals[q]++
		}
	}
	sum := 0
	for _, a := range pl.arrivals {
		sum += a
	}
	if !reflect.DeepEqual(arrivals, pl.arrivals) || sum != pl.moved || pl.moved == 0 {
		t.Errorf("arrivals %v (sum %d), moved %d; owners imply %v", pl.arrivals, sum, pl.moved, arrivals)
	}

	// One object outweighing all the others together changes the answer,
	// whatever the hints say.
	heavy := func(e int) int64 {
		if e == 3 {
			return 1 << 20
		}
		return 1
	}
	if hp := planRound(7, lists, w, app, 0, heavy); reflect.DeepEqual(hp.owner, pl.owner) {
		t.Errorf("vertex weights did not reach the URA: owners %v under both weightings", hp.owner)
	}

	lists[2] = append(lists[2], 5) // object 5 is processor 0's
	defer func() {
		want := "parmetis round 7: object 5 listed by 0 and 2"
		if r := recover(); fmt.Sprint(r) != want {
			t.Errorf("doctored lists: panic %v, want %q", r, want)
		}
	}()
	planRound(7, lists, w, app, 0, hinted)
}

// TestRoundListsCountsProcessors: the barrier counts processors, an empty
// list included, and a second list from one processor in one round is a
// protocol bug reported with the round and the processor.
func TestRoundListsCountsProcessors(t *testing.T) {
	r := newRoundLists(3)
	r.add(1, []int{4, 5})
	r.clear()
	r.add(0, nil)
	r.add(2, []int{7})
	if r.heard != 2 || r.lists[1] != nil {
		t.Fatalf("round 2 heard %d processors, lists %v; want 2 with processor 1's cleared", r.heard, r.lists)
	}
	defer func() {
		want := "parmetis round 2: processor 0 listed twice"
		if r := recover(); fmt.Sprint(r) != want {
			t.Errorf("second list: panic %v, want %q", r, want)
		}
	}()
	r.add(0, []int{8})
}

// TestPlanCache: processors asking for one round at once get one plan, built
// once (run it with -race); asking for the next round rebuilds it.
func TestPlanCache(t *testing.T) {
	var c planCache
	var builds atomic.Int32
	build := func(round int) func() *repartPlan {
		return func() *repartPlan {
			builds.Add(1)
			return &repartPlan{round: round}
		}
	}
	got := make([]*repartPlan, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = c.get(3, build(3))
		}()
	}
	wg.Wait()
	for i, pl := range got {
		if pl != got[0] || pl.round != 3 {
			t.Fatalf("asker %d got plan %p for round %d, asker 0 %p", i, pl, pl.round, got[0])
		}
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds for one round", n)
	}
	if pl := c.get(4, build(4)); pl.round != 4 || builds.Load() != 2 {
		t.Fatalf("next round: plan for round %d after %d builds, want 4 after 2", pl.round, builds.Load())
	}
}

// TestRepartitionShardInvariant: the round plan is built by whichever
// processor asks first, possibly on another shard worker at the same moment
// (run it with -race), and every shard count must give the serial outcome.
func TestRepartitionShardInvariant(t *testing.T) {
	applied := DefaultParmetisConfig()
	applied.WarrantPerProc = 0
	mesh := DefaultMeshExpConfig()
	mc := BuildMeshCosts(mesh)
	parmetis := func(cfg ParmetisConfig) func(int) (*Result, error) {
		return func(shards int) (*Result, error) {
			w := PaperWorkload(Figures()[0], 32, 16)
			w.Shards = shards
			return runParmetis(w, cfg)
		}
	}
	for _, c := range []struct {
		name  string
		run   func(shards int) (*Result, error)
		moves bool
	}{
		{"parmetis fig3 32x16", parmetis(DefaultParmetisConfig()), false},
		{"parmetis fig3 32x16 warrant=0", parmetis(applied), true},
		{"mesh default repartition", func(shards int) (*Result, error) {
			return runMeshSystem("repartition", mesh, mc, shards)
		}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			serial, err := c.run(1)
			if err != nil {
				t.Fatal(err)
			}
			if moved := serial.Counters["units_migrated_root"]; (moved > 0) != c.moves {
				t.Fatalf("serial run moved %d units; want moves=%v", moved, c.moves)
			}
			for _, shards := range []int{2, 4} {
				r, err := c.run(shards)
				if err != nil {
					t.Fatal(err)
				}
				if d := sameOutcome(r, serial); d != "" {
					t.Errorf("shards=%d diverges from serial: %s", shards, d)
				}
			}
		})
	}
}
