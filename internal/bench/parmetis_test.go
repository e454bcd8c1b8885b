package bench

import (
	"fmt"
	"reflect"
	"testing"
)

// TestPlanRound: the round plan on a clean exchange — every live object gets
// an owner, a finished one none, and the arrivals add up to the moves — and
// on a doctored one, where an object listed twice is a conservation break
// reported with the round and both processors.
func TestPlanRound(t *testing.T) {
	w := PaperWorkload(Figures()[0], 4, 6)
	app := w.application()
	cfg := DefaultParmetisConfig()
	cfg.WarrantPerProc = 0
	// Processor 0 holds most of the work, so the repartition moves some;
	// object 22 has finished.
	lists := map[int][]int{}
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

	pl := planRound(7, lists, w, app, cfg)
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

	lists[2] = append(lists[2], 5) // object 5 is processor 0's
	defer func() {
		want := "parmetis round 7: object 5 listed by 0 and 2"
		if r := recover(); fmt.Sprint(r) != want {
			t.Errorf("doctored lists: panic %v, want %q", r, want)
		}
	}()
	planRound(7, lists, w, app, cfg)
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
				if r.Makespan != serial.Makespan ||
					!reflect.DeepEqual(r.Counters, serial.Counters) ||
					!reflect.DeepEqual(r.Resident, serial.Resident) ||
					!reflect.DeepEqual(r.Accounts, serial.Accounts) {
					t.Errorf("shards=%d diverges from serial:\n got %s %v\nwant %s %v",
						shards, r.Summary(), r.Counters, serial.Summary(), serial.Counters)
				}
			}
		})
	}
}
