package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestRandomPartitionMatchesSerial: the byte-identity guarantee holds for
// *arbitrary* processor→shard maps, not just round-robin — including maps
// that leave some shards empty. The partition-invariant (at, ord) ordering
// key is what makes this true; this test is its direct check at the engine
// level (internal/bench runs the full-stack analogue over the paper
// drivers).
func TestRandomPartitionMatchesSerial(t *testing.T) {
	const n, rounds = 13, 25
	want := runMesh(t, Config{Seed: 42}, n, rounds)
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		shards := 2 + rng.Intn(6)
		assign := make([]int, n)
		for i := range assign {
			assign[i] = rng.Intn(shards)
		}
		cfg := Config{
			Seed:      42,
			Shards:    shards,
			Partition: func(id, _ int) int { return assign[id] },
		}
		label := fmt.Sprintf("trial %d (S=%d, map %v)", trial, shards, assign)
		equalMesh(t, label, want, runMesh(t, cfg, n, rounds))
	}
}

// TestPartitionOutOfRangePanics: a broken partition function is caught at
// Spawn, not silently wrapped into a valid shard.
func TestPartitionOutOfRangePanics(t *testing.T) {
	e := NewEngine(Config{Shards: 2, Partition: func(id, shards int) int { return shards }})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range partition result did not panic")
		}
	}()
	e.Spawn("p0", func(p *Proc) {})
}

// TestShardTelemetry: per-shard event counts sum to the total, the
// imbalance ratio is sane (>= 1 once events fired, exactly the max/mean of
// the per-shard counts) and barrier rounds are counted.
func TestShardTelemetry(t *testing.T) {
	e := NewEngine(Config{Seed: 42, Shards: 4})
	spawnMeshWorkload(Machine{e}, 13, 10)
	if e.ImbalanceRatio() != 0 {
		t.Errorf("pre-run imbalance = %v, want 0", e.ImbalanceRatio())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var sum, max uint64
	for _, sh := range e.shards {
		sum += sh.fired
		if sh.fired > max {
			max = sh.fired
		}
	}
	if sum != e.EventsFired() {
		t.Errorf("per-shard sum %d != total %d", sum, e.EventsFired())
	}
	if e.BarrierRounds() == 0 {
		t.Error("a sharded run counted no barrier rounds")
	}
	want := float64(max) * 4 / float64(sum)
	if got := e.ImbalanceRatio(); got != want || got < 1 {
		t.Errorf("imbalance = %v, want %v (>= 1)", got, want)
	}
}

// relaxRef is the reference the closed-form window rule is checked against:
// the general conservative-lookahead computation over a per-(shard,shard)
// minimum-latency matrix, specialised to the flat network (every link between
// two owning shards costs lat; a shard that owns nothing has no links). B is
// relaxed Bellman-Ford style to the least fixed point of
//
//	B[s] = min(next[s], min over r != s of B[r] + minLat[r][s])
//
// and end[d] = min over s != d of B[s] + minLat[s][d].
func relaxRef(next []Time, owns []bool, lat Time) []Time {
	S := len(next)
	minLat := make([][]Time, S)
	for s := range minLat {
		minLat[s] = make([]Time, S)
		for d := range minLat[s] {
			minLat[s][d] = maxTime
			if owns[s] && owns[d] {
				minLat[s][d] = lat
			}
		}
	}
	b := append([]Time(nil), next...)
	for changed := true; changed; {
		changed = false
		for d := range b {
			for r := range b {
				if r == d || b[r] == maxTime || minLat[r][d] == maxTime {
					continue
				}
				if v := b[r] + minLat[r][d]; v < b[d] {
					b[d] = v
					changed = true
				}
			}
		}
	}
	ends := make([]Time, S)
	for d := range ends {
		ends[d] = maxTime
		for s := range b {
			if s == d || b[s] == maxTime || minLat[s][d] == maxTime {
				continue
			}
			if v := b[s] + minLat[s][d]; v < ends[d] {
				ends[d] = v
			}
		}
	}
	return ends
}

// TestWindowRuleMatchesRelaxation: for seeded draws of shard count, owner
// set (empty shards and a single owner included), latency and next-event
// times (idle heaps and ties included), setWindows' one-pass ends equal the
// matrix relaxation's.
func TestWindowRuleMatchesRelaxation(t *testing.T) {
	for seed := int64(0); seed < 5000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		S := 1 + rng.Intn(6)
		e := &Engine{
			look: Time(1+rng.Intn(100)) * Microsecond,
			owns: make([]bool, S),
			next: make([]Time, S),
			ends: make([]Time, S),
		}
		spread := []int64{3, 300, 300_000_000}[rng.Intn(3)] // ns: ties, within a latency, far apart
		for s := 0; s < S; s++ {
			e.owns[s] = rng.Intn(4) > 0
			e.next[s] = Time(rng.Int63n(spread))
			if rng.Intn(3) == 0 {
				e.next[s] = maxTime
			}
		}
		e.setWindows()
		if want := relaxRef(e.next, e.owns, e.look); !slices.Equal(e.ends, want) {
			t.Fatalf("seed %d: next=%d owns=%v L=%d (ns)\nclosed form %d\nrelaxation  %d",
				seed, e.next, e.owns, e.look, e.ends, want)
		}
	}
}

// TestBarrierRoundsPinned: the coordination-round counts of the mesh
// fixture at S = 4, recorded with the matrix relaxation before the closed
// form replaced it, then lowered 42 → 41 when wait timeouts a message beat
// left the heap (111 of the fixture's 1,474 events) instead of holding a
// window open. Otherwise the window rule decides these and nothing else does.
func TestBarrierRoundsPinned(t *testing.T) {
	skew := func(int, int) int { return 0 }
	for _, tc := range []struct {
		label     string
		partition func(id, shards int) int
		want      uint64
	}{
		{"round-robin adaptive", nil, 41},
		{"all-on-shard-0 adaptive", skew, 1},
	} {
		e := NewEngine(Config{Seed: 42, Shards: 4, Partition: tc.partition})
		spawnMeshWorkload(Machine{e}, 13, 25)
		if err := e.Run(); err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		if got := e.BarrierRounds(); got != tc.want {
			t.Errorf("%s: %d barrier rounds, want %d", tc.label, got, tc.want)
		}
	}
}
