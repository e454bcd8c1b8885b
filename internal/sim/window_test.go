package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// equalMesh asserts that two runMeshCfg outputs are byte-identical.
func equalMesh(t *testing.T, label string,
	wantMakespan Time, wantAccts []Account, wantCSV []byte,
	makespan Time, accts []Account, csv []byte) {
	t.Helper()
	if makespan != wantMakespan {
		t.Errorf("%s: makespan %v != reference %v", label, makespan, wantMakespan)
	}
	for i := range accts {
		if accts[i] != wantAccts[i] {
			t.Errorf("%s: proc %d account %v != reference %v", label, i, accts[i], wantAccts[i])
		}
	}
	if !bytes.Equal(csv, wantCSV) {
		t.Errorf("%s: span CSV diverges from reference (%d vs %d bytes)", label, len(csv), len(wantCSV))
	}
}

// TestRandomPartitionMatchesSerial: the byte-identity guarantee holds for
// *arbitrary* processor→shard maps, not just round-robin — including maps
// that leave some shards empty. The partition-invariant (at, ord) ordering
// key is what makes this true; this test is its direct check at the engine
// level (internal/bench runs the full-stack analogue over the paper
// drivers).
func TestRandomPartitionMatchesSerial(t *testing.T) {
	const n, rounds = 13, 25
	wantMakespan, wantAccts, wantCSV := runMesh(t, 1, n, rounds)
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
		makespan, accts, csv := runMeshCfg(t, cfg, n, rounds)
		label := fmt.Sprintf("trial %d (S=%d, map %v)", trial, shards, assign)
		equalMesh(t, label, wantMakespan, wantAccts, wantCSV, makespan, accts, csv)
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

// TestZonedNetworkMatchesSerial: with a two-level network (cheap intra-zone
// links, expensive inter-zone links) the sharded engine still matches the
// serial engine byte-for-byte, whether shards align with zones (blocked
// partition: wide inter-shard windows) or cut across them (round-robin:
// every pair shares a zone, minimum windows). This exercises the per-
// destination lookahead matrix with genuinely heterogeneous entries.
func TestZonedNetworkMatchesSerial(t *testing.T) {
	const n, rounds = 12, 25
	net := DefaultNetwork()
	net.ZoneSize = 4
	net.ZoneLatency = 10 * Microsecond
	base := Config{Network: net, Seed: 42}
	wantMakespan, wantAccts, wantCSV := runMeshCfg(t, base, n, rounds)
	blocked := func(id, shards int) int { return id * shards / n }
	for _, tc := range []struct {
		label     string
		shards    int
		partition func(id, shards int) int
	}{
		{"roundrobin S=2", 2, nil},
		{"roundrobin S=4", 4, nil},
		{"blocked S=3 (zone-aligned-ish)", 3, blocked},
		{"blocked S=4 (one zone per shard)", 4, blocked},
	} {
		cfg := base
		cfg.Shards = tc.shards
		cfg.Partition = tc.partition
		makespan, accts, csv := runMeshCfg(t, cfg, n, rounds)
		equalMesh(t, tc.label, wantMakespan, wantAccts, wantCSV, makespan, accts, csv)
	}
}

// TestAdaptiveWindowsMatchFixed: adaptive windows change only how many
// coordination rounds a run takes, never its output. On a dense, balanced
// workload they are allowed to collapse to the fixed bound (every shard's
// next event sits near the global minimum, so the relaxation cannot widen
// anything) but must never take more rounds; on a skewed partition —
// where some shards idle while one drains — they must cut rounds by at
// least 2×, since idle peers stop constraining the busy shard's window.
func TestAdaptiveWindowsMatchFixed(t *testing.T) {
	const n, rounds = 13, 25
	run := func(fixed bool, partition func(id, shards int) int) (Time, []Account, []byte, uint64) {
		e := NewEngine(Config{Seed: 42, Shards: 4, FixedWindows: fixed, Partition: partition})
		e.EnableTracing()
		spawnMeshWorkload(e, n, rounds)
		if err := e.Run(); err != nil {
			t.Fatalf("fixed=%v: %v", fixed, err)
		}
		accts := make([]Account, n)
		for i := 0; i < n; i++ {
			accts[i] = *e.Proc(i).Account()
		}
		var csv bytes.Buffer
		if err := e.WriteSpansCSV(&csv); err != nil {
			t.Fatal(err)
		}
		return e.Makespan(), accts, csv.Bytes(), e.BarrierRounds()
	}

	// Balanced round-robin: identical output, no more rounds than fixed.
	fixedMakespan, fixedAccts, fixedCSV, fixedRounds := run(true, nil)
	adMakespan, adAccts, adCSV, adRounds := run(false, nil)
	equalMesh(t, "adaptive vs fixed (balanced)", fixedMakespan, fixedAccts, fixedCSV, adMakespan, adAccts, adCSV)
	if fixedRounds == 0 || adRounds == 0 {
		t.Fatalf("rounds not counted: fixed=%d adaptive=%d", fixedRounds, adRounds)
	}
	if adRounds > fixedRounds {
		t.Errorf("balanced: adaptive used %d rounds, fixed used %d — must not be worse", adRounds, fixedRounds)
	}

	// Degenerate partition (every processor on shard 0, shards 1-3 empty):
	// empty peers never send, so the relaxation leaves the busy shard's
	// window unbounded and the whole run drains in a handful of rounds —
	// the limiting case of the tail-drain collapse adaptive windows buy on
	// imbalanced workloads. Fixed windows still pay one barrier per
	// lookahead width.
	skew := func(int, int) int { return 0 }
	fixedMakespan, fixedAccts, fixedCSV, fixedRounds = run(true, skew)
	adMakespan, adAccts, adCSV, adRounds = run(false, skew)
	equalMesh(t, "adaptive vs fixed (skewed)", fixedMakespan, fixedAccts, fixedCSV, adMakespan, adAccts, adCSV)
	if adRounds*2 > fixedRounds {
		t.Errorf("skewed: adaptive used %d rounds vs fixed %d — expected >= 2x reduction", adRounds, fixedRounds)
	}
}

// TestShardTelemetry: per-shard event counts sum to the total, the
// imbalance ratio is sane (>= 1 once events fired, exactly the max/mean of
// the per-shard counts) and barrier rounds are counted.
func TestShardTelemetry(t *testing.T) {
	e := NewEngine(Config{Seed: 42, Shards: 4})
	spawnMeshWorkload(e, 13, 10)
	if e.ImbalanceRatio() != 0 {
		t.Errorf("pre-run imbalance = %v, want 0", e.ImbalanceRatio())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	per := e.ShardEventsFired()
	if len(per) != 4 {
		t.Fatalf("ShardEventsFired len = %d", len(per))
	}
	var sum, max uint64
	for _, c := range per {
		sum += c
		if c > max {
			max = c
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

// TestLookaheadMatrix: buildLookahead derives the documented matrix from
// the partition map and zone structure — flat networks give Latency
// everywhere, zone-aligned shards see the expensive inter-zone latency,
// zone-straddling shards the cheap intra-zone one, and empty shards never
// constrain anyone.
func TestLookaheadMatrix(t *testing.T) {
	net := DefaultNetwork()
	net.ZoneSize = 2
	net.ZoneLatency = 5 * Microsecond

	build := func(cfg Config, nProcs int) *Engine {
		e := NewEngine(cfg)
		for i := 0; i < nProcs; i++ {
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {})
		}
		e.buildLookahead()
		return e
	}

	// Flat network: every populated entry is the global latency.
	e := build(Config{Shards: 2}, 4)
	if e.minLat[0][1] != e.cfg.Network.Latency || e.minLat[1][0] != e.cfg.Network.Latency {
		t.Errorf("flat matrix = %v, want all %v", e.minLat, e.cfg.Network.Latency)
	}

	// Blocked partition on a zoned network: shard 0 = {0,1} = zone 0,
	// shard 1 = {2,3} = zone 1. No shared zone, so cross-shard lookahead is
	// the wide inter-zone latency.
	blocked := func(id, shards int) int { return id * shards / 4 }
	e = build(Config{Network: net, Shards: 2, Partition: blocked}, 4)
	if e.minLat[0][1] != net.Latency {
		t.Errorf("zone-aligned minLat[0][1] = %v, want inter-zone %v", e.minLat[0][1], net.Latency)
	}

	// Round-robin on the same network: both shards occupy both zones, so
	// the cheapest cross-shard link is intra-zone.
	e = build(Config{Network: net, Shards: 2}, 4)
	if e.minLat[0][1] != net.ZoneLatency {
		t.Errorf("straddling minLat[0][1] = %v, want intra-zone %v", e.minLat[0][1], net.ZoneLatency)
	}

	// Empty shard: spawn 2 procs on 3 shards round-robin — shard 2 owns
	// nothing, its row and column are "never".
	e = build(Config{Shards: 3}, 2)
	if e.minLat[2][0] != maxTime || e.minLat[0][2] != maxTime {
		t.Errorf("empty-shard entries = %v / %v, want maxTime", e.minLat[2][0], e.minLat[0][2])
	}

	// Both shards confined to one common zone: only intra-zone links exist.
	one := func(id, shards int) int { return id % shards }
	e = build(Config{Network: net, Shards: 2, Partition: one}, 2)
	if e.minLat[0][1] != net.ZoneLatency {
		t.Errorf("single-zone minLat[0][1] = %v, want %v", e.minLat[0][1], net.ZoneLatency)
	}
}

// TestMinLatency: the network's global minimum accounts for zoning.
func TestMinLatency(t *testing.T) {
	net := DefaultNetwork()
	if net.MinLatency() != net.Latency {
		t.Errorf("flat MinLatency = %v, want %v", net.MinLatency(), net.Latency)
	}
	net.ZoneSize = 4
	net.ZoneLatency = 10 * Microsecond
	if net.MinLatency() != 10*Microsecond {
		t.Errorf("zoned MinLatency = %v, want 10µs", net.MinLatency())
	}
	net.ZoneLatency = 0 // unset: behaves flat
	if net.MinLatency() != net.Latency {
		t.Errorf("unset ZoneLatency MinLatency = %v, want %v", net.MinLatency(), net.Latency)
	}
}
