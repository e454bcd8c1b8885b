package bench

import (
	"fmt"
	"math/rand"
	"testing"

	"prema/internal/trace"
)

// TestPartitionStrategiesEquivalence: every named placement strategy yields
// the serial golden hash on every system × figure combination it is thrown
// at. This is the full-stack guarantee behind the CLIs' -partition flag.
func TestPartitionStrategiesEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 4; trial++ {
		spec := FigureSpec{
			ID:        3 + rng.Intn(4),
			Imbalance: 0.1 + 0.8*rng.Float64(),
			Ratio:     1.1 + rng.Float64(),
		}
		procs := 5 + rng.Intn(16)
		upp := 4 + rng.Intn(6)
		system := SystemNames[rng.Intn(len(SystemNames))]
		shards := []int{2, 3, 4, 7}[rng.Intn(4)]
		t.Run(fmt.Sprintf("trial%d_%s_p%d_s%d", trial, system, procs, shards), func(t *testing.T) {
			w := PaperWorkload(spec, procs, upp)
			serial, err := RunSystem(system, w)
			if err != nil {
				t.Fatal(err)
			}
			want := goldenHash(serial)
			for _, strategy := range PartitionStrategies {
				w.Shards = shards
				w.Partition = strategy
				got, err := RunSystem(system, w)
				if err != nil {
					t.Fatalf("%s: %v", strategy, err)
				}
				if h := goldenHash(got); h != want {
					t.Errorf("%s (S=%d): golden hash %x != serial %x\nserial:    %s\npartition: %s",
						strategy, shards, h, want, serial.Summary(), got.Summary())
				}
				if got.Events != serial.Events {
					t.Errorf("%s: fired %d events, serial fired %d", strategy, got.Events, serial.Events)
				}
			}
		})
	}
}

// TestRandomPartitionMapEquivalence: beyond the named strategies, completely
// random processor→shard maps — injected through the same hook the Workload
// plumbing uses — still reproduce the serial golden hash. Random maps cover
// assignments no strategy would produce (empty shards, pathological
// clustering), so this is the strongest full-stack form of the
// partition-invariance property.
func TestRandomPartitionMapEquivalence(t *testing.T) {
	defer func() { testPartition = nil }()
	rng := rand.New(rand.NewSource(7))
	spec := FigureSpec{ID: 4, Imbalance: 0.5, Ratio: 2.0}
	for trial := 0; trial < 4; trial++ {
		procs := 6 + rng.Intn(12)
		upp := 4 + rng.Intn(5)
		system := SystemNames[rng.Intn(len(SystemNames))]
		shards := 2 + rng.Intn(5)
		assign := make([]int, procs)
		for i := range assign {
			assign[i] = rng.Intn(shards)
		}
		t.Run(fmt.Sprintf("trial%d_%s_p%d_s%d", trial, system, procs, shards), func(t *testing.T) {
			testPartition = nil
			w := PaperWorkload(spec, procs, upp)
			serial, err := RunSystem(system, w)
			if err != nil {
				t.Fatal(err)
			}
			testPartition = func(id, _ int) int { return assign[id] }
			defer func() { testPartition = nil }()
			w.Shards = shards
			sharded, err := RunSystem(system, w)
			if err != nil {
				t.Fatal(err)
			}
			if g, s := goldenHash(serial), goldenHash(sharded); g != s {
				t.Errorf("map %v: golden hash diverges: serial %x, sharded %x", assign, g, s)
			}
			for i := range serial.Accounts {
				if serial.Accounts[i] != sharded.Accounts[i] {
					t.Errorf("map %v: proc %d ledger diverges", assign, i)
				}
			}
		})
	}
}

// TestPartitionedChaosAndTraceEquivalence: the partition knob composes with
// the fault injector and the trace recorder — a faulted, traced, sharded,
// load-partitioned run reports the same makespan, ledgers, and per-processor
// trace streams as the serial equivalent. This covers the -fault-plan and
// -trace legs of the byte-identity acceptance criterion.
func TestPartitionedChaosAndTraceEquivalence(t *testing.T) {
	const plan = "drop=0.05,dup=0.05,delay=0.2:2ms"
	w := PaperWorkload(FigureSpec{ID: 3, Imbalance: 0.5, Ratio: 2.0}, 9, 6)
	run := func(shards int, partition string) (*Result, *trace.Collector) {
		w := w
		w.Shards = shards
		w.Partition = partition
		res, err := RunSpec{
			System:    "prema-implicit",
			W:         w,
			FaultPlan: plan,
			FaultSeed: 11,
			Reliable:  true,
			Trace:     true,
		}.Run()
		if err != nil {
			t.Fatalf("shards=%d partition=%q: %v", shards, partition, err)
		}
		return res, res.Trace
	}
	serial, serialCol := run(1, "")
	for _, strategy := range PartitionStrategies {
		sharded, shardedCol := run(4, strategy)
		if serial.Makespan != sharded.Makespan {
			t.Errorf("%s: makespan %v != serial %v", strategy, sharded.Makespan, serial.Makespan)
		}
		for i := range serial.Accounts {
			if serial.Accounts[i] != sharded.Accounts[i] {
				t.Errorf("%s: proc %d ledger diverges", strategy, i)
			}
		}
		if err := sharded.CheckConservation(); err != nil {
			t.Errorf("%s: %v", strategy, err)
		}
		for i := 0; i < serialCol.NumProcs(); i++ {
			a := serialCol.Recorder(i).Events()
			b := shardedCol.Recorder(i).Events()
			if len(a) != len(b) {
				t.Errorf("%s: proc %d trace stream length %d != serial %d", strategy, i, len(b), len(a))
				continue
			}
			for j := range a {
				if a[j] != b[j] {
					t.Errorf("%s: proc %d trace event %d diverges", strategy, i, j)
					break
				}
			}
		}
	}
}

// TestLoadedPartitionBalances: on the paper's skewed block distribution the
// LPT strategy must spread expected work across shards strictly better than
// the blocked strategy, which concentrates the heavy prefix on shard 0 —
// the point of having a load-aware placement at all. (Round-robin also
// balances this workload well; blocked is the adversarial case.)
func TestLoadedPartitionBalances(t *testing.T) {
	w := PaperWorkload(FigureSpec{ID: 3, Imbalance: 0.3, Ratio: 10.0}, 32, 8)
	const shards = 4
	perShard := func(strategy string) []float64 {
		w := w
		w.Partition = strategy
		fn := w.partition()
		if fn == nil {
			fn = func(id, shards int) int { return id % shards }
		}
		load := make([]float64, shards)
		for p := 0; p < w.Procs; p++ {
			var wt float64
			for _, u := range w.UnitsOf(p) {
				wt += w.Actual(u).Seconds()
			}
			load[fn(p, shards)] += wt
		}
		return load
	}
	spread := func(load []float64) float64 {
		min, max := load[0], load[0]
		for _, l := range load {
			if l < min {
				min = l
			}
			if l > max {
				max = l
			}
		}
		if min == 0 {
			return max
		}
		return max / min
	}
	blocked := spread(perShard(PartitionBlocked))
	loaded := spread(perShard(PartitionLoaded))
	if loaded >= blocked {
		t.Errorf("loaded spread %.3f not better than blocked %.3f", loaded, blocked)
	}
	if loaded > 1.05 {
		t.Errorf("loaded spread %.3f — LPT should be within 5%% of perfect on this workload", loaded)
	}
}

// TestValidPartition: the CLI validation helper accepts exactly the named
// strategies plus the empty default.
func TestValidPartition(t *testing.T) {
	for _, ok := range append([]string{""}, PartitionStrategies...) {
		if !ValidPartition(ok) {
			t.Errorf("ValidPartition(%q) = false", ok)
		}
	}
	for _, bad := range []string{"random", "Loaded", "round-robin"} {
		if ValidPartition(bad) {
			t.Errorf("ValidPartition(%q) = true", bad)
		}
	}
}
