package bench

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// goldenHash fingerprints everything a Result exposes: the summary line, the
// full per-processor breakdown, the ledgers, and the counters. Two runs with
// equal hashes produced byte-identical reports.
func goldenHash(r *Result) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, r.Summary())
	fmt.Fprint(h, r.Breakdown(1))
	for i := range r.Accounts {
		fmt.Fprintf(h, "%v", r.Accounts[i])
	}
	keys := make([]string, 0, len(r.Counters))
	for k := range r.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%d;", k, r.Counters[k])
	}
	return h.Sum64()
}

// TestShardEquivalenceProperty is the randomized full-stack half of the
// byte-identity guarantee (the engine-level half lives in
// internal/sim/shard_test.go): random figure scenarios on random systems,
// run serially and on a random shard count — including 7, which divides
// nothing evenly — must produce the same golden hash and the same
// per-processor accounts.
func TestShardEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	shardChoices := []int{2, 4, 7}
	for trial := 0; trial < 6; trial++ {
		spec := FigureSpec{
			ID:        3 + rng.Intn(4),
			Imbalance: 0.1 + 0.8*rng.Float64(),
			Ratio:     1.1 + rng.Float64(),
		}
		procs := 5 + rng.Intn(20)
		upp := 4 + rng.Intn(8)
		system := SystemNames[rng.Intn(len(SystemNames))]
		shards := shardChoices[rng.Intn(len(shardChoices))]
		name := fmt.Sprintf("trial%d_%s_p%d_s%d", trial, system, procs, shards)
		t.Run(name, func(t *testing.T) {
			w := PaperWorkload(spec, procs, upp)
			if rng.Intn(2) == 0 {
				w.Hints = HintAccurate
			}
			serial, err := RunSystem(system, w)
			if err != nil {
				t.Fatal(err)
			}
			w.Shards = shards
			sharded, err := RunSystem(system, w)
			if err != nil {
				t.Fatal(err)
			}
			if g, s := goldenHash(serial), goldenHash(sharded); g != s {
				t.Errorf("golden hash diverges: serial %x, shards=%d %x\nserial:  %s\nsharded: %s",
					g, shards, s, serial.Summary(), sharded.Summary())
			}
			for i := range serial.Accounts {
				if serial.Accounts[i] != sharded.Accounts[i] {
					t.Errorf("proc %d ledger diverges:\nserial:  %v\nsharded: %v",
						i, serial.Accounts[i], sharded.Accounts[i])
				}
			}
		})
	}
}

// TestShardTraceEquivalence: the trace event streams — per-processor
// sequences of every recorded event, which subsume the event multiset — are
// identical between serial and sharded runs of the traced systems, as are
// makespan and ledgers, and work is conserved. The last row runs behind the
// fault injector in reliable mode: drops, duplicates, delays and the
// retransmissions they cause cross shard windows like any other message.
func TestShardTraceEquivalence(t *testing.T) {
	w := PaperWorkload(FigureSpec{ID: 3, Imbalance: 0.5, Ratio: 2.0}, 9, 6)
	type row struct {
		name   string
		spec   RunSpec
		shards int
	}
	var rows []row
	for _, system := range []string{"none", "prema-explicit", "prema-implicit"} {
		for _, shards := range []int{2, 7} {
			rows = append(rows, row{fmt.Sprintf("%s_s%d", system, shards), RunSpec{System: system}, shards})
		}
	}
	rows = append(rows, row{"prema-implicit_faulted_s4", RunSpec{
		System:    "prema-implicit",
		FaultPlan: "drop=0.05,dup=0.05,delay=0.2:2ms",
		FaultSeed: 11,
		Reliable:  true,
	}, 4})
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			spec.W, spec.Trace = w, true
			serial, err := spec.Run()
			if err != nil {
				t.Fatal(err)
			}
			spec.W.Shards = tc.shards
			sharded, err := spec.Run()
			if err != nil {
				t.Fatal(err)
			}
			colSerial, colSharded := serial.Trace, sharded.Trace
			if serial.Makespan != sharded.Makespan {
				t.Fatalf("makespan diverges: %v vs %v", serial.Makespan, sharded.Makespan)
			}
			if !reflect.DeepEqual(serial.Accounts, sharded.Accounts) {
				t.Errorf("ledgers diverge:\nserial:  %v\nsharded: %v", serial.Accounts, sharded.Accounts)
			}
			if err := sharded.CheckConservation(); err != nil {
				t.Error(err)
			}
			if a, b := colSerial.NumProcs(), colSharded.NumProcs(); a != b {
				t.Fatalf("recorder count diverges: %d vs %d", a, b)
			}
			for i := 0; i < colSerial.NumProcs(); i++ {
				a := colSerial.Recorder(i).Events()
				b := colSharded.Recorder(i).Events()
				if !reflect.DeepEqual(a, b) {
					t.Errorf("proc %d trace stream diverges (%d vs %d events)", i, len(a), len(b))
				}
			}
		})
	}
}

// TestFigure3BarrierRoundsPinned: the coordination-round counts of
// prema-implicit on Figure 3 at 8 processors × 6 units, recorded with the
// engine's matrix relaxation and the blocked placement before the closed-form
// window rule and the single placement replaced them.
func TestFigure3BarrierRoundsPinned(t *testing.T) {
	for shards, want := range map[int]uint64{2: 3360, 4: 3758} {
		w := PaperWorkload(Figures()[0], 8, 6)
		w.Shards = shards
		r, err := RunSystem("prema-implicit", w)
		if err != nil {
			t.Fatal(err)
		}
		if r.BarrierRounds != want || r.Events != 11372 {
			t.Errorf("shards=%d: %d barrier rounds over %d events, want %d over 11372",
				shards, r.BarrierRounds, r.Events, want)
		}
	}
}
