package sim

import (
	"bytes"
	"fmt"
	"testing"
)

// spawnMeshWorkload builds a deterministic but irregular message-passing
// workload: n processors advance randomized compute quanta (from their own
// per-processor streams), gossip to varying peers, and acknowledge what they
// receive. It exercises every hot path — wakes, local and cross-shard
// deliveries, FIFO bumps, blocked receives with timeouts — so it is the
// fixture for the serial-vs-sharded equivalence tests below.
func spawnMeshWorkload(e *Engine, n, rounds int) {
	for i := 0; i < n; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			rng := p.Rand()
			for r := 0; r < rounds; r++ {
				p.Advance(Time(1+rng.Intn(40))*Microsecond, CatCompute)
				dst := rng.Intn(p.Engine().NumProcs())
				if dst == p.ID() {
					dst = (dst + 1) % p.Engine().NumProcs()
				}
				p.Send(&Msg{Dst: dst, Tag: 1, Size: 64 + rng.Intn(256)}, CatMessaging)
				if p.WaitMsgFor(Time(50+rng.Intn(100))*Microsecond, CatIdle) {
					p.TryRecv(CatMessaging)
				}
			}
			// Drain stragglers so the run ends without deadlock.
			for p.WaitMsgFor(200*Microsecond, CatIdle) {
				p.TryRecv(CatMessaging)
			}
		})
	}
}

// runMesh executes the fixture on a fresh engine and returns its observable
// output: the error, makespan, per-processor accounts, and the span CSV.
func runMesh(t *testing.T, shards, n, rounds int) (Time, []Account, []byte) {
	t.Helper()
	return runMeshCfg(t, Config{Seed: 42, Shards: shards}, n, rounds)
}

// runMeshCfg is runMesh with full control over the engine configuration
// (partition map, window mode).
func runMeshCfg(t *testing.T, cfg Config, n, rounds int) (Time, []Account, []byte) {
	t.Helper()
	e := NewEngine(cfg)
	e.EnableTracing()
	spawnMeshWorkload(e, n, rounds)
	if err := e.Run(); err != nil {
		t.Fatalf("shards=%d: %v", cfg.Shards, err)
	}
	accts := make([]Account, n)
	for i := 0; i < n; i++ {
		accts[i] = *e.Proc(i).Account()
	}
	var csv bytes.Buffer
	if err := e.WriteSpansCSV(&csv); err != nil {
		t.Fatal(err)
	}
	return e.Makespan(), accts, csv.Bytes()
}

// TestShardedMatchesSerial: for a spread of shard counts (including a prime
// that divides nothing evenly) the sharded engine produces byte-identical
// output to the serial engine — same makespan, same per-processor accounts,
// same span trace. This is the engine-level half of the byte-identity
// guarantee; internal/bench/shard_equivalence_test.go checks the full-stack
// half over the paper's drivers.
func TestShardedMatchesSerial(t *testing.T) {
	const n, rounds = 13, 30
	wantMakespan, wantAccts, wantCSV := runMesh(t, 1, n, rounds)
	for _, s := range []int{2, 4, 7, 8} {
		makespan, accts, csv := runMesh(t, s, n, rounds)
		if makespan != wantMakespan {
			t.Errorf("shards=%d: makespan %v != serial %v", s, makespan, wantMakespan)
		}
		for i := range accts {
			if accts[i] != wantAccts[i] {
				t.Errorf("shards=%d: proc %d account %v != serial %v", s, i, accts[i], wantAccts[i])
			}
		}
		if !bytes.Equal(csv, wantCSV) {
			t.Errorf("shards=%d: span CSV diverges from serial (%d vs %d bytes)", s, len(csv), len(wantCSV))
		}
	}
}

// TestShardClampAndAccessors: shard count is clamped to 1 when requested
// below 1 or when the network has no latency to use as lookahead.
func TestShardClampAndAccessors(t *testing.T) {
	if got := NewEngine(Config{Shards: 0}).Shards(); got != 1 {
		t.Errorf("Shards:0 clamps to %d, want 1", got)
	}
	if got := NewEngine(Config{Shards: 4}).Shards(); got != 4 {
		t.Errorf("Shards:4 gives %d", got)
	}
	cfg := DefaultNetwork()
	cfg.Latency = 0
	cfg.PerByte = 1 // keep the config non-zero so it is not defaulted
	if got := NewEngine(Config{Network: cfg, Shards: 4}).Shards(); got != 1 {
		t.Errorf("zero-latency network should force serial, got %d shards", got)
	}
}

// TestShardedDeadlockDetected: the sharded engine reports the same deadlock
// error (sorted stuck-processor names) the serial engine does.
func TestShardedDeadlockDetected(t *testing.T) {
	for _, s := range []int{1, 3} {
		e := NewEngine(Config{Shards: s})
		for i := 0; i < 4; i++ {
			e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) { p.WaitMsg(CatIdle) })
		}
		err := e.Run()
		if err == nil {
			t.Fatalf("shards=%d: deadlock not detected", s)
		}
		want := "sim: deadlock: 4 processors still blocked: w0, w1, w2, w3"
		if err.Error() != want {
			t.Errorf("shards=%d: error %q, want %q", s, err.Error(), want)
		}
	}
}

// TestShardedPanicPropagates: a processor panic on any shard surfaces as a
// Run error and still tears the machine down cleanly.
func TestShardedPanicPropagates(t *testing.T) {
	e := NewEngine(Config{Shards: 2})
	e.Spawn("ok", func(p *Proc) { p.WaitMsgFor(Second, CatIdle) })
	e.Spawn("boom", func(p *Proc) {
		p.Advance(Microsecond, CatCompute)
		panic("kaboom")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("panic did not surface")
	}
}

// TestCrossShardMailboxZeroAllocs: once the mailbox backing arrays and event
// free lists are warm, a post→exchange→fire cycle across shards allocates
// nothing. This pins the claim in Engine.exchange's doc comment.
func TestCrossShardMailboxZeroAllocs(t *testing.T) {
	e := NewEngine(Config{Shards: 2})
	e.assign = []int{0, 1} // what Spawn would build for two procs, sans procs
	src, dst := e.shards[0], e.shards[1]
	m := &Msg{Src: 0, Dst: 1, Size: 8}
	var sendSeq uint64
	cycle := func() {
		sendSeq++
		src.post(m, sendSeq)
		e.exchange()
		top, ok := dst.heap.Pop()
		if !ok || top.ev.msg != m {
			t.Fatal("message did not cross the mailbox")
		}
		dst.release(top.ev)
	}
	cycle() // warm the outbox, heap, and free list
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Errorf("cross-shard mailbox path allocates %.1f per cycle, want 0", avg)
	}
}
