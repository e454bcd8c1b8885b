package sim

import (
	"fmt"
	"slices"
	"testing"

	"prema/internal/substrate"
	"prema/internal/trace"
)

// spawnMeshWorkload builds a deterministic but irregular message-passing
// workload: n processors advance randomized compute quanta (from their own
// per-processor streams), gossip to varying peers, and acknowledge what they
// receive. It exercises every hot path — wakes, local and cross-shard
// deliveries, FIFO bumps, blocked receives with timeouts — so it is the
// fixture for the serial-vs-sharded equivalence tests below.
func spawnMeshWorkload(m substrate.Machine, n, rounds int) {
	for i := 0; i < n; i++ {
		m.Spawn(fmt.Sprintf("p%d", i), func(p substrate.Endpoint) {
			rng := p.Rand()
			for r := 0; r < rounds; r++ {
				p.Advance(Time(1+rng.Intn(40))*Microsecond, CatCompute)
				dst := rng.Intn(p.NumPeers())
				if dst == p.ID() {
					dst = (dst + 1) % p.NumPeers()
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

// meshRun is the observable output of one fixture run: makespan,
// per-processor accounts and every processor's internal/trace stream
// recorded over the seam.
type meshRun struct {
	makespan Time
	accts    []Account
	events   [][]trace.Event
}

// runMesh executes the fixture on a fresh engine behind the tracing
// decorator.
func runMesh(t *testing.T, cfg Config, n, rounds int) meshRun {
	t.Helper()
	e := NewEngine(cfg)
	col := trace.NewCollector(0)
	spawnMeshWorkload(trace.Wrap(Machine{e}, col), n, rounds)
	if err := e.Run(); err != nil {
		t.Fatalf("%+v: %v", cfg, err)
	}
	if col.Dropped() != 0 {
		t.Fatalf("trace ring overflowed: %d events dropped", col.Dropped())
	}
	out := meshRun{makespan: e.Makespan()}
	for i := 0; i < n; i++ {
		out.accts = append(out.accts, *e.Proc(i).Account())
		out.events = append(out.events, slices.Collect(col.Recorder(i).Events()))
	}
	return out
}

// equalMesh asserts that two fixture runs produced identical output.
func equalMesh(t *testing.T, label string, want, got meshRun) {
	t.Helper()
	if got.makespan != want.makespan {
		t.Errorf("%s: makespan %v != reference %v", label, got.makespan, want.makespan)
	}
	for i := range got.accts {
		if got.accts[i] != want.accts[i] {
			t.Errorf("%s: proc %d account %v != reference %v", label, i, got.accts[i], want.accts[i])
		}
		if !slices.Equal(got.events[i], want.events[i]) {
			t.Errorf("%s: proc %d trace stream diverges from reference (%d vs %d events)",
				label, i, len(got.events[i]), len(want.events[i]))
		}
	}
}

// TestShardedMatchesSerial: for a spread of shard counts (including a prime
// that divides nothing evenly) the sharded engine produces byte-identical
// output to the serial engine — same makespan, same per-processor accounts,
// same trace stream. This is the engine-level half of the byte-identity
// guarantee; TestEquivalence in internal/bench checks the full-stack half
// over every system the CLIs run.
func TestShardedMatchesSerial(t *testing.T) {
	const n, rounds = 13, 30
	want := runMesh(t, Config{Seed: 42}, n, rounds)
	for _, s := range []int{2, 4, 7, 8} {
		equalMesh(t, fmt.Sprintf("shards=%d", s), want, runMesh(t, Config{Seed: 42, Shards: s}, n, rounds))
	}
}

// TestShardClampAndAccessors: shard count is clamped to 1 when requested
// below 1 or when the network has no latency to use as lookahead.
func TestShardClampAndAccessors(t *testing.T) {
	if got := len(NewEngine(Config{Shards: 0}).shards); got != 1 {
		t.Errorf("Shards:0 clamps to %d, want 1", got)
	}
	if got := len(NewEngine(Config{Shards: 4}).shards); got != 4 {
		t.Errorf("Shards:4 gives %d", got)
	}
	if got := len(NewEngine(Config{Network: &substrate.Network{}, Shards: 4}).shards); got != 1 {
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

// TestCrossShardMailboxZeroAllocs: once the outbox and the destination's
// ring are warm, a post→exchange→fire cycle across shards allocates nothing.
// This pins the claim in Engine.exchange's doc comment.
func TestCrossShardMailboxZeroAllocs(t *testing.T) {
	e := NewEngine(Config{Shards: 2})
	// Round-robin puts the two processors on shards 0 and 1. They are never
	// run: the fixture needs only the state post and exchange keep per
	// processor (the sender's FIFO, the receiver's in-flight arrivals).
	from := e.Spawn("src", func(*Proc) {})
	to := e.Spawn("dst", func(*Proc) {})
	src, dst := e.shards[0], e.shards[1]
	m := &Msg{Src: 0, Dst: 1, Size: 8}
	var sendSeq uint64
	cycle := func() {
		sendSeq++
		src.post(m, from.arrival(m.Dst, m.Size), sendSeq)
		if dst.ring.n != 0 {
			t.Fatal("a cross-shard delivery reached the ring before the exchange")
		}
		e.exchange()
		to.inflight.pop()
		if dst.ring.n != 1 || dst.ring.pop() != m {
			t.Fatal("message did not cross the mailbox")
		}
	}
	cycle() // warm the outbox and the ring
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Errorf("cross-shard mailbox path allocates %.1f per cycle, want 0", avg)
	}
	e.teardown()
}
