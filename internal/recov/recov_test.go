package recov

import (
	"reflect"
	"testing"

	"prema/internal/substrate"
)

// fakeEP satisfies just the endpoint surface the store touches: identity and
// a clock the test can move by hand.
type fakeEP struct {
	substrate.Endpoint
	id  int
	now substrate.Time
}

func (f *fakeEP) ID() int             { return f.id }
func (f *fakeEP) Now() substrate.Time { return f.now }

func ms(n int) substrate.Time { return substrate.Time(n) * substrate.Millisecond }

// TestLeaseVerdict: a silent processor is declared down exactly once, the
// first observer is the sole coordinator, and later ticks stay quiet.
func TestLeaseVerdict(t *testing.T) {
	st := NewStore(Config{LeaseTimeout: 100 * substrate.Millisecond})
	eps := []*fakeEP{{id: 0}, {id: 1}, {id: 2}}
	procs := make([]*Proc, len(eps))
	for i, ep := range eps {
		procs[i] = st.Join(ep)
	}
	// Everyone healthy well past one timeout.
	for _, ep := range eps {
		ep.now = ms(90)
	}
	for i, p := range procs {
		if d := p.Tick(); len(d) != 0 {
			t.Fatalf("proc %d: verdicts %v before any lease expiry", i, d)
		}
	}
	// Processor 2 goes silent; 0 and 1 keep ticking (renewing their own
	// leases) until 2's lease from ms(90) expires.
	eps[0].now, eps[1].now = ms(150), ms(150)
	procs[0].Tick()
	procs[1].Tick()
	eps[0].now, eps[1].now = ms(240), ms(240)
	d0 := procs[0].Tick()
	d1 := procs[1].Tick()
	want0 := []Down{{Proc: 2, Coordinator: true}}
	want1 := []Down{{Proc: 2, Coordinator: false}}
	if !reflect.DeepEqual(d0, want0) {
		t.Errorf("first observer verdicts = %v, want %v", d0, want0)
	}
	if !reflect.DeepEqual(d1, want1) {
		t.Errorf("second observer verdicts = %v, want %v", d1, want1)
	}
	// The verdict is surfaced once per processor, not once per tick.
	if d := procs[0].Tick(); len(d) != 0 {
		t.Errorf("repeat tick re-surfaced verdicts %v", d)
	}
	if !procs[0].IsDown(2) || procs[0].IsDown(1) {
		t.Error("IsDown disagrees with the verdict")
	}
	if got := st.Stats().Suspects; got != 1 {
		t.Errorf("suspects = %d, want 1", got)
	}
	if got := st.Downs(); got != 1 {
		t.Errorf("downs = %d, want 1", got)
	}
}

// TestRejoinAndSecondCrash: re-joining clears the down verdict, and a second
// crash of the same processor raises a fresh verdict with a fresh
// coordinator claim.
func TestRejoinAndSecondCrash(t *testing.T) {
	st := NewStore(Config{LeaseTimeout: 100 * substrate.Millisecond})
	ep0, ep1 := &fakeEP{id: 0}, &fakeEP{id: 1}
	p0 := st.Join(ep0)
	st.Join(ep1)
	ep0.now = ms(250)
	if d := p0.Tick(); len(d) != 1 || d[0].Proc != 1 || !d[0].Coordinator {
		t.Fatalf("first crash verdicts = %v", d)
	}
	// Processor 1 comes back.
	ep1.now = ms(400)
	p1b := st.Join(ep1)
	if p0.IsDown(1) {
		t.Error("still down after rejoin")
	}
	if got := st.Stats().Rejoins; got != 1 {
		t.Errorf("rejoins = %d, want 1", got)
	}
	// ...and crashes again.
	ep0.now = ms(600)
	if d := p0.Tick(); len(d) != 1 || d[0].Proc != 1 || !d[0].Coordinator {
		t.Fatalf("second crash verdicts = %v, want a fresh coordinator claim", d)
	}
	if got := st.Stats().Suspects; got != 2 {
		t.Errorf("suspects = %d, want 2", got)
	}
	if got := st.Downs(); got != 1 {
		t.Errorf("downs = %d, want 1 (same processor twice)", got)
	}
	_ = p1b
}

// TestNextAct: the heartbeat's next act is the instant after the earliest
// live peer's lease — the first instant a Tick declares that peer down —
// else the next checkpoint; retired and down peers do not count.
func TestNextAct(t *testing.T) {
	st := NewStore(Config{LeaseTimeout: ms(100), CheckpointInterval: ms(1000)})
	eps := []*fakeEP{{id: 0}, {id: 1}, {id: 2}}
	procs := make([]*Proc, len(eps))
	for i, ep := range eps {
		procs[i] = st.Join(ep)
	}
	eps[1].now = ms(50)
	procs[1].Tick() // lease 1 runs to 150 ms, lease 2 to 100 ms
	if got, want := procs[0].NextAct(), ms(100)+1; got != want {
		t.Fatalf("NextAct = %v, want %v", got, want)
	}
	procs[2].Retire()
	next := procs[0].NextAct()
	if next != ms(150)+1 {
		t.Fatalf("NextAct with peer 2 retired = %v, want %v", next, ms(150)+1)
	}
	eps[0].now = next - 1
	if d := procs[0].Tick(); len(d) != 0 {
		t.Fatalf("verdicts %v before NextAct", d)
	}
	eps[0].now = next
	if d := procs[0].Tick(); len(d) != 1 || d[0].Proc != 1 {
		t.Fatalf("verdicts at NextAct = %v, want peer 1 down", d)
	}
	if got := procs[0].NextAct(); got != ms(1000) {
		t.Errorf("NextAct with no live peer = %v, want the checkpoint at %v", got, ms(1000))
	}
}

// TestExtendHoldsLease: Extend covers a long compute window during which the
// processor cannot tick.
func TestExtendHoldsLease(t *testing.T) {
	st := NewStore(Config{LeaseTimeout: 100 * substrate.Millisecond})
	ep0, ep1 := &fakeEP{id: 0}, &fakeEP{id: 1}
	p0 := st.Join(ep0)
	p1 := st.Join(ep1)
	p1.Extend(ms(1000))
	ep0.now = ms(900)
	if d := p0.Tick(); len(d) != 0 {
		t.Fatalf("extended lease still produced verdicts %v", d)
	}
	ep0.now = ms(1200)
	if d := p0.Tick(); len(d) != 1 {
		t.Fatalf("expired extended lease produced verdicts %v, want 1", d)
	}
}

// TestRetireSuppressesVerdict: a cleanly finished processor never becomes a
// false positive, and Survivors falls back to joined processors once all
// have retired.
func TestRetireSuppressesVerdict(t *testing.T) {
	st := NewStore(Config{LeaseTimeout: 100 * substrate.Millisecond})
	ep0, ep1 := &fakeEP{id: 0}, &fakeEP{id: 1}
	p0 := st.Join(ep0)
	p1 := st.Join(ep1)
	p1.Retire()
	ep0.now = ms(10_000)
	if d := p0.Tick(); len(d) != 0 {
		t.Fatalf("retired processor drew verdicts %v", d)
	}
	if got, want := st.Survivors(), []int{0}; !reflect.DeepEqual(got, want) {
		t.Errorf("survivors = %v, want %v", got, want)
	}
	p0.Retire()
	if got, want := st.Survivors(), []int{0, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("all-retired survivors = %v, want joined fallback %v", got, want)
	}
}

// TestManifestAndPlan: the manifest tracks home → departing → landed, a
// crash orphans exactly the objects located at the dead processor, and the
// plan's replay set honours the done watermarks.
func TestManifestAndPlan(t *testing.T) {
	st := NewStore(Config{LeaseTimeout: 100 * substrate.Millisecond})
	ep0, ep1 := &fakeEP{id: 0}, &fakeEP{id: 1}
	p0 := st.Join(ep0)
	p1 := st.Join(ep1)

	a, b := ObjID{Home: 0, Index: 0}, ObjID{Home: 0, Index: 1}
	p0.ObjectHome(a, "A0", 100, 1)
	p0.ObjectHome(b, "B0", 200, 2)
	// a migrates 0 → 1 (piggybacked checkpoint carries fresher state).
	p0.ObjectDeparting(a, 1, "A1", 110, 1)
	p1.ObjectHome(a, "A1", 110, 1)
	if loc, ok := p0.Location(a); !ok || loc != 1 {
		t.Fatalf("Location(a) = %d,%v want 1,true", loc, ok)
	}

	// Traffic: origin 0 sends seqs 0..3 to a; 0 and 1 have executed, so the
	// watermark sits at 2 and the log is pruned beneath it.
	for seq := uint64(0); seq < 4; seq++ {
		p0.LogEnvelope(a, 0, seq, int(seq), 8)
	}
	for seq := uint64(0); seq < 2; seq++ {
		if !p1.BeginUnit(a, 0, seq) {
			t.Fatalf("BeginUnit(a,0,%d) = false on first execution", seq)
		}
		p1.FinishUnit(a, 0, seq)
	}
	if p1.BeginUnit(a, 0, 1) {
		t.Error("BeginUnit accepted an already-executed unit")
	}
	if got := st.Stats().UnitsSkipped; got != 1 {
		t.Errorf("units skipped = %d, want 1", got)
	}
	// b also has one pending envelope from origin 1.
	p1.LogEnvelope(b, 1, 0, 100, 8)

	// Processor 1 crashes: a (resident there) is orphaned; b stays at 0 but
	// still replays its pending envelope.
	ep0.now = ms(250)
	if d := p0.Tick(); len(d) != 1 || d[0].Proc != 1 {
		t.Fatalf("verdicts = %v", d)
	}
	plan := p0.RecoveryPlan(1)
	if len(plan) != 2 {
		t.Fatalf("plan has %d entries, want 2: %+v", len(plan), plan)
	}
	ca, cb := plan[0], plan[1]
	if ca.ID != a || !ca.Orphan || ca.Data != "A1" || ca.Loc != 1 {
		t.Errorf("checkpoint a = %+v, want orphan of proc 1 with migrated state", ca)
	}
	if ca.Done[0] != 2 {
		t.Errorf("a done[0] = %d, want 2", ca.Done[0])
	}
	wantReplay := []ReplayEnv{{Origin: 0, Seq: 2, Env: 2, Size: 8}, {Origin: 0, Seq: 3, Env: 3, Size: 8}}
	if !reflect.DeepEqual(ca.Replay, wantReplay) {
		t.Errorf("a replay = %+v, want %+v", ca.Replay, wantReplay)
	}
	if cb.ID != b || cb.Orphan || len(cb.Replay) != 1 {
		t.Errorf("checkpoint b = %+v, want live object with 1 replay", cb)
	}

	// The coordinator re-homes a onto itself; the manifest follows.
	p0.Assign(a, 0)
	if loc, _ := p0.Location(a); loc != 0 {
		t.Errorf("post-assign location = %d, want 0", loc)
	}
	s := st.Stats()
	if s.ObjectsRecovered != 1 || s.EnvelopesReplayed != 3 {
		t.Errorf("stats = %+v, want 1 recovered / 3 replayed", s)
	}
}

// TestLostUnits: units executed by a processor before its crash verdict are
// credited to the machine-wide lost counter exactly once, across repeated
// crashes.
func TestLostUnits(t *testing.T) {
	st := NewStore(Config{LeaseTimeout: 100 * substrate.Millisecond})
	ep0, ep1 := &fakeEP{id: 0}, &fakeEP{id: 1}
	p0 := st.Join(ep0)
	p1 := st.Join(ep1)
	obj := ObjID{Home: 1, Index: 0}
	p1.ObjectHome(obj, nil, 0, 0)
	for seq := uint64(0); seq < 3; seq++ {
		p1.BeginUnit(obj, 0, seq)
		p1.FinishUnit(obj, 0, seq)
	}
	ep0.now = ms(250)
	p0.Tick()
	if got := st.LostUnits(); got != 3 {
		t.Fatalf("lost units = %d, want 3", got)
	}
	// Rejoin, run two more, crash again: only the new units are credited.
	ep1.now = ms(300)
	p1b := st.Join(ep1)
	for seq := uint64(3); seq < 5; seq++ {
		p1b.BeginUnit(obj, 0, seq)
		p1b.FinishUnit(obj, 0, seq)
	}
	ep0.now = ms(600)
	p0.Tick()
	if got := st.LostUnits(); got != 5 {
		t.Fatalf("lost units after second crash = %d, want 5", got)
	}
}

// TestCheckpointTimerAndCost: the periodic timer re-arms and the modeled
// cost follows the fixed/per-byte rates.
func TestCheckpointTimerAndCost(t *testing.T) {
	st := NewStore(Config{CheckpointInterval: 500 * substrate.Millisecond})
	ep := &fakeEP{id: 0}
	p := st.Join(ep)
	if p.CheckpointDue() {
		t.Fatal("checkpoint due immediately after join")
	}
	ep.now = ms(600)
	if !p.CheckpointDue() {
		t.Fatal("checkpoint not due after one interval")
	}
	p.FinishCheckpoint(2, 1000)
	want := 2*checkpointFixed + 1000*checkpointPerByte
	if cost := st.Stats().Charged; cost != want {
		t.Errorf("cost = %v, want %v", cost, want)
	}
	if p.CheckpointDue() {
		t.Error("timer did not re-arm")
	}
	s := st.Stats()
	if s.Checkpoints != 1 || s.CheckpointObjects != 2 || s.CheckpointBytes != 1000 || s.Charged != want {
		t.Errorf("stats = %+v", s)
	}
}
