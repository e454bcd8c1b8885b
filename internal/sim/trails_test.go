package sim

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"

	"prema/internal/substrate"
)

// The trail programs are seeded random message-passing bodies: every
// processor mixes computation shorter and longer than the network latency,
// sends of random sizes (to itself too), tagged and untagged receives,
// bounded waits and polled advances, elided and stepped. A processor's
// trail is what it observed — the clock after every operation and what the
// operation returned — so any change to when an event fires relative to
// another that a body can see moves a trail. The pinned hash holds no event
// counts: it was re-taken without them on the last engine that fired
// superseded events, which still matched the hash, counts included, that
// was recorded before processors could run ahead of the event loop. It was
// re-taken once more when an all-zero network stopped meaning the default:
// 13 of the 34 no-lookahead programs (seeds 14, 49, 70, …, 238) had drawn
// one and run on 60 µs links; the old hash still held with those 13 given
// the default explicitly.

// trailOp names one operation in a trail.
const (
	opAdvance = iota
	opSend
	opTryRecv
	opTryRecvTag
	opWait
	opPolled
	opStepped
	opEnd
)

// trailProgram draws program seed's network and processor count.
func trailProgram(seed int64) (substrate.Network, int) {
	r := rand.New(rand.NewSource(seed))
	net := substrate.Network{
		Latency: Time(1+r.Intn(100)) * Microsecond,
		PerByte: Time(r.Intn(100)),
		SendCPU: Time(r.Intn(20)) * Microsecond,
		RecvCPU: Time(r.Intn(20)) * Microsecond,
	}
	if seed%7 == 0 {
		// No lookahead at all: the engine runs serial and nothing may run
		// ahead; size-0 messages then arrive the instant they are sent.
		net = substrate.Network{RecvCPU: Time(r.Intn(3)) * Microsecond}
	}
	return net, 2 + r.Intn(15)
}

// trailBody runs processor p's part of a trail program, appending what it
// observes to h.
func trailBody(p *Proc, net substrate.Network, h hash.Hash64) {
	r := p.Rand()
	lat := net.Latency
	if lat == 0 {
		lat = Microsecond
	}
	var nextID int64
	rec := func(op int, v int64) {
		var b [24]byte
		binary.LittleEndian.PutUint64(b[0:], uint64(p.Now()))
		binary.LittleEndian.PutUint64(b[8:], uint64(op))
		binary.LittleEndian.PutUint64(b[16:], uint64(v))
		h.Write(b[:])
	}
	id := func(m *Msg) int64 {
		if m == nil {
			return -1
		}
		return m.Data.(int64)
	}
	// short draws a duration below the latency, long one above it.
	short := func() Time { return 1 + Time(r.Int63n(int64(lat))) }
	long := func() Time { return lat + 1 + Time(r.Int63n(int64(8*lat))) }
	ops := 30 + r.Intn(90)
	for i := 0; i < ops; i++ {
		switch k := r.Intn(20); {
		case k < 5:
			d := short()
			if k == 4 {
				d = long()
			}
			p.Advance(d, Category(r.Intn(int(NumCategories))))
			rec(opAdvance, int64(d))
		case k < 10:
			dst := r.Intn(p.NumPeers())
			if k == 9 {
				dst = p.ID()
			}
			nextID++
			mid := int64(p.ID())<<32 | nextID
			p.Send(&Msg{Dst: dst, Tag: r.Intn(2), Size: r.Intn(2000), Data: mid}, CatMessaging)
			rec(opSend, mid)
		case k < 12:
			rec(opTryRecv, id(p.TryRecv(CatMessaging)))
		case k < 14:
			rec(opTryRecvTag, id(p.TryRecvTag(r.Intn(2), CatMessaging)))
		case k < 16:
			d := short()
			if k == 15 {
				d = long()
			}
			ok := p.WaitMsgFor(d, CatIdle)
			v := int64(0)
			if ok {
				v = 1
			}
			rec(opWait, v)
		default:
			ps := substrate.PollSpec{
				Interval: short(),
				Cost:     Time(1 + r.Intn(5000)),
				Tag:      r.Intn(2),
				AnyTag:   r.Intn(4) == 0,
				WakeBy:   substrate.Never,
			}
			if r.Intn(3) == 0 {
				ps.WakeBy = p.Now() + long()
			}
			d := Time(r.Int63n(int64(20 * lat)))
			var done Time
			var polls int
			op := opPolled
			if k < 18 {
				done, polls = advancePolled(p, d, ps)
			} else {
				op = opStepped
				done, polls = substrate.StepPolled(p, d, ps)
			}
			rec(op, int64(done)<<8|int64(polls))
		}
	}
	rec(opEnd, int64(p.InboxLen()))
}

// runTrailProgram runs program seed on an engine built from cfg (its
// Network and Seed are the program's) and returns the engine and one hash
// of every processor's trail and final Account and the makespan.
func runTrailProgram(t *testing.T, seed int64, cfg Config) (*Engine, uint64) {
	t.Helper()
	net, procs := trailProgram(seed)
	cfg.Network, cfg.Seed = &net, seed
	e := NewEngine(cfg)
	trails := make([]hash.Hash64, procs)
	for i := range trails {
		h := fnv.New64a()
		trails[i] = h
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) { trailBody(p, net, h) })
	}
	if err := e.Run(); err != nil {
		t.Fatalf("program %d: %v", seed, err)
	}
	all := fnv.New64a()
	var b [8]byte
	for i, h := range trails {
		binary.LittleEndian.PutUint64(b[:], h.Sum64())
		all.Write(b[:])
		for _, v := range e.Proc(i).Account() {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			all.Write(b[:])
		}
	}
	binary.LittleEndian.PutUint64(b[:], uint64(e.Makespan()))
	all.Write(b[:])
	return e, all.Sum64()
}

// trailPrograms is how many programs TestRunAheadTrailsPinned runs.
const trailPrograms = 240

// TestRunAheadTrailsPinned: every processor of 240 random programs sees the
// same trail and ledger, and every program ends at the same makespan, on the
// serial engine and on two and three shards. The programs fire 178,820
// events in all: 181,879 while 13 no-lookahead programs ran on the default
// network instead (the 184,699 fired while superseded events stayed in the
// heap, less the 2,820 of those that fired dead or were re-armed).
func TestRunAheadTrailsPinned(t *testing.T) {
	const (
		want   = 0x178d35e3d8c1d759 // trails, ledgers and makespans
		events = 178820
	)
	for _, shards := range []int{1, 2, 3} {
		all := fnv.New64a()
		var b [8]byte
		var fired uint64
		for seed := int64(1); seed <= trailPrograms; seed++ {
			e, sum := runTrailProgram(t, seed, Config{Shards: shards})
			fired += e.EventsFired()
			binary.LittleEndian.PutUint64(b[:], sum)
			all.Write(b[:])
		}
		if got := all.Sum64(); got != want || fired != events {
			t.Errorf("shards=%d: trail hash %#x over %d events, want %#x over %d", shards, got, fired, uint64(want), events)
		}
	}
}
