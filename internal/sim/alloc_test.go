package sim

import (
	"runtime"
	"testing"

	"prema/internal/substrate"
)

// TestProcEventZeroSteadyStateAllocs: the full hot path of a simulated
// processor — Advance scheduling a wake in the heap, the engine firing it
// and handing control back — is allocation-free in steady state.
func TestProcEventZeroSteadyStateAllocs(t *testing.T) {
	const n = 20000
	var allocs uint64
	e := NewEngine(Config{Seed: 1})
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < 2000; i++ { // warm-up: heap, runtime caches
			p.Advance(Microsecond, CatCompute)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			p.Advance(Microsecond, CatCompute)
		}
		runtime.ReadMemStats(&m1)
		allocs = m1.Mallocs - m0.Mallocs
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The old engine allocated 2 per event (event struct + wake closure).
	// Allow a whisker of slack for runtime-internal allocations.
	if perEvent := float64(allocs) / n; perEvent > 0.01 {
		t.Errorf("Advance hot path allocates %.4f per event (%d total), want ~0", perEvent, allocs)
	}
}

// TestMessageSteadyStateAllocs: posting and delivering messages through the
// engine allocates nothing beyond the caller's own Msg values: the delivery
// ring and the ring-buffer inbox reuse their backing arrays.
func TestMessageSteadyStateAllocs(t *testing.T) {
	const n = 10000
	var allocs uint64
	e := NewEngine(Config{Seed: 1})
	e.Spawn("rx", func(p *Proc) {
		for i := 0; i < 1000+n; i++ {
			p.Recv(CatIdle)
		}
	})
	e.Spawn("tx", func(p *Proc) {
		msgs := make([]Msg, 1000+n) // preallocate so only engine allocs count
		for i := range msgs {
			msgs[i] = Msg{Dst: 0, Size: 64}
		}
		send := func(m *Msg) {
			p.Send(m, CatMessaging)
			p.Advance(10*Microsecond, CatCompute)
		}
		for i := 0; i < 1000; i++ { // warm-up
			send(&msgs[i])
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			send(&msgs[1000+i])
		}
		runtime.ReadMemStats(&m1)
		allocs = m1.Mallocs - m0.Mallocs
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if perMsg := float64(allocs) / n; perMsg > 0.01 {
		t.Errorf("send/deliver hot path allocates %.4f per message (%d total), want ~0", perMsg, allocs)
	}
}

// TestInflightSteadyStateAllocs: with several senders keeping many
// deliveries in flight to one receiver at once, the receiver's queue of
// in-flight arrivals (Proc.skipTo's run-ahead bound) reuses its storage:
// the steady state allocates nothing beyond the senders' own Msg values.
// Each sender sends every 16–19 µs into a 60 µs latency, so about a dozen
// deliveries are in flight at once, interleaved across senders; receives
// cost nothing, so the inbox stays short.
func TestInflightSteadyStateAllocs(t *testing.T) {
	const (
		senders = 4
		warm    = 1000
		n       = 5000
	)
	var allocs uint64
	e := NewEngine(Config{Seed: 1, Network: &substrate.Network{Latency: 60 * Microsecond, SendCPU: 15 * Microsecond}})
	e.Spawn("rx", func(p *Proc) {
		for i := 0; i < senders*warm; i++ {
			p.Recv(CatIdle)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < senders*n; i++ {
			p.Recv(CatIdle)
		}
		runtime.ReadMemStats(&m1)
		allocs = m1.Mallocs - m0.Mallocs
	})
	for s := 0; s < senders; s++ {
		e.Spawn("tx", func(p *Proc) {
			msgs := make([]Msg, warm+n) // preallocate so only engine allocs count
			for i := range msgs {
				msgs[i] = Msg{Dst: 0, Size: 64}
				p.Send(&msgs[i], CatMessaging)
				p.Advance(Time(1+s)*Microsecond, CatCompute)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if perMsg := float64(allocs) / (senders * n); perMsg > 0.01 {
		t.Errorf("deliveries in flight allocate %.4f per message (%d total), want ~0", perMsg, allocs)
	}
}
