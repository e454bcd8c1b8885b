package sim

import (
	"runtime"
	"testing"
)

// TestProcEventZeroSteadyStateAllocs: the full hot path of a simulated
// processor — Advance scheduling a typed wake event, the engine firing it
// and handing control back — is allocation-free in steady state.
func TestProcEventZeroSteadyStateAllocs(t *testing.T) {
	const n = 20000
	var allocs uint64
	e := NewEngine(Config{Seed: 1})
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < 2000; i++ { // warm-up: free list, heap, runtime caches
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
// engine allocates nothing beyond the caller's own Msg values: typed deliver
// events come from the free list and the ring-buffer inbox reuses its
// backing array.
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
