package rtm_test

import (
	"reflect"
	"testing"

	"prema/internal/conformance"
	"prema/internal/mol"
	"prema/internal/rtm"
	"prema/internal/sim"
	"prema/internal/substrate"
	"prema/internal/wire"
)

// runConformance runs the shared conformance program on m.
func runConformance(t *testing.T, m substrate.Machine, procs, objects int) ([]mol.Stats, [][]int) {
	t.Helper()
	stats, placement, err := conformance.Run(m, procs, objects)
	if err != nil {
		t.Fatal(err)
	}
	return stats, placement
}

// TestCrossBackendConformance: the deterministic simulator and the
// real-concurrency machine must agree exactly on message counts, migration
// counts, forwards, and final object placement for a program-driven
// workload; only timings may differ.
func TestCrossBackendConformance(t *testing.T) {
	const procs, objects = 4, 16
	simStats, simPlace := runConformance(t, sim.NewMachine(sim.Config{Seed: 9}), procs, objects)
	cfg := rtm.DefaultConfig()
	cfg.Seed = 9
	rtmStats, rtmPlace := runConformance(t, rtm.New(cfg), procs, objects)

	if !reflect.DeepEqual(simStats, rtmStats) {
		t.Errorf("MOL statistics diverge between backends:\n sim: %+v\n rtm: %+v", simStats, rtmStats)
	}
	if !reflect.DeepEqual(simPlace, rtmPlace) {
		t.Errorf("final placement diverges between backends:\n sim: %v\n rtm: %v", simPlace, rtmPlace)
	}
	// And the placement is the one the program dictated.
	for p := 0; p < procs; p++ {
		var want []int
		for i := p; i < objects; i += procs {
			want = append(want, i)
		}
		if !reflect.DeepEqual(simPlace[p], want) {
			t.Errorf("processor %d holds %v, want %v", p, simPlace[p], want)
		}
	}
}

// TestWireWrappedConformance: the serialization loopback must preserve the
// cross-backend agreement — wire-wrapped simulator and wire-wrapped rtm
// both reproduce the plain simulator's statistics and placement exactly,
// even though every migration, work message, and ack now crosses the binary
// codec (the mobile objects' own data included, via the conformance
// package's RegisterDataCodec hooks).
func TestWireWrappedConformance(t *testing.T) {
	const procs, objects = 4, 16
	plainStats, plainPlace := runConformance(t, sim.NewMachine(sim.Config{Seed: 9}), procs, objects)

	wsim := wire.Wrap(sim.NewMachine(sim.Config{Seed: 9}))
	wsimStats, wsimPlace := runConformance(t, wsim, procs, objects)
	if !reflect.DeepEqual(plainStats, wsimStats) {
		t.Errorf("wire-wrapped sim diverges:\n plain: %+v\n wire: %+v", plainStats, wsimStats)
	}
	if !reflect.DeepEqual(plainPlace, wsimPlace) {
		t.Errorf("wire-wrapped sim placement diverges:\n plain: %v\n wire: %v", plainPlace, wsimPlace)
	}
	if wsim.Frames() == 0 {
		t.Error("wire-wrapped sim encoded no frames")
	}
	if wsim.SizeDrift() != 0 {
		t.Errorf("wire-wrapped sim: %d of %d frames exceeded their modeled size", wsim.SizeDrift(), wsim.Frames())
	}

	cfg := rtm.DefaultConfig()
	cfg.Seed = 9
	wrtm := wire.Wrap(rtm.New(cfg))
	wrtmStats, wrtmPlace := runConformance(t, wrtm, procs, objects)
	if !reflect.DeepEqual(plainStats, wrtmStats) {
		t.Errorf("wire-wrapped rtm diverges:\n plain: %+v\n wire: %+v", plainStats, wrtmStats)
	}
	if !reflect.DeepEqual(plainPlace, wrtmPlace) {
		t.Errorf("wire-wrapped rtm placement diverges:\n plain: %v\n wire: %v", plainPlace, wrtmPlace)
	}
	if wrtm.Frames() == 0 {
		t.Error("wire-wrapped rtm encoded no frames")
	}
}
