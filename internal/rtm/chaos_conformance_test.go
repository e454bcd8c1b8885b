package rtm_test

import (
	"sort"
	"testing"

	"prema/internal/conformance"
	"prema/internal/dmcs"
	"prema/internal/faulty"
	"prema/internal/rtm"
	"prema/internal/sim"
	"prema/internal/substrate"
)

// runChaosConformance runs the shared conformance program over DMCS
// reliable mode and returns each processor's final residents as
// objectIndex → messages delivered to it. On a faulted machine the protocol
// counters are timing-dependent, but the application-level outcome must not
// be: every object on its dictated processor, every object having heard
// from every processor exactly once.
func runChaosConformance(t *testing.T, m substrate.Machine, procs, objects int, rel dmcs.RelConfig) []map[int]int {
	t.Helper()
	final, err := conformance.RunReliable(m, procs, objects, rel)
	if err != nil {
		t.Fatal(err)
	}
	return final
}

// checkChaosOutcome asserts the dictated placement and exactly-once
// delivery.
func checkChaosOutcome(t *testing.T, final []map[int]int, procs, objects int) {
	t.Helper()
	seen := make(map[int]int) // object → resident proc
	for p, mine := range final {
		for idx, got := range mine {
			if prev, dup := seen[idx]; dup {
				t.Errorf("object %d resident on both proc %d and proc %d", idx, prev, p)
			}
			seen[idx] = p
			if want := idx % procs; p != want {
				t.Errorf("object %d ended on proc %d, want %d", idx, p, want)
			}
			if got != procs {
				t.Errorf("object %d heard %d messages, want exactly %d", idx, got, procs)
			}
		}
	}
	if len(seen) != objects {
		var missing []int
		for i := 0; i < objects; i++ {
			if _, ok := seen[i]; !ok {
				missing = append(missing, i)
			}
		}
		sort.Ints(missing)
		t.Errorf("%d of %d objects lost: %v", objects-len(seen), objects, missing)
	}
}

// TestCrossBackendChaosConformance: the conformance workload on a lossy,
// duplicating, reordering machine — on both backends — must still reach the
// exact application-level outcome the program dictates. This is the
// cross-backend acceptance test for the fault-injection + reliable-delivery
// pair: the same PREMA stack, the same fault plan, surviving on the
// deterministic simulator and under real concurrency.
func TestCrossBackendChaosConformance(t *testing.T) {
	const procs, objects = 4, 16
	plan := faulty.Plan{Default: faulty.LinkFaults{Drop: 0.15, Dup: 0.10, Reorder: 0.20}}
	rel := dmcs.RelConfig{
		Enabled:      true,
		RTO:          10 * substrate.Millisecond,
		RTOMax:       100 * substrate.Millisecond,
		Linger:       300 * substrate.Millisecond,
		DrainTimeout: 30 * substrate.Second,
	}
	t.Run("sim", func(t *testing.T) {
		m := faulty.Wrap(sim.NewMachine(sim.Config{Seed: 9}), plan, 21)
		final := runChaosConformance(t, m, procs, objects, rel)
		checkChaosOutcome(t, final, procs, objects)
		if st := m.Stats(); st.Dropped == 0 || st.Dupped == 0 {
			t.Errorf("fault injection too quiet: %+v", st)
		}
	})
	t.Run("real", func(t *testing.T) {
		cfg := rtm.DefaultConfig()
		cfg.Seed = 9
		cfg.TimeScale = 1e-2 // keep sub-RTO waits above the host timer floor
		if raceDetector {
			cfg.TimeScale *= 10
		}
		m := faulty.Wrap(rtm.New(cfg), plan, 21)
		final := runChaosConformance(t, m, procs, objects, rel)
		checkChaosOutcome(t, final, procs, objects)
	})
}
