package bench

import (
	"fmt"
	"math/rand"
	"testing"
)

// fingerprint reduces a run to the strings the CLIs print: if these match,
// the visible output matches byte for byte.
func fingerprint(r *Result) string {
	return r.Summary() + "\n" + r.Breakdown(1) + "\n" + fmt.Sprint(r.Counters)
}

// requireWireIdentical runs one workload twice — loopback off, then on —
// through run, and demands byte-identical output, observed frames, and a
// clean Msg.Size audit. This is the tentpole's contract: serialization is
// free in virtual time and every modeled size is honest.
func requireWireIdentical(t *testing.T, label string, w Workload, run func(Workload) (*Result, error)) {
	t.Helper()
	w.Wire = false
	plain, err := run(w)
	if err != nil {
		t.Fatalf("%s plain: %v", label, err)
	}
	w.Wire = true
	wired, err := run(w)
	if err != nil {
		t.Fatalf("%s wired: %v", label, err)
	}
	if fingerprint(plain) != fingerprint(wired) {
		t.Fatalf("%s: wire loopback changed the output:\nplain:\n%s\nwired:\n%s",
			label, fingerprint(plain), fingerprint(wired))
	}
	for i := range plain.Accounts {
		if plain.Accounts[i] != wired.Accounts[i] {
			t.Fatalf("%s proc %d: ledgers differ under wire", label, i)
		}
	}
	if wired.WireFrames == 0 {
		t.Fatalf("%s: wire-wrapped run encoded no frames", label)
	}
	if wired.WireDrift != 0 {
		t.Fatalf("%s: %d of %d frames exceeded their modeled Msg.Size",
			label, wired.WireDrift, wired.WireFrames)
	}
}

// TestWireEquivalenceSystems: every machine-based system configuration —
// the paper's PREMA stacks and the policy suite — produces identical output
// with the serialization loopback on, across two figure scenarios.
func TestWireEquivalenceSystems(t *testing.T) {
	specs := []FigureSpec{Figures()[0], Figures()[3]}
	for _, spec := range specs {
		for _, name := range append([]string{"none", "prema-explicit", "prema-implicit"}, policySystems...) {
			w := PaperWorkload(spec, 8, 8)
			requireWireIdentical(t, fmt.Sprintf("fig%d/%s", spec.ID, name), w,
				func(w Workload) (*Result, error) { return RunSystem(name, w) })
		}
	}
}

// TestWireEquivalenceSharded: the loopback composes with the sharded
// engine — frames decode on the sending shard, windows stay byte-identical.
func TestWireEquivalenceSharded(t *testing.T) {
	w := PaperWorkload(Figures()[1], 16, 8)
	w.Shards = 4
	requireWireIdentical(t, "sharded/prema-implicit", w,
		func(w Workload) (*Result, error) { return RunSystem("prema-implicit", w) })
}

// TestWireEquivalenceChaos is the randomized property: across seeded-random
// fault plans (drop, duplication, delay, reordering) and fault seeds, a
// wire-wrapped reliable run matches its plain twin exactly, encodes frames
// and passes the size audit. The loopback sits beneath the injector, so
// dropped and duplicated deliveries operate on decoded copies — the
// composition the distributed backend relies on.
func TestWireEquivalenceChaos(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	specs := Figures()
	for trial := 0; trial < 4; trial++ {
		cs := RunSpec{
			System: "prema-implicit",
			FaultPlan: fmt.Sprintf("drop=%.2f,dup=%.2f,delay=%.2f:200us,reorder=%.2f",
				0.05+0.2*rng.Float64(), 0.2*rng.Float64(), 0.2*rng.Float64(), 0.2*rng.Float64()),
			FaultSeed: rng.Int63(),
			Backend:   BackendSim,
			Reliable:  true,
		}
		w := PaperWorkload(specs[trial%len(specs)], 8, 8)
		// The injector sits outside the loopback and unwraps to it, so the
		// frame count and the size audit of a faulted run — the one that
		// duplicates and retransmits frames — are observed, not void.
		requireWireIdentical(t, fmt.Sprintf("chaos trial %d", trial), w, func(w Workload) (*Result, error) {
			cs.W = w
			res, err := cs.Run()
			if err == nil && res.Events == 0 {
				err = fmt.Errorf("engine telemetry hidden behind the injector: 0 events")
			}
			return res, err
		})
	}
}
