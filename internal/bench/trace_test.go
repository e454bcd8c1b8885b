package bench

import (
	"bytes"
	"testing"

	"prema/internal/trace"
)

// TestTracingIsObservational: attaching the trace decorator must not perturb
// the simulation — same makespan, same per-processor accounts, same counters
// as the untraced run. This is what lets the subsystem claim 0% virtual
// overhead (the repository's analogue of the paper's <1% claim) and keeps
// the determinism goldens valid with tracing on or off.
func TestTracingIsObservational(t *testing.T) {
	w := PaperWorkload(FigureSpec{ID: 3, Imbalance: 0.5, Ratio: 2.0}, 8, 8)
	for _, sys := range []string{"none", "prema-explicit", "prema-implicit"} {
		sys := sys
		t.Run(sys, func(t *testing.T) {
			plain, err := RunSystem(sys, w)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := RunSpec{System: sys, W: w, Trace: true}.Run()
			if err != nil {
				t.Fatal(err)
			}
			col := traced.Trace
			if plain.Makespan != traced.Makespan {
				t.Fatalf("tracing changed the makespan: %v vs %v", plain.Makespan, traced.Makespan)
			}
			for i := range plain.Accounts {
				if plain.Accounts[i] != traced.Accounts[i] {
					t.Fatalf("tracing changed proc %d accounts:\n%v\n%v", i, plain.Accounts[i], traced.Accounts[i])
				}
			}
			for k, v := range plain.Counters {
				if traced.Counters[k] != v {
					t.Fatalf("tracing changed counter %s: %d vs %d", k, v, traced.Counters[k])
				}
			}
			if col.Total() == 0 {
				t.Fatal("traced run recorded no events")
			}
		})
	}
}

// TestTraceByteIdentity: two same-seed simulator runs must export
// byte-identical Chrome traces (the guarantee CI's cmp step checks).
func TestTraceByteIdentity(t *testing.T) {
	w := PaperWorkload(FigureSpec{ID: 4, Imbalance: 0.1, Ratio: 2.0}, 6, 6)
	var bufs [2]bytes.Buffer
	for i := range bufs {
		res, err := RunSpec{System: "prema-implicit", W: w, Trace: true}.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Trace.WriteChrome(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Fatalf("same-seed traces differ (%d vs %d bytes)", bufs[0].Len(), bufs[1].Len())
	}
}

// TestTraceRingOverflowInRun: a deliberately tiny ring must overflow on a
// real run and surface the drop count through the metrics registry.
func TestTraceRingOverflowInRun(t *testing.T) {
	w := PaperWorkload(FigureSpec{ID: 3, Imbalance: 0.5, Ratio: 2.0}, 4, 8)
	res, err := RunSpec{System: "prema-implicit", W: w, Trace: true, TraceRing: 32}.Run()
	if err != nil {
		t.Fatal(err)
	}
	col := res.Trace
	if col.Dropped() == 0 {
		t.Fatal("32-event rings did not overflow on a full run")
	}
	reg := trace.Summarize(col, res.Makespan)
	if reg.Counters["trace_dropped_total"] != int64(col.Dropped()) {
		t.Fatalf("metrics drop counter %d != collector %d", reg.Counters["trace_dropped_total"], col.Dropped())
	}
	if reg.Counters["trace_events_total"] != int64(col.Total()) {
		t.Fatalf("metrics event total %d != collector %d", reg.Counters["trace_events_total"], col.Total())
	}
}

// TestTracedSystemRejectsBaselines: the baselines run on the bare simulator
// only; asking for a trace of one is a user error, not a silent no-op.
func TestTracedSystemRejectsBaselines(t *testing.T) {
	w := PaperWorkload(FigureSpec{ID: 3, Imbalance: 0.5, Ratio: 2.0}, 4, 4)
	for _, sys := range []string{"parmetis", "charm", "charm-sync4"} {
		if HasTransport(sys) {
			t.Errorf("HasTransport(%q) = true", sys)
		}
		if _, err := (RunSpec{System: sys, W: w, Trace: true}).Run(); err == nil {
			t.Errorf("traced Run of %q did not error", sys)
		}
		// Nor do they run on a machine the caller built (it may be decorated
		// or wall-clock): runOn dispatches them, RunSystemOn still refuses.
		m := w.simMachine()
		if _, err := RunSystemOn(sys, m, w); err == nil || m.NumProcs() != 0 {
			t.Errorf("RunSystemOn(%q) = %v with %d processors spawned; want a refusal before anything runs", sys, err, m.NumProcs())
		}
	}
	for _, sys := range []string{"none", "prema-explicit", "prema-implicit", "prema-diffusion"} {
		if !HasTransport(sys) {
			t.Errorf("HasTransport(%q) = false", sys)
		}
	}
}

// TestChaosTraceRecordsRetransmits: tracing composed outside the fault
// injector must observe the reliable protocol at work — retransmit events in
// the stream on a lossy network, while the run still conserves all units.
func TestChaosTraceRecordsRetransmits(t *testing.T) {
	w := PaperWorkload(FigureSpec{ID: 3, Imbalance: 0.5, Ratio: 2.0}, 4, 4)
	res, err := RunSpec{
		System:    "prema-implicit",
		W:         w,
		FaultPlan: "drop=0.2",
		FaultSeed: 1,
		Reliable:  true,
		Trace:     true,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	col := res.Trace
	if err := res.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	reg := trace.Summarize(col, res.Makespan)
	if reg.Counters["ev_retransmit_total"] == 0 {
		t.Fatal("no retransmit events traced on a lossy (20% drop) network")
	}
	if int(reg.Counters["ev_retransmit_total"]) != res.Counters["rel_retransmits"] {
		t.Fatalf("traced retransmits %d != protocol counter %d",
			reg.Counters["ev_retransmit_total"], res.Counters["rel_retransmits"])
	}
}
