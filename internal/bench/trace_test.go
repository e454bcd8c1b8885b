package bench

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"testing"

	"prema/internal/trace"
)

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

// TestTraceExportPinned pins the exported bytes of two traced runs across
// versions, not only run against run: the sha256 of the Chrome file and of
// the metrics registry's JSON. The 8 × 8 pin was recorded from the writer
// that formatted every poll of a folded stretch one by one; the 16 × 14 pin,
// the benchmark's fig3_traced shape with every event retained, from the
// writer that stepped one rendered poll at a time. A changed digest is a
// changed output.
func TestTraceExportPinned(t *testing.T) {
	for _, pin := range []struct {
		procs, upp      int
		chrome, metrics string
	}{
		{8, 8, "04f006fb581df8709f66d704cdf19f2e576e83ac7e2226c0b1d5c5b622a7d87f", "6035e4714800d3f184efff17057748ac6ef66e709de44fe72afcaded77f3e69c"},
		{16, 14, "b8106e3f474751f6b84e9b28b3b90bf90014abadc3f62cb26f4a5dd3e25419fc", "03298e8cdaf511df7127b395729526791cec0737e177272bfc1bc5f774f082cb"},
	} {
		res := tracedFig3(t, pin.procs, pin.upp)
		var chrome, metrics bytes.Buffer
		if err := res.Trace.WriteChrome(&chrome); err != nil {
			t.Fatal(err)
		}
		if err := trace.Summarize(res.Trace, res.Makespan).WriteJSON(&metrics); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			out  []byte
			want string
		}{
			{"Chrome trace", chrome.Bytes(), pin.chrome},
			{"metrics JSON", metrics.Bytes(), pin.metrics},
		} {
			if got := fmt.Sprintf("%x", sha256.Sum256(c.out)); got != c.want {
				t.Errorf("%d × %d %s: sha256 %s (%d bytes), pinned %s", pin.procs, pin.upp, c.name, got, len(c.out), c.want)
			}
		}
	}
}

// tracedFig3 runs prema-implicit on a procs × upp Figure 3 workload, traced
// into default rings, which hold every event at these sizes.
func tracedFig3(tb testing.TB, procs, upp int) *Result {
	tb.Helper()
	res, err := RunSpec{System: "prema-implicit", W: PaperWorkload(Figures()[0], procs, upp), Trace: true}.Run()
	if err != nil {
		tb.Fatal(err)
	}
	if n := res.Trace.Dropped(); n > 0 {
		tb.Fatalf("%d × %d: the rings dropped %d events", procs, upp, n)
	}
	return res
}

// BenchmarkWriteChrome and BenchmarkSummarize time the two exporters a
// traced run calls after the simulation, on the benchmark's fig3_traced
// shape: 16 × 14 Figure 3, ~568,000 events, 54 MB of JSON.
func BenchmarkWriteChrome(b *testing.B) {
	res := tracedFig3(b, 16, 14)
	b.ResetTimer()
	for range b.N {
		if err := res.Trace.WriteChrome(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSummarize(b *testing.B) {
	res := tracedFig3(b, 16, 14)
	b.ResetTimer()
	for range b.N {
		benchRegistry = trace.Summarize(res.Trace, res.Makespan)
	}
}

// benchRegistry keeps BenchmarkSummarize's result live.
var benchRegistry *trace.Registry
