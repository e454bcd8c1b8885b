package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestQuickSuite runs every workload at an eighth of its size through the
// whole suite — set-up, a timed round, peer hashes, probed runs, micro-probes
// — and holds the result to the same checks as a real run. The record is
// marked quick and compare refuses it.
func TestQuickSuite(t *testing.T) {
	t.Parallel()
	cal, err := newCalibration()
	if err != nil {
		t.Fatal(err)
	}
	e := &env{seed: 1, quick: true, progress: io.Discard, cal: cal}
	if err := e.buildPremad(t.TempDir()); err != nil {
		t.Skipf("cannot build premad here: %v", err)
	}
	rec, err := e.runSuite(1)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Host.Quick {
		t.Error("quick run not marked quick")
	}
	for _, wl := range workloads {
		wr := rec.Workloads[wl.name]
		if wr == nil {
			t.Fatalf("%s: missing from the record", wl.name)
		}
		if wr.FailedShare != 0 || len(wr.Errors) > 0 {
			t.Errorf("%s: failed_share %v, errors %v", wl.name, wr.FailedShare, wr.Errors)
		}
		for _, d := range endToEnd {
			if d.Name != "setup_s" && wr.EndToEnd[d.Name].Median <= 0 {
				t.Errorf("%s: %s = %v, want > 0", wl.name, d.Name, wr.EndToEnd[d.Name].Median)
			}
		}
		if f := wr.PerLayer["host.slowdown_x"].Median; f <= 0 || wr.EndToEnd["wall_s"].Median*f <= 0 {
			t.Errorf("%s: no reference-kernel samples (slowdown %v)", wl.name, f)
		}
		if wl.backend == "sim" {
			if wr.PerLayer["stack.self_s"].Median <= 0 || wr.PerLayer["seam.calls"].Median <= 0 || len(wr.Spans) == 0 {
				t.Errorf("%s: the probed run recorded nothing", wl.name)
			}
			if wr.PerLayer["ilb.poll_wakes"].Median != wr.PerLayer["seam.advance_pollthread"].Median {
				t.Errorf("%s: ilb.poll_wakes and seam.advance_pollthread differ", wl.name)
			}
		}
	}
	if a, b := rec.Workloads["fig3_implicit"].Hash, rec.Workloads["fig3_implicit_s2"].Hash; a == "" || a != b {
		t.Errorf("fig3_implicit and fig3_implicit_s2 hash differently: %q, %q", a, b)
	}
	path := filepath.Join(t.TempDir(), "quick.json")
	if err := writeRecord(path, rec); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	if code := compareMain([]string{path, path}, io.Discard, &stderr); code != 2 || !strings.Contains(stderr.String(), "quick") {
		t.Errorf("compare accepted a quick record (exit %d, %q)", code, stderr.String())
	}
}

// TestProbeTransparent: the seam probe at four boundaries of a three-decorator
// stack (wire, faulty, trace over the simulator, reliable mode under loss)
// leaves the result hash unchanged and accounts every layer.
func TestProbeTransparent(t *testing.T) {
	t.Parallel()
	chaos, err := workloadByName("fig3_chaos")
	if err != nil {
		t.Fatal(err)
	}
	in, err := chaos.generate(1, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	in = in.twin(func(wl *workload) { wl.traced = true })
	plain, err := in.run("", nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := newSeamProbe()
	probed, err := in.run("", sp)
	if err != nil {
		t.Fatal(err)
	}
	if plain.hash != probed.hash {
		t.Errorf("probe changed the result: %s -> %s", plain.hash, probed.hash)
	}
	if plain.traceEvents != probed.traceEvents || plain.events != probed.events || plain.dropped != probed.dropped {
		t.Errorf("probe changed the counters: events %d -> %d, trace events %d -> %d, drops %d -> %d",
			plain.events, probed.events, plain.traceEvents, probed.traceEvents, plain.dropped, probed.dropped)
	}
	if got, want := strings.Join(sp.layerNames(), " "), "sim wire faulty trace stack"; got != want {
		t.Fatalf("layers %q, want %q", got, want)
	}
	for _, layer := range sp.layerNames()[1:] {
		if sp.selfSeconds(layer) <= 0 {
			t.Errorf("layer %s has no self time", layer)
		}
	}
	// Every send of the stack crosses wire exactly once; faults and ARQ only
	// add traffic below the top boundary.
	if sends := sp.count(-1, mSend); sends <= 0 || float64(probed.wireFrames) < sends {
		t.Errorf("top boundary saw %v sends, wire %d frames", sends, probed.wireFrames)
	}
}

// TestSeeds: different -seed values generate different inputs, different
// inputs of one seed differ too, and all of them conserve work.
func TestSeeds(t *testing.T) {
	t.Parallel()
	wl, err := workloadByName("fig3_implicit")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, seed := range []int64{1, 2} {
		for k := 0; k < 2; k++ {
			in, err := wl.generate(seed, k, true)
			if err != nil {
				t.Fatal(err)
			}
			if seen[in.w.Seed] {
				t.Errorf("seed %d input %d repeats Workload.Seed %d", seed, k, in.w.Seed)
			}
			seen[in.w.Seed] = true
			if _, err := in.run("", nil); err != nil {
				t.Errorf("seed %d input %d: %v", seed, k, err)
			}
		}
	}
	a, _ := wl.generate(7, 3, false)
	b, _ := wl.generate(7, 3, false)
	if a.w != b.w || a.faultSeed != b.faultSeed {
		t.Error("the same seed generated different inputs")
	}
}

func TestFoldProfile(t *testing.T) {
	samples := []stackSample{
		{[]string{"runtime.memmove", "prema/internal/sim.(*eventHeap).push", "prema/internal/sim.(*shard).schedule"}, 30},
		{[]string{"prema/internal/sim.(*Proc).Advance", "main.(*probeEP).Advance", "prema/internal/ilb.(*Scheduler).Compute"}, 20},
		{[]string{"runtime.futex", "runtime.futexwakeup", "runtime.notewakeup", "runtime.startm", "runtime.schedule", "runtime.park_m"}, 25},
		{[]string{"runtime.chanrecv", "runtime.chanrecv1", "prema/internal/sim.(*Proc).yield"}, 5},
		{[]string{"runtime.mallocgc", "runtime.newobject", "prema/internal/dmcs.(*Comm).Send", "prema/internal/policy.(*WorkStealing).Idle"}, 10},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, 4},
		{[]string{"time.Now", "main.(*seamProbe).now", "main.(*probeEP).down"}, 4},
		{[]string{"syscall.Syscall", "os.(*File).Write"}, 2},
	}
	got := foldProfile(samples)
	// 96 of the 100 samples are the program's.
	want := map[string]float64{
		"sim.heap": 30. / 96, "sim": 50. / 96, "goruntime.sched": 30. / 96, "dmcs": 10. / 96,
		"goruntime.gc": 4. / 96, "benchmark": 4. / 96, "other": 2. / 96,
	}
	for bucket, share := range want {
		if math.Abs(got[bucket]-share) > 1e-9 {
			t.Errorf("%s: share %v, want %v", bucket, got[bucket], share)
		}
	}
	for _, absent := range []string{"ilb", "policy"} {
		if got[absent] != 0 {
			t.Errorf("%s got %v: a caller must not be charged for its callee's sample", absent, got[absent])
		}
	}
}

// Minimal profile.proto writer for the decoder test.
func pbVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}
func pbUint(b []byte, field int, v uint64) []byte { return pbVarint(pbVarint(b, uint64(field)<<3), v) }
func pbBytes(b []byte, field int, p []byte) []byte {
	return append(pbVarint(pbVarint(b, uint64(field)<<3|2), uint64(len(p))), p...)
}

func TestParseProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "runtime.memmove", "prema/internal/sim.(*eventHeap).push", "main.run"}
	var prof []byte
	for _, s := range strs {
		prof = pbBytes(prof, 6, []byte(s))
	}
	for id, name := range map[uint64]uint64{1: 3, 2: 4, 3: 5} {
		prof = pbBytes(prof, 5, pbUint(pbUint(nil, 1, id), 2, name))
	}
	// Location 1 is memmove; location 2 is push inlined into run (two lines,
	// innermost first).
	prof = pbBytes(prof, 4, pbBytes(pbUint(nil, 1, 1), 4, pbUint(nil, 1, 1)))
	prof = pbBytes(prof, 4, pbBytes(pbBytes(pbUint(nil, 1, 2), 4, pbUint(nil, 1, 2)), 4, pbUint(nil, 1, 3)))
	// One sample with packed fields, one with a field per value.
	prof = pbBytes(prof, 2, pbBytes(pbBytes(nil, 1, []byte{1, 2}), 2, pbVarint(pbVarint(nil, 3), 30_000_000)))
	prof = pbBytes(prof, 2, pbUint(pbUint(pbUint(nil, 1, 2), 2, 1), 2, 10_000_000))
	prof = pbUint(prof, 9, 12345) // time_nanos: a field the decoder ignores
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof)
	zw.Close()

	got, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []stackSample{
		{[]string{"runtime.memmove", "prema/internal/sim.(*eventHeap).push", "main.run"}, 30_000_000},
		{[]string{"prema/internal/sim.(*eventHeap).push", "main.run"}, 10_000_000},
	}
	if len(got) != len(want) {
		t.Fatalf("%d samples, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].weight != want[i].weight || strings.Join(got[i].frames, "|") != strings.Join(want[i].frames, "|") {
			t.Errorf("sample %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	if shares := foldProfile(got); math.Abs(shares["sim.heap"]-1) > 1e-9 {
		t.Errorf("sim.heap share %v, want 1", shares["sim.heap"])
	}
	if _, err := parseProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("truncated profile parsed")
	}
}

func TestVerdict(t *testing.T) {
	st := func(median, iqr float64) stat { return stat{Median: median, IQR: iqr, N: 5} }
	for _, c := range []struct {
		name     string
		old, new stat
		better   string
		bound    float64
		want     string
	}{
		{"within bound", st(10, 0.2), st(10.9, 0.2), "lower", 0.10, "same"},
		{"slower", st(10, 0.2), st(11.1, 0.2), "lower", 0.10, "worse"},
		{"faster", st(10, 0.2), st(8.9, 0.2), "lower", 0.10, "better"},
		{"higher is better", st(10, 0.2), st(8.9, 0.2), "higher", 0.10, "worse"},
		{"old too noisy", st(10, 1.1), st(10, 0.2), "lower", 0.10, "unresolved"},
		{"new too noisy", st(10, 0.2), st(12, 1.3), "lower", 0.10, "unresolved"},
		{"no baseline", st(0, 0), st(1, 0), "lower", 0.10, "unresolved"},
		{"exact", st(1.0562, 0), st(1.0562, 0), "lower", 0.10, "same"},
	} {
		if got := verdict(c.old, c.new, c.better, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	mk := func(wall, failed float64, events float64, hash string) *record {
		rec := &record{Schema: recordSchema, SetupS: stat{Median: 1, N: 5}, Workloads: map[string]*workloadRecord{}}
		for _, wl := range workloads {
			rec.Workloads[wl.name] = &workloadRecord{
				Hash:        hash,
				FailedShare: failed,
				EndToEnd: map[string]stat{
					"wall_s": {Median: wall, IQR: 0.01, N: 5}, "alloc_mb": {Median: 7, N: 5}, "makespan_over_ideal": {Median: 1.05, N: 5},
				},
				PerLayer: map[string]stat{"sim.events": {Median: events, N: 1}},
			}
		}
		return rec
	}
	var out bytes.Buffer
	if compare(&out, mk(1, 0, 100, "a"), mk(1.05, 0, 100, "a")) {
		t.Errorf("a 5 %% slower wall_s is within the bound:\n%s", out.String())
	}
	out.Reset()
	if !compare(&out, mk(1, 0, 100, "a"), mk(1.3, 0, 100, "a")) || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 30 %% slower wall_s must fail:\n%s", out.String())
	}
	out.Reset()
	if !compare(&out, mk(1, 0, 100, "a"), mk(1, 0.01, 100, "a")) {
		t.Errorf("a higher failed_share must fail:\n%s", out.String())
	}
	out.Reset()
	if compare(&out, mk(1, 0, 100, "a"), mk(1, 0, 90, "b")) {
		t.Errorf("changed counts are notes, not failures:\n%s", out.String())
	}
	for _, note := range []string{"sim.events changed 100 -> 90", "result hash changed"} {
		if !strings.Contains(out.String(), note) {
			t.Errorf("missing note %q in:\n%s", note, out.String())
		}
	}
}

func TestStats(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := iqr(xs); math.Abs(got-5.5) > 1e-12 {
		t.Errorf("iqr %v, want 5.5", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median %v, want 5.5", got)
	}
	if got := mad([]float64{1, 1, 2, 2, 4, 6, 9}); got != 1 {
		t.Errorf("mad %v, want 1", got)
	}
}

// TestManifest keeps BENCHMARK.json equal to the tables in metrics.go and
// workloads.go, and the tables within the limits a benchmark file must keep.
func TestManifest(t *testing.T) {
	want, err := json.Marshal(buildManifest())
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	raw, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	var onDisk manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(onDisk); !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale: regenerate it with `go run ./benchmark -manifest > BENCHMARK.json`")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: bad unit %q", n, u)
		}
		seen[n] = true
	}
	for _, wl := range workloads {
		check(wl.name, "")
		if len(wl.why) > 200 || strings.Contains(wl.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters (has %d)", wl.name, len(wl.why))
		}
	}
	for _, d := range endToEnd {
		check(d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if d := endToEnd[len(endToEnd)-1]; d.Name != "setup_s" || d.Unit != "s" || d.Better != "lower" {
		t.Error("the last end-to-end metric must be setup_s (compare relies on it)")
	}
	for _, d := range perLayer {
		check(d.Name, d.Unit)
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 || len(raw) > 64<<10 {
		t.Error("manifest outside its size limits")
	}
}
