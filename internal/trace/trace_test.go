package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"prema/internal/substrate"
)

// TestHotPathZeroAlloc is the guard behind the "<1% overhead, leave it on"
// design: recording an event must not allocate, whatever mix of spans,
// instants, intervals and folded poll stretches the layers emit, including
// after the ring wraps.
func TestHotPathZeroAlloc(t *testing.T) {
	r := NewRecorder(0, 1<<10)
	var tick substrate.Time
	if allocs := testing.AllocsPerRun(5000, func() {
		r.Instant(EvSend, tick, 1, 2, 3)
		r.Span(substrate.CatCompute, tick, tick+7)
		r.Interval(EvUnitEnd, tick, tick+9, 4, 5, 6)
		r.polls(tick+10, 5, 1, 1)
		tick += 20
	}); allocs != 0 {
		t.Fatalf("trace hot path allocates %.1f times per event batch, want 0", allocs)
	}
	if r.Dropped() == 0 {
		t.Fatal("the ring never wrapped")
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Instant(EvSend, 1, 2, 3, 4)
	r.Span(substrate.CatIdle, 0, 5)
	r.Interval(EvUnitEnd, 0, 5, 1, 2, 3)
	r.polls(0, 5, 10, 1)
	if r.Total() != 0 || r.Len() != 0 || r.Dropped() != 0 {
		t.Error("nil recorder reported non-zero state")
	}
	for e := range r.Events() {
		t.Errorf("nil recorder yielded %+v", e)
	}
}

// TestRingMemoryFollowsRecords: a ring allocates storage for the records it
// has been given, not for its capacity; a wrapped ring of typical records
// takes a few bytes a record, reusing its chunks; and a stretch of polls is
// a constant number of records however long it is.
func TestRingMemoryFollowsRecords(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewRecorder(0, DefaultRingCap)
	for i := 0; i < 1000; i++ {
		r.Instant(EvSend, substrate.Time(i), 1, 2, 3)
	}
	runtime.ReadMemStats(&after)
	full := uint64(DefaultRingCap) * uint64(unsafe.Sizeof(Event{}))
	if got := after.TotalAlloc - before.TotalAlloc; got >= full/10 {
		t.Errorf("1,000 events into a %d-event ring allocated %d bytes, want under a tenth of the full ring's %d", DefaultRingCap, got, full)
	}

	// A default ring filled past its wrap with what a Figure 3 processor
	// records: spans of 10 µs to 1 s, each followed by a send, a receive or
	// a policy instant, at timestamps around 1e11 ns.
	rng := rand.New(rand.NewSource(1))
	runtime.ReadMemStats(&before)
	fig3 := NewRecorder(0, DefaultRingCap)
	for at := substrate.Time(1e11); fig3.Total() < 3*DefaultRingCap; {
		gap := substrate.Time(10 * float64(substrate.Microsecond) * math.Pow(1e5, rng.Float64()))
		fig3.Span(substrate.Category(rng.Intn(3)), at, at+gap)
		at += gap
		switch rng.Intn(3) {
		case 0:
			fig3.Instant(EvSend, at, int64(rng.Intn(16)), int64(rng.Intn(8)), []int64{16, 64, 4096}[rng.Intn(3)])
		case 1:
			fig3.Instant(EvRecv, at, int64(rng.Intn(16)), int64(rng.Intn(8)), []int64{16, 64, 4096}[rng.Intn(3)])
		default:
			fig3.Instant(EvPolicy, at, int64(rng.Intn(3)), 0, 0)
		}
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	if perRecord := float64(got) / float64(fig3.Len()); got > 1<<20 || perRecord > 12 {
		t.Errorf("a wrapped default ring of Figure 3 records allocated %d bytes, %.1f per retained record; want at most 1 MiB and 12", got, perRecord)
	}

	for _, n := range []int{10_000, 1_000_000} {
		records, total := r.nrec, r.Total()
		r.polls(substrate.Time(2000), n, 10, 2)
		if got := r.nrec - records; got != 7 {
			t.Errorf("a %d-poll stretch took %d records, want 7 (first and last poll plain, the rest folded)", n, got)
		}
		if got := r.Total() - total; got != uint64(3*n) {
			t.Errorf("a %d-poll stretch counted %d events, want %d", n, got, 3*n)
		}
	}
}

// TestRecordBytes pins what the codec spends: a tag byte, a timestamp
// delta of a byte or two between neighbours — also when the clock steps
// back — and each non-zero field in as few bytes as its magnitude needs, up
// to 51 bytes when every field is at 64-bit magnitude. A kind out of range
// costs its own byte and a c, and decodes unchanged.
func TestRecordBytes(t *testing.T) {
	const t0 = substrate.Time(1e11)
	for _, tc := range []struct {
		what  string
		f     record
		prevT substrate.Time
		want  int
	}{
		{"send at the previous record's time", record{t: t0, a: 3, b: 2, c: 64, kind: EvSend}, t0, 1 + 1 + 1 + 1 + 2},
		{"recv 1 ns before the previous record", record{t: t0 - 1, a: 3, b: 2, c: 64, kind: EvRecv}, t0, 1 + 1 + 1 + 1 + 2},
		{"compute span of 10 ms", record{t: t0 + 10*substrate.Millisecond, dur: 10 * substrate.Millisecond, kind: EvSpan}, t0, 1 + 4 + 4},
		{"poll-wake instant 10 µs later", record{t: t0 + 10*substrate.Microsecond, a: PolPollWake, kind: EvPolicy}, t0, 1 + 3 + 1},
		{"folded stretch of 1,000 polls", record{t: t0 + 14*substrate.Microsecond, dur: 10 * substrate.Microsecond, a: 4000, b: 1000, folded: true}, t0, 1 + 3 + 3 + 2 + 2},
		{"migration of an ObjKey", record{t: t0, a: 5, b: ObjKey(127, 1<<20), c: 4096, kind: EvMigrateOut}, t0, 1 + 1 + 1 + 6 + 2},
		{"every field at 64-bit magnitude", record{t: math.MinInt64, dur: math.MinInt64, a: math.MinInt64, b: math.MaxInt64, c: math.MinInt64, kind: EvUnitEnd}, 0, 51},
		{"kind NumKinds, escaped", record{t: t0, kind: NumKinds}, t0, 1 + 1 + 1 + 1},
		{"kind 255, escaped", record{t: t0, a: 1, kind: 255}, t0, 1 + 1 + 1 + 1 + 1},
	} {
		r := &Recorder{logT: tc.prevT}
		r.appendRecord(&tc.f)
		if got := len(r.tail.buf); got != tc.want {
			t.Errorf("%s: %d bytes, want %d", tc.what, got, tc.want)
		}
		var back record
		if c := (cursor{t: tc.prevT}); !r.next(&c, &back) || back != tc.f {
			t.Errorf("%s: decodes to %+v", tc.what, back)
		}
	}
}

func TestRingOverflowDropsOldest(t *testing.T) {
	r := NewRecorder(0, 6) // rounds up to 8
	for i := 0; i < 20; i++ {
		r.Instant(EvSend, substrate.Time(i), int64(i), 0, 0)
	}
	if got := r.Total(); got != 20 {
		t.Errorf("Total = %d, want 20", got)
	}
	if got := r.Len(); got != 8 {
		t.Errorf("Len = %d, want 8 (capacity rounded up from 6)", got)
	}
	if got := r.Dropped(); got != 12 {
		t.Errorf("Dropped = %d, want 12", got)
	}
	evs := slices.Collect(r.Events())
	for i, e := range evs {
		if want := int64(12 + i); e.A != want {
			t.Fatalf("event %d has A=%d, want %d (oldest must be dropped first)", i, e.A, want)
		}
	}
}

// TestOverflowSurfacedInMetrics: a truncated trace must be visible in the
// metrics registry, never mistaken for a complete one.
func TestOverflowSurfacedInMetrics(t *testing.T) {
	c := NewCollector(4)
	r := c.attach(0)
	for i := 0; i < 100; i++ {
		r.Instant(EvSend, substrate.Time(i), 0, 0, 64)
	}
	reg := Summarize(c, 100)
	if got := reg.Counters["trace_events_total"]; got != 100 {
		t.Errorf("trace_events_total = %d, want 100", got)
	}
	if got := reg.Counters["trace_dropped_total"]; got != 96 {
		t.Errorf("trace_dropped_total = %d, want 96", got)
	}
}

func TestSpanCoalescing(t *testing.T) {
	r := NewRecorder(0, 16)
	r.Span(substrate.CatCompute, 0, 10)
	r.Span(substrate.CatCompute, 10, 25) // contiguous, same cat: extends
	r.Span(substrate.CatCompute, 30, 40) // gap: new span
	r.Span(substrate.CatIdle, 40, 50)    // different cat: new span
	r.Span(substrate.CatIdle, 50, 50)    // zero length: dropped
	evs := slices.Collect(r.Events())
	if len(evs) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(evs), evs)
	}
	if evs[0].T != 25 || evs[0].Dur != 25 {
		t.Errorf("coalesced span = end %d dur %d, want end 25 dur 25", evs[0].T, evs[0].Dur)
	}
	if evs[1].T != 40 || evs[1].Dur != 10 {
		t.Errorf("gapped span = end %d dur %d, want end 40 dur 10", evs[1].T, evs[1].Dur)
	}
}

func TestObjKeyRoundTrip(t *testing.T) {
	for _, tc := range [][2]int{{0, 0}, {1, 2}, {127, 1 << 20}, {4095, 0x7fffffff}} {
		key := ObjKey(tc[0], tc[1])
		if KeyHome(key) != tc[0] || KeyIndex(key) != tc[1] {
			t.Errorf("ObjKey(%d,%d) round-trips to (%d,%d)", tc[0], tc[1], KeyHome(key), KeyIndex(key))
		}
	}
}

func TestKindAndPolicyNames(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		if k.String() == "" || k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Error("out-of-range kind must render as unknown")
	}
	for _, code := range []int64{PolLowLoad, PolIdle, PolPollWake} {
		if PolicyName(code) == "unknown" {
			t.Errorf("policy code %d has no name", code)
		}
	}
}

func TestSuffixPath(t *testing.T) {
	cases := [][3]string{
		{"t.json", "fig3", "t.fig3.json"},
		{"out/trace.json", "fig3.none", "out/trace.fig3.none.json"},
		{"plain", "x", "plain.x"},
		{"a.b/c", "x", "a.b/c.x"},
	}
	for _, c := range cases {
		if got := SuffixPath(c[0], c[1]); got != c[2] {
			t.Errorf("SuffixPath(%q, %q) = %q, want %q", c[0], c[1], got, c[2])
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	h := NewHist(1, 10, 100)
	for _, v := range []float64{0.5, 2, 3, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count != 6 || h.Min != 0.5 || h.Max != 500 {
		t.Fatalf("hist state: count=%d min=%g max=%g", h.Count, h.Min, h.Max)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v < h.Min || v > h.Max {
			t.Errorf("Quantile(%g) = %g outside [%g, %g]", q, v, h.Min, h.Max)
		}
	}
	if m := h.Mean(); m != (0.5+2+3+5+50+500)/6 {
		t.Errorf("Mean = %g", m)
	}
	empty := NewHist(1)
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Error("empty histogram quantile/mean must be 0")
	}
}

// TestChromeOutput validates the exporter end to end: the JSON parses, the
// processor rows are named, and migration out/in pairs become flow arrows.
func TestChromeOutput(t *testing.T) {
	c := NewCollector(64)
	p0, p1 := c.attach(0), c.attach(1)
	p0.Span(substrate.CatCompute, 0, substrate.Millisecond)
	p0.Instant(EvMigrateOut, substrate.Millisecond, 1, ObjKey(0, 3), 4096)
	p1.Instant(EvMigrateIn, 2*substrate.Millisecond, 0, ObjKey(0, 3), 4096)
	p1.Interval(EvUnitEnd, 2*substrate.Millisecond, 5*substrate.Millisecond, ObjKey(0, 3), 1, 0)
	p1.Instant(EvPolicy, 5*substrate.Millisecond, PolIdle, 0, 0)

	var buf bytes.Buffer
	if err := c.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v\n%s", err, buf.String())
	}
	count := map[string]int{}
	for _, e := range parsed.TraceEvents {
		count[e.Name+"/"+e.Ph]++
	}
	for name, want := range map[string]int{
		"thread_name/M": 2,
		"Computation/X": 1,
		"migrate-out/i": 1,
		"migrate-in/i":  1,
		"unit/X":        1,
		"policy/i":      1,
		"migration/s":   1,
		"migration/f":   1,
	} {
		if count[name] != want {
			t.Errorf("event %s: got %d, want %d (all: %v)", name, count[name], want, count)
		}
	}
}

func TestChromeTS(t *testing.T) {
	for ts, want := range map[substrate.Time]string{
		0: "0", 1: "0.001", 10: "0.010", 100: "0.100", 999: "0.999",
		1500: "1.500", 2 * substrate.Millisecond: "2000", 3*substrate.Second + 7: "3000000.007",
	} {
		if got := string(appendTS(nil, ts)); got != want || chromeTS(ts) != want {
			t.Errorf("appendTS(%dns) = %q, reference %q, want %q", ts, got, chromeTS(ts), want)
		}
	}
}

// chromeTS and writeChromeReference are the fmt-based Chrome writer the
// append encoder replaced, kept as the oracle it must match byte for byte.

// chromeTS renders a substrate time (ns) as Chrome's microsecond timestamps
// with nanosecond resolution preserved.
func chromeTS(t substrate.Time) string {
	micros := t / 1000
	frac := t % 1000
	if frac == 0 {
		return fmt.Sprintf("%d", micros)
	}
	return fmt.Sprintf("%d.%03d", micros, frac)
}

// writeChromeReference writes the whole trace as Chrome trace_event JSON.
func writeChromeReference(c *Collector, w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(format string, args ...any) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(bw, format, args...)
	}

	// Thread metadata: one named row per processor, sorted by tid.
	for i, r := range c.recs {
		emit(`{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":"p%03d"}}`, i, r.proc)
	}

	var flows []flowEvent
	for i, r := range c.recs {
		for e := range r.Events() {
			switch e.Kind {
			case EvSpan:
				emit(`{"name":%q,"cat":"phase","ph":"X","ts":%s,"dur":%s,"pid":0,"tid":%d}`,
					substrate.Category(e.A).String(), chromeTS(e.T-e.Dur), chromeTS(e.Dur), i)
			case EvUnitEnd:
				emit(`{"name":"unit","cat":"unit","ph":"X","ts":%s,"dur":%s,"pid":0,"tid":%d,"args":{"obj":"%d:%d","origin":%d,"seq":%d}}`,
					chromeTS(e.T-e.Dur), chromeTS(e.Dur), i, KeyHome(e.A), KeyIndex(e.A), e.B, e.C)
			case EvUnitBegin:
				// The matching EvUnitEnd carries the interval; the begin
				// instant is redundant in the timeline view.
			case EvSend:
				emit(`{"name":"send","cat":"msg","ph":"i","s":"t","ts":%s,"pid":0,"tid":%d,"args":{"dst":%d,"tag":%d,"bytes":%d}}`,
					chromeTS(e.T), i, e.A, e.B, e.C)
			case EvRecv:
				emit(`{"name":"recv","cat":"msg","ph":"i","s":"t","ts":%s,"pid":0,"tid":%d,"args":{"src":%d,"tag":%d,"bytes":%d}}`,
					chromeTS(e.T), i, e.A, e.B, e.C)
			case EvForward:
				emit(`{"name":"forward","cat":"mol","ph":"i","s":"t","ts":%s,"pid":0,"tid":%d,"args":{"next":%d,"hops":%d,"bytes":%d}}`,
					chromeTS(e.T), i, e.A, e.B, e.C)
			case EvMigrateOut:
				emit(`{"name":"migrate-out","cat":"mol","ph":"i","s":"t","ts":%s,"pid":0,"tid":%d,"args":{"to":%d,"obj":"%d:%d","bytes":%d}}`,
					chromeTS(e.T), i, e.A, KeyHome(e.B), KeyIndex(e.B), e.C)
				flows = append(flows, flowEvent{proc: i, t: e.T, key: e.B, out: true})
			case EvMigrateIn:
				emit(`{"name":"migrate-in","cat":"mol","ph":"i","s":"t","ts":%s,"pid":0,"tid":%d,"args":{"from":%d,"obj":"%d:%d","bytes":%d}}`,
					chromeTS(e.T), i, e.A, KeyHome(e.B), KeyIndex(e.B), e.C)
				flows = append(flows, flowEvent{proc: i, t: e.T, key: e.B, out: false})
			case EvPolicy:
				emit(`{"name":"policy","cat":"ilb","ph":"i","s":"t","ts":%s,"pid":0,"tid":%d,"args":{"decision":%q}}`,
					chromeTS(e.T), i, PolicyName(e.A))
			case EvRetransmit:
				emit(`{"name":"retransmit","cat":"rel","ph":"i","s":"t","ts":%s,"pid":0,"tid":%d,"args":{"peer":%d,"tag":%d,"seq":%d}}`,
					chromeTS(e.T), i, e.A, e.B, e.C)
			case EvStop:
				emit(`{"name":"stop-broadcast","cat":"app","ph":"i","s":"t","ts":%s,"pid":0,"tid":%d,"args":{"peers":%d}}`,
					chromeTS(e.T), i, e.A)
			case EvCheckpoint:
				emit(`{"name":"checkpoint","cat":"recov","ph":"i","s":"t","ts":%s,"pid":0,"tid":%d,"args":{"objects":%d,"bytes":%d}}`,
					chromeTS(e.T), i, e.A, e.B)
			case EvSuspect:
				emit(`{"name":"suspect","cat":"recov","ph":"i","s":"t","ts":%s,"pid":0,"tid":%d,"args":{"proc":%d,"coordinator":%d}}`,
					chromeTS(e.T), i, e.A, e.B)
			case EvRepair:
				emit(`{"name":"repair","cat":"recov","ph":"i","s":"t","ts":%s,"pid":0,"tid":%d,"args":{"obj":"%d:%d","from":%d,"bytes":%d}}`,
					chromeTS(e.T), i, KeyHome(e.A), KeyIndex(e.A), e.B, e.C)
			case EvReplay:
				emit(`{"name":"replay","cat":"recov","ph":"i","s":"t","ts":%s,"pid":0,"tid":%d,"args":{"obj":"%d:%d","origin":%d,"seq":%d}}`,
					chromeTS(e.T), i, KeyHome(e.A), KeyIndex(e.A), e.B, e.C)
			}
		}
	}

	// Migration arrows: pair the k-th out with the k-th in per object key,
	// in time order (objects migrate sequentially, so this pairing is exact
	// on the simulator and a faithful best effort under real clocks).
	sort.SliceStable(flows, func(a, b int) bool {
		if flows[a].t != flows[b].t {
			return flows[a].t < flows[b].t
		}
		return flows[a].proc < flows[b].proc
	})
	pendingOut := make(map[int64][]flowEvent)
	id := 0
	for _, f := range flows {
		if f.out {
			pendingOut[f.key] = append(pendingOut[f.key], f)
			continue
		}
		outs := pendingOut[f.key]
		if len(outs) == 0 {
			continue // in without a retained out (ring overflow)
		}
		o := outs[0]
		pendingOut[f.key] = outs[1:]
		id++
		emit(`{"name":"migration","cat":"mol","ph":"s","id":%d,"ts":%s,"pid":0,"tid":%d}`,
			id, chromeTS(o.t), o.proc)
		emit(`{"name":"migration","cat":"mol","ph":"f","bp":"e","id":%d,"ts":%s,"pid":0,"tid":%d}`,
			id, chromeTS(f.t), f.proc)
	}

	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// intn is the one draw randomCollector needs: *rand.Rand for the seeded
// property, fuzzBytes for the fuzzer.
type intn interface{ Intn(n int) int }

// fuzzBytes draws from fuzz input, two bytes a draw; once it runs out every
// draw is 0, which ends every loop of the generator.
type fuzzBytes []byte

func (s *fuzzBytes) Intn(n int) int {
	if len(*s) < 2 {
		return 0
	}
	v := int(binary.LittleEndian.Uint16(*s))
	*s = (*s)[2:]
	return v % n
}

// randomCollector draws a collector for the Chrome writer: 1-5 processors
// with ids of one to four digits; rings of 4-128 events, so many wrap;
// every Kind plus two out of range; span categories and policy codes one
// past either end of their range; timestamps and durations whose nanosecond
// fraction is 0, 1, 10, 100, 999 or anything; integer arguments up to the
// int64 extremes; migrations of nine objects among the processors, so
// objects move several times and some migrate-ins outlive their
// migrate-outs in the rings; and folded stretches of 3-42 polls at an
// interval and a cost drawn like a duration or zero, so their periods are
// whole µs or not and their timestamps' fractions stay, turn zero or turn
// non-zero, some jumping to just below 10,000,000 µs so that their
// timestamps gain a digit.
func randomCollector(r intn) *Collector {
	c := NewCollector(4 << r.Intn(6))
	draw := func() substrate.Time {
		fracs := [...]int64{0, 1, 10, 100, 999}
		f := int64(r.Intn(1000))
		if i := r.Intn(len(fracs) + 1); i < len(fracs) {
			f = fracs[i]
		}
		return substrate.Time(int64(r.Intn(4))*1000 + f)
	}
	arg := func() int64 {
		switch r.Intn(8) {
		case 0:
			return math.MinInt64
		case 1:
			return math.MaxInt64
		default:
			return int64(r.Intn(2000)) - 100
		}
	}
	procs := 1 + r.Intn(5)
	for p := 0; p < procs; p++ {
		rec := c.attach([]int{p, 10 + p, 100 + p, 1000 + p}[r.Intn(4)])
		var t substrate.Time
		for n := r.Intn(200); n > 0; n-- {
			t += draw()
			if r.Intn(8) == 0 {
				if r.Intn(4) == 0 {
					t = max(t, 9_999_990*substrate.Microsecond+draw())
				}
				interval, cost := draw(), draw()
				if r.Intn(4) == 0 {
					interval = 0
				}
				if r.Intn(4) == 0 {
					cost = 0
				}
				polls := 3 + r.Intn(40)
				rec.polls(t, polls, interval, cost)
				t += substrate.Time(polls) * (interval + cost)
				continue
			}
			k := Kind(r.Intn(int(NumKinds) + 2))
			if k == NumKinds+1 {
				k = 255
			}
			a, b, cc := arg(), arg(), arg()
			obj := ObjKey(r.Intn(3), r.Intn(3))
			var dur substrate.Time
			switch k {
			case EvSpan:
				a, dur = int64(r.Intn(int(substrate.NumCategories)+2))-1, min(draw(), t)
			case EvUnitEnd:
				a, dur = obj, min(draw(), t)
			case EvUnitBegin, EvRepair, EvReplay:
				a = obj
			case EvMigrateOut, EvMigrateIn:
				a, b = int64(r.Intn(procs)), obj
			case EvPolicy:
				a = int64(r.Intn(5)) - 1
			}
			rec.Interval(k, t-dur, t, a, b, cc)
		}
	}
	return c
}

// randomStretchCollector draws a collector whose folded stretches are long
// enough to be written a block of polls at a time, which randomCollector's
// never are: 1-3 processors, each with 1-3 stretches of 200-5,000 polls
// after a plain event, on rings of 512-8,192 events, so many windows start
// inside a stretch and past its first block. A stretch's interval is whole
// µs, or whole µs plus 1, 10, 100, 125, 250, 500, 999 or any ns, so its
// timestamps' fractions flip at every poll, every few or every few hundred
// when half the stretches start at a whole µs, and at zero interval or cost
// now and then; half the stretches start so
// that their timestamps cross 10,000,000 µs (gaining an eighth digit),
// 100,000,000 µs (a ninth) or 200,000,000 µs (a carry through the last
// eight) at a drawn poll, mostly inside a block after the first.
func randomStretchCollector(r intn) *Collector {
	c := NewCollector(512 << r.Intn(5))
	us := func() substrate.Time { return substrate.Time(r.Intn(20)) * substrate.Microsecond }
	for p, procs := 0, 1+r.Intn(3); p < procs; p++ {
		rec := c.attach(p)
		var t substrate.Time
		for n := 1 + r.Intn(3); n > 0; n-- {
			t += us() + substrate.Time(r.Intn(1000))
			rec.Instant(EvSend, t, 1, 2, 64)
			interval, cost := us(), us()
			if fracs := [...]substrate.Time{0, 1, 10, 100, 125, 250, 500, 999}; r.Intn(4) > 0 {
				interval += fracs[r.Intn(len(fracs))]
			} else {
				interval += substrate.Time(r.Intn(1000))
			}
			if r.Intn(6) == 0 {
				interval = 0
			}
			if r.Intn(6) == 0 {
				cost = 0
			}
			polls, period := 200+r.Intn(4801), interval+cost
			if r.Intn(2) == 0 && period > 0 {
				edge := [...]substrate.Time{10_000_000, 100_000_000, 200_000_000}[r.Intn(3)] * substrate.Microsecond
				k := 1 + r.Intn(polls-1) // the first poll past the edge
				t = max(t, edge-substrate.Time(k)*period+substrate.Time(r.Intn(int(period))))
			}
			if r.Intn(2) == 0 { // whole µs, so a fraction turns zero where the periods' ns add up to whole µs
				t += (1000 - t%1000) % 1000
			}
			rec.polls(t, polls, interval, cost)
			t += substrate.Time(polls) * period
		}
	}
	return c
}

// chromeCoverage names the cases of randomCollector's promise that c and
// its Chrome output out exercise.
func chromeCoverage(c *Collector, out []byte) []string {
	var seen []string
	if c.Dropped() > 0 {
		seen = append(seen, "wrapped ring")
	}
	if bytes.Count(out, []byte(`"name":"migrate-in"`)) > bytes.Count(out, []byte(`"ph":"f"`)) {
		seen = append(seen, "migrate-in without its migrate-out")
	}
	outs := map[int64]int{}
	for _, r := range c.recs {
		if at, skip := r.window(); skip > 0 { // only a folded record holds more than one event
			seen = append(seen, "window starting inside a stretch")
			var f record
			r.next(&at, &f)
			if _, lo, hi := f.firstPoll(); skip/uint64(hi-lo) >= maxBlockPolls {
				seen = append(seen, "window starting inside a stretch past its first block")
			}
		}
		for ru := range r.runs() {
			if ru.n > 1 {
				seen = append(seen, stretchCoverage(ru)...)
			}
		}
		for e := range r.Events() {
			seen = append(seen, "kind "+e.Kind.String(), fmt.Sprintf("fraction %d", e.T%1000))
			switch {
			case e.Kind == EvMigrateOut:
				if outs[e.B]++; outs[e.B] == 2 {
					seen = append(seen, "object migrating twice")
				}
			case e.Kind == EvSpan && substrate.Category(e.A).String() == "Unknown":
				seen = append(seen, "category out of range")
			case e.Kind == EvPolicy && PolicyName(e.A) == "unknown":
				seen = append(seen, "policy code out of range")
			}
		}
	}
	return seen
}

// stretchCoverage names the cases of a stretch, a run of n > 1 polls.
func stretchCoverage(ru run) []string {
	seen := []string{"stretch at a non-whole-µs period"}
	if ru.period%1000 == 0 {
		seen[0] = "stretch at a whole-µs period"
	}
	if ru.n > maxBlockPolls {
		seen = append(seen, "stretch of more than one block")
		if ru.n%maxBlockPolls != 0 {
			seen = append(seen, "stretch ending inside a block")
		}
	}
	compute, pollThread := false, false
	for _, e := range ru.evs {
		first := e.T
		if e.Kind == EvSpan {
			first -= e.Dur
			compute = compute || substrate.Category(e.A) == substrate.CatCompute
			pollThread = pollThread || substrate.Category(e.A) == substrate.CatPollThread
		}
		last := first + substrate.Time(ru.n-1)*ru.period
		if first%1000 == 0 {
			seen = append(seen, "stretch timestamp with fraction 0")
		} else {
			seen = append(seen, "stretch timestamp with a fraction")
		}
		if (first%1000 == 0) != ((first+ru.period)%1000 == 0) {
			seen = append(seen, "stretch timestamp whose fraction turns zero or non-zero")
		}
		if len(fmt.Sprint(int64(first/1000))) != len(fmt.Sprint(int64(last/1000))) {
			seen = append(seen, "stretch timestamp gaining a digit")
			if last >= 10_000_000*substrate.Microsecond {
				seen = append(seen, "stretch timestamp crossing 10,000,000 µs")
			}
			// The first poll past the next power of ten of µs.
			lim := substrate.Time(10_000)
			for lim <= first {
				lim *= 10
			}
			if p := (lim - first + ru.period - 1) / ru.period; p > maxBlockPolls && p%maxBlockPolls != 0 {
				seen = append(seen, "stretch timestamp gaining a digit inside a block after the first")
			}
		}
		if first >= 100_000_000*substrate.Microsecond && first/100_000_000_000 != last/100_000_000_000 {
			seen = append(seen, "stretch timestamp carrying through its last eight digits")
		}
		if ru.period%1000 != 0 && ru.n > maxBlockPolls+1 {
			for p := uint64(maxBlockPolls); p < ru.n; p++ {
				at := first + substrate.Time(p)*ru.period
				if (at%1000 == 0) != ((at-ru.period)%1000 == 0) {
					seen = append(seen, "stretch timestamp whose fraction flips after the first block")
					break
				}
			}
		}
	}
	if !compute {
		seen = append(seen, "stretch at interval 0")
	}
	if !pollThread {
		seen = append(seen, "stretch at cost 0")
	}
	return seen
}

// referenceDiff exports c with both writers and returns the output, and the
// first line where the two differ ("" when they agree).
func referenceDiff(c *Collector) (out []byte, diff string) {
	var got, want bytes.Buffer
	if err := c.WriteChrome(&got); err != nil {
		return nil, err.Error()
	}
	if err := writeChromeReference(c, &want); err != nil {
		return nil, err.Error()
	}
	g, w := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want.Bytes(), []byte("\n"))
	for i := 0; i < max(len(g), len(w)); i++ {
		if i >= len(g) || i >= len(w) || !bytes.Equal(g[i], w[i]) {
			return nil, fmt.Sprintf("output differs from the reference at line %d of %d (reference %d)\n got: %q\nwant: %q",
				i+1, len(g), len(w), g[min(i, len(g)-1)], w[min(i, len(w)-1)])
		}
	}
	return got.Bytes(), ""
}

// TestChromeMatchesReference is the encoder's contract: on any collector it
// writes exactly the bytes of the fmt-based writer it replaced.
func TestChromeMatchesReference(t *testing.T) {
	covered := map[string]bool{}
	for seed := int64(0); seed < 2000; seed++ {
		c := randomCollector(rand.New(rand.NewSource(seed)))
		out, diff := referenceDiff(c)
		if diff != "" {
			t.Fatalf("seed %d: %s", seed, diff)
		}
		for _, s := range chromeCoverage(c, out) {
			covered[s] = true
		}
	}
	for seed := int64(0); seed < 24; seed++ {
		c := randomStretchCollector(rand.New(rand.NewSource(seed)))
		out, diff := referenceDiff(c)
		if diff != "" {
			t.Fatalf("long stretches, seed %d: %s", seed, diff)
		}
		for _, s := range chromeCoverage(c, out) {
			covered[s] = true
		}
	}
	want := []string{"stretch of more than one block", "stretch ending inside a block",
		"stretch timestamp gaining a digit inside a block after the first",
		"stretch timestamp whose fraction flips after the first block",
		"window starting inside a stretch past its first block",
		"stretch timestamp carrying through its last eight digits",
		"wrapped ring", "migrate-in without its migrate-out", "object migrating twice",
		"category out of range", "policy code out of range", "kind unknown",
		"fraction 0", "fraction 1", "fraction 10", "fraction 100", "fraction 999",
		"stretch at a whole-µs period", "stretch at a non-whole-µs period", "stretch at interval 0",
		"stretch at cost 0", "stretch timestamp with fraction 0", "stretch timestamp with a fraction",
		"stretch timestamp whose fraction turns zero or non-zero", "stretch timestamp gaining a digit",
		"stretch timestamp crossing 10,000,000 µs", "window starting inside a stretch"}
	for k := Kind(0); k < NumKinds; k++ {
		want = append(want, "kind "+k.String())
	}
	for _, s := range want {
		if !covered[s] {
			t.Errorf("no draw covered: %s", s)
		}
	}
}

// FuzzChromeExport drives randomCollector, then randomStretchCollector,
// from the same fuzz bytes and holds the encoder to the reference.
func FuzzChromeExport(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{7, 1, 200, 3}, 64))
	f.Fuzz(func(t *testing.T, in []byte) {
		src := fuzzBytes(in)
		if _, diff := referenceDiff(randomCollector(&src)); diff != "" {
			t.Fatal(diff)
		}
		src = fuzzBytes(in)
		if _, diff := referenceDiff(randomStretchCollector(&src)); diff != "" {
			t.Fatalf("long stretches: %s", diff)
		}
	})
}

// summarizeReference is Summarize before stretches were folded: a registry
// built event by event from Events, kept as the oracle Summarize must match.
// It ignores a kind out of range, which the Summarize it replaced indexed
// past its counts with.
func summarizeReference(c *Collector, makespan substrate.Time) *Registry {
	reg := &Registry{
		Counters:   map[string]int64{},
		Hists:      map[string]*Hist{},
		Categories: map[string]PerProcSummary{},
		Procs:      c.NumProcs(),
		MakespanS:  makespan.Seconds(),
	}
	unitSec := NewHist(0.001, 0.01, 0.1, 0.5, 1, 2, 5, 10, 20, 50, 100)
	hops := NewHist(1, 2, 3, 4, 6, 8, 12, 16, 24, 32)
	sendBytes := NewHist(16, 64, 256, 1024, 4096, 16384, 65536)
	var kindTotals [NumKinds]int64
	catSecs := make([][]float64, substrate.NumCategories)
	for i := range catSecs {
		catSecs[i] = make([]float64, c.NumProcs())
	}
	for i, r := range c.recs {
		for e := range r.Events() {
			if e.Kind < NumKinds {
				kindTotals[e.Kind]++
			}
			switch e.Kind {
			case EvSpan:
				if cat := substrate.Category(e.A); cat >= 0 && cat < substrate.NumCategories {
					catSecs[cat][i] += e.Dur.Seconds()
				}
			case EvUnitEnd:
				unitSec.Observe(e.Dur.Seconds())
			case EvForward:
				hops.Observe(float64(e.B))
			case EvSend:
				sendBytes.Observe(float64(e.C))
			}
		}
	}
	for k, n := range kindTotals {
		reg.Counters["ev_"+strings.ReplaceAll(Kind(k).String(), "-", "_")+"_total"] = n
	}
	reg.Counters["trace_events_total"] = int64(c.Total())
	reg.Counters["trace_dropped_total"] = int64(c.Dropped())
	reg.Hists["unit_seconds"] = unitSec
	reg.Hists["forward_hops"] = hops
	reg.Hists["send_bytes"] = sendBytes
	for cat := substrate.Category(0); cat < substrate.NumCategories; cat++ {
		if s := summarize(catSecs[cat]); s.Total > 0 {
			reg.Categories[strings.ToLower(cat.String())+"_s"] = s
		}
	}
	return reg
}

// TestSummarizeMatchesReference: on any collector, stretches included,
// Summarize builds exactly the registry the event-by-event fold builds.
// reflect.DeepEqual compares every float sum with ==, so a stretch whose
// seconds were added in another order, or multiplied, fails it.
func TestSummarizeMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		c := randomCollector(rand.New(rand.NewSource(seed)))
		if got, want := Summarize(c, 7), summarizeReference(c, 7); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Summarize differs from the event-by-event registry\n got: %s\nwant: %s", seed, got.Text(), want.Text())
		}
	}
}

// TestSummarizeMatchesReferenceOnLongStretches is
// TestSummarizeMatchesReference on randomStretchCollector's stretches of
// 200-5,000 polls, which addN charges a binade at a time.
func TestSummarizeMatchesReferenceOnLongStretches(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		c := randomStretchCollector(rand.New(rand.NewSource(seed)))
		if got, want := Summarize(c, 7), summarizeReference(c, 7); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Summarize differs from the event-by-event registry\n got: %s\nwant: %s", seed, got.Text(), want.Text())
		}
	}
}

// TestAddNMatchesLoop: addN is n additions of d to x, bit for bit, on
// random draws and on the cases its shortcut turns on: d a tie at x's ulp,
// d absorbed under half an ulp, sums crossing binades, x = 0 and subnormal
// x, n up to 10^6, and Figure 3's magnitudes (a 10 ms interval and a 4 µs
// poll cost charged to ~100 s).
func TestAddNMatchesLoop(t *testing.T) {
	loop := func(x, d float64, n uint64) float64 {
		for ; n > 0; n-- {
			x += d
		}
		return x
	}
	check := func(what string, x, d float64, n uint64) {
		t.Helper()
		if got, want := addN(x, d, n), loop(x, d, n); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: addN(%v, %v, %d) = %v, %d additions give %v", what, x, d, n, got, n, want)
		}
	}
	ulp := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) - x }
	rng := rand.New(rand.NewSource(1))
	sizes := func() uint64 { return []uint64{0, 1, 7, 8, 9, 1000, 20_000}[rng.Intn(7)] + uint64(rng.Intn(50)) }
	for i := 0; i < 2000; i++ {
		x := math.Ldexp(rng.Float64(), rng.Intn(40)-20)
		if rng.Intn(8) == 0 {
			x = 0
		}
		d := math.Ldexp(rng.Float64(), rng.Intn(60)-50)
		check("random", x, d, sizes())
	}
	for i := 0; i < 300; i++ {
		x := math.Ldexp(1+rng.Float64(), rng.Intn(20)-10)
		u := ulp(x)
		check("tie", x, (float64(rng.Intn(4))+0.5)*u, sizes())
		check("absorbed", x, u*rng.Float64()/2, sizes())
		check("half an ulp", x, u/2, sizes())
		check("just above half an ulp", x, u/2+ulp(u/2), sizes())
		// A sum that crosses the binade above x, several times over.
		top := math.Ldexp(1, math.Ilogb(x)+1)
		check("binade crossing", top-u*float64(1+rng.Intn(100)), u*(1+4*rng.Float64()), sizes())
		check("binade crossing", x, (top-x)/float64(1+rng.Intn(1000)), sizes())
	}
	for _, n := range []uint64{8, 1000, 1_000_000} {
		check("zero", 0, 0.01, n)
		check("negative zero", math.Copysign(0, -1), 4e-6, n)
		check("subnormal", 5e-324, 5e-324, n)
		check("subnormal to normal", math.SmallestNonzeroFloat64*1e3, 1e-310, n)
		for _, x := range []float64{99.95, 100, 100.02, 127.999, 128, 255.99} {
			check("Figure 3 interval", x, 0.01, n)
			check("Figure 3 poll cost", x, 4e-6, n)
			check("Figure 3 period", x, 0.010004, n)
		}
		check("to +Inf", math.MaxFloat64, math.MaxFloat64/4, n)
		check("negative", -3, 0.25, n)
		check("negative d", 3, -0.25, n)
		check("NaN", math.NaN(), 1, n)
	}
}

// TestExportAllocsIndependentOfEvents is the cold-path twin of
// TestHotPathZeroAlloc: both exporters read the rings in place and format
// without boxing, so a 100x longer trace costs no more allocations; only the
// flow list and its map grow, and only with migrations, which are held at
// ten here. A folded stretch is exported through one template reused for
// every poll, so a 10,000-poll stretch costs what a 10-poll one does, also
// when its timestamps gain digits and change fraction as they go.
func TestExportAllocsIndependentOfEvents(t *testing.T) {
	allocs := func(c *Collector) (chrome, summarize float64) {
		chrome = testing.AllocsPerRun(2, func() {
			if err := c.WriteChrome(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		summarize = testing.AllocsPerRun(2, func() { Summarize(c, 0) })
		return chrome, summarize
	}
	mixed := func(perRecorder int) *Collector {
		c := NewCollector(1 << 17)
		for p := 0; p < 2; p++ {
			r := c.attach(p)
			for i := 0; i < perRecorder; i++ {
				k := Kind(i % int(NumKinds))
				if i >= 10 && (k == EvMigrateOut || k == EvMigrateIn) {
					k = EvSend
				}
				r.Interval(k, substrate.Time(i)*1500, substrate.Time(i)*1500+700, ObjKey(p, i%4), int64(i), 64)
			}
		}
		return c
	}
	polled := func(polls int) *Collector {
		c := NewCollector(1 << 17)
		for p := 0; p < 2; p++ {
			r := c.attach(p)
			t := substrate.Time(9_990 * substrate.Microsecond)
			for i := 0; i < 20; i++ {
				r.Instant(EvSend, t, 1, 2, 64)
				r.polls(t+1500, polls, 10*substrate.Microsecond+500, 4*substrate.Microsecond)
				t += substrate.Time(polls+1) * 15 * substrate.Microsecond
			}
		}
		return c
	}
	for _, tc := range []struct {
		what       string
		small, big *Collector
	}{
		{"1,000 -> 100,000 events per recorder", mixed(1_000), mixed(100_000)},
		{"10-poll -> 10,000-poll stretches", polled(10), polled(10_000)},
	} {
		smallC, smallS := allocs(tc.small)
		bigC, bigS := allocs(tc.big)
		if bigC > smallC+4 || bigS > smallS+4 {
			t.Errorf("allocations grow with the event count: WriteChrome %.0f -> %.0f, Summarize %.0f -> %.0f (%s)",
				smallC, bigC, smallS, bigS, tc.what)
		}
	}
}

// failingWriter accepts limit bytes, then fails every write, counting the
// calls made after its first failure.
type failingWriter struct {
	limit, n   int
	failed     bool
	callsAfter int
}

var errDiskFull = errors.New("disk full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.failed {
		w.callsAfter++
		return 0, errDiskFull
	}
	if w.n+len(p) <= w.limit {
		w.n += len(p)
		return len(p), nil
	}
	w.failed = true
	n := w.limit - w.n
	w.n = w.limit
	return n, errDiskFull
}

// TestChromeStopsAtFirstWriteError: a failed write ends the export with its
// error instead of formatting the rest of the trace into a dead writer.
func TestChromeStopsAtFirstWriteError(t *testing.T) {
	c := NewCollector(1 << 13)
	for p := 0; p < 2; p++ {
		r := c.attach(p)
		for i := 0; i < 5000; i++ { // ~0.5 MB of JSON: many buffer flushes
			r.Instant(EvSend, substrate.Time(i), 1, 2, 3)
		}
	}
	w := &failingWriter{limit: 1 << 10}
	if err := c.WriteChrome(w); !errors.Is(err, errDiskFull) {
		t.Fatalf("WriteChrome into a writer that fails after 1 KiB returned %v, want %v", err, errDiskFull)
	}
	if !w.failed || w.callsAfter != 0 {
		t.Errorf("writer failed: %v; Write calls after the failure: %d, want 0", w.failed, w.callsAfter)
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fill")
	}
	if err := c.WriteChromeFile("/dev/full"); err == nil {
		t.Error("WriteChromeFile onto a full device returned no error")
	}
}

// TestChromeFileMatchesWriteChrome: the file WriteChromeFile writes through
// its buffer holds exactly WriteChrome's bytes, the buffer's last partial
// fill included.
func TestChromeFileMatchesWriteChrome(t *testing.T) {
	c := randomStretchCollector(rand.New(rand.NewSource(1)))
	var want bytes.Buffer
	if err := c.WriteChrome(&want); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := c.WriteChromeFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() <= 64<<10 {
		t.Fatalf("the export is %d bytes, within one fill of the file's buffer", want.Len())
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("the file holds %d bytes, WriteChrome wrote %d, and they differ", len(got), want.Len())
	}
}

// refRecorder is the Recorder before poll folding and chunked storage: a
// flat ring of events written in place, each poll of a stretch replayed as
// its three events. It is kept as the oracle the folded ring must match on
// every call sequence.
type refRecorder struct {
	buf  []Event
	mask uint64
	head uint64 // total events pushed since creation
}

func newRefRecorder(ringCap int) *refRecorder {
	n := ringSize(ringCap)
	return &refRecorder{buf: make([]Event, n), mask: uint64(n - 1)}
}

func (r *refRecorder) Span(cat substrate.Category, start, end substrate.Time) {
	if end <= start {
		return
	}
	if r.head > 0 {
		last := &r.buf[(r.head-1)&r.mask]
		if last.Kind == EvSpan && last.A == int64(cat) && last.T == start {
			last.T = end
			last.Dur += end - start
			return
		}
	}
	r.buf[r.head&r.mask] = Event{T: end, Dur: end - start, A: int64(cat), Kind: EvSpan}
	r.head++
}

func (r *refRecorder) Instant(k Kind, t substrate.Time, a, b, c int64) {
	r.buf[r.head&r.mask] = Event{T: t, A: a, B: b, C: c, Kind: k}
	r.head++
}

func (r *refRecorder) Interval(k Kind, start, end substrate.Time, a, b, c int64) {
	r.buf[r.head&r.mask] = Event{T: end, Dur: end - start, A: a, B: b, C: c, Kind: k}
	r.head++
}

func (r *refRecorder) polls(t substrate.Time, n int, interval, cost substrate.Time) {
	for j := 0; j < n; j++ {
		r.Span(substrate.CatCompute, t, t+interval)
		t += interval
		r.Instant(EvPolicy, t, PolPollWake, 0, 0)
		r.Span(substrate.CatPollThread, t, t+cost)
		t += cost
	}
}

func (r *refRecorder) Total() uint64 { return r.head }

func (r *refRecorder) Len() int { return int(min(r.head, uint64(len(r.buf)))) }

func (r *refRecorder) Dropped() uint64 { return r.head - uint64(r.Len()) }

func (r *refRecorder) Events() iter.Seq[Event] {
	return func(yield func(Event) bool) {
		for i := r.head - uint64(r.Len()); i < r.head; i++ {
			if !yield(r.buf[i&r.mask]) {
				return
			}
		}
	}
}

// recorder is what a call sequence drives: the Recorder or its reference.
type recorder interface {
	Span(cat substrate.Category, start, end substrate.Time)
	Instant(k Kind, t substrate.Time, a, b, c int64)
	Interval(k Kind, start, end substrate.Time, a, b, c int64)
	polls(t substrate.Time, n int, interval, cost substrate.Time)
}

// both forwards every call to a Recorder and its reference.
type both [2]recorder

func (x both) Span(cat substrate.Category, start, end substrate.Time) {
	x[0].Span(cat, start, end)
	x[1].Span(cat, start, end)
}

func (x both) Instant(k Kind, t substrate.Time, a, b, c int64) {
	x[0].Instant(k, t, a, b, c)
	x[1].Instant(k, t, a, b, c)
}

func (x both) Interval(k Kind, start, end substrate.Time, a, b, c int64) {
	x[0].Interval(k, start, end, a, b, c)
	x[1].Interval(k, start, end, a, b, c)
}

func (x both) polls(t substrate.Time, n int, interval, cost substrate.Time) {
	x[0].polls(t, n, interval, cost)
	x[1].polls(t, n, interval, cost)
}

// randomRecorders draws a ring of 1-1,024 events, so most sequences wrap,
// and feeds a Recorder and its reference the same calls in the shapes
// trace.Endpoint makes: spans of every category, often abutting (so they
// coalesce) and sometimes empty; instants and intervals of every kind
// (intervals of EvSpan too); and stretches of 0-39 polls, 1, 2 and 3 often,
// at an interval of 0-3 and a cost of 0-2. A stretch may start right where
// a compute span ends and may be followed by its closing compute span, a
// CatPollThread span from where it ends, or anything else. To reach every
// branch of the codec it also draws, now and then, a jump of the clock by
// 2^40 ns, an instant stamped before the previous record, an interval
// longer than 2^32 ns, and arguments at the int64 extremes, at -1 and
// shaped like an ObjKey with a non-zero home. It returns the cases it drew
// that the property must cover.
func randomRecorders(r intn) (*Recorder, *refRecorder, []string) {
	ringCap := 1 + r.Intn(1024)
	got, want := NewRecorder(0, ringCap), newRefRecorder(ringCap)
	b := both{got, want}
	var drew []string
	arg := func() int64 {
		switch r.Intn(8) {
		case 0:
			return []int64{math.MinInt64, math.MaxInt64, -1}[r.Intn(3)]
		case 1:
			return ObjKey(1+r.Intn(4095), r.Intn(1<<16)<<15|r.Intn(1<<15))
		default:
			return int64(r.Intn(3))
		}
	}
	var t substrate.Time
	for n := r.Intn(400); n > 0; n-- {
		if r.Intn(64) == 0 {
			t += 1 << 40
		}
		switch r.Intn(6) {
		case 0:
			start := t + substrate.Time(r.Intn(2))
			t = start + substrate.Time(r.Intn(4))
			b.Span(substrate.Category(r.Intn(int(substrate.NumCategories))), start, t)
		case 1:
			at := t
			if r.Intn(8) == 0 {
				at -= substrate.Time(1 + r.Intn(1000))
			}
			b.Instant(Kind(r.Intn(int(NumKinds))), at, arg(), arg(), arg())
		case 2:
			start := t
			t += substrate.Time(r.Intn(4))
			if r.Intn(8) == 0 {
				start -= 1<<32 + substrate.Time(r.Intn(1000))
			}
			a := int64(r.Intn(int(substrate.NumCategories)))
			if r.Intn(2) == 0 {
				a = arg()
			}
			b.Interval(Kind(r.Intn(int(NumKinds))), start, t, a, arg(), arg())
		default:
			polls := []int{1, 2, 3, r.Intn(40)}[r.Intn(4)]
			interval, cost := substrate.Time(r.Intn(4)), substrate.Time(r.Intn(3))
			if r.Intn(2) == 0 {
				b.Span(substrate.CatCompute, t-1, t)
				if polls > 0 && interval > 0 {
					drew = append(drew, "stretch right after a compute span")
				}
			}
			b.polls(t, polls, interval, cost)
			t += substrate.Time(polls) * (interval + cost)
			drew = append(drew, fmt.Sprintf("%d-poll stretch", polls))
			if polls >= 3 && cost == 0 {
				drew = append(drew, "folded stretch at cost 0")
			}
			if polls >= 3 && interval == 0 {
				drew = append(drew, "folded stretch at interval 0")
			}
			switch r.Intn(3) {
			case 0:
				end := t + substrate.Time(r.Intn(3))
				b.Span(substrate.CatCompute, t, end)
				t = end
			case 1:
				b.Span(substrate.CatPollThread, t, t+1)
				t++
				if polls > 0 && cost > 0 {
					drew = append(drew, "CatPollThread span where a stretch ends")
				}
			}
		}
	}
	if got.Dropped() > 0 {
		drew = append(drew, "wrapped ring")
	}
	if _, skip := got.window(); skip > 0 {
		drew = append(drew, "window starting inside a folded record")
	}
	return got, want, append(drew, codecCoverage(got)...)
}

// codecCoverage names the edge cases among the retained records that went
// through the codec: every one but the newest, which is never encoded.
func codecCoverage(r *Recorder) []string {
	var seen []string
	c, _ := r.window()
	prev, first := substrate.Time(0), true
	for f := (record{}); r.next(&c, &f) && c.ci < len(r.chunks); first = false {
		if !first && f.t < prev {
			seen = append(seen, "timestamp earlier than the previous record's")
		}
		prev = f.t
		if f.t >= 1<<40 {
			seen = append(seen, "timestamp past 2^40")
		}
		if f.dur >= 1<<32 {
			seen = append(seen, "dur past 2^32")
		}
		for i, v := range [3]int64{f.a, f.b, f.c} {
			name := string("abc"[i]) + " at "
			switch {
			case v == math.MinInt64:
				seen = append(seen, name+"math.MinInt64")
			case v == math.MaxInt64:
				seen = append(seen, name+"math.MaxInt64")
			case v == -1:
				seen = append(seen, name+"-1")
			case KeyHome(v) > 0:
				seen = append(seen, name+"an ObjKey")
			}
		}
	}
	return seen
}

// recorderCases are the cases randomRecorders promises: TestRecorderMatchesReference
// must draw every one, and so must FuzzRecorderMatchesReference's seed corpus.
var recorderCases = func() []string {
	cases := []string{"1-poll stretch", "2-poll stretch", "3-poll stretch", "0-poll stretch",
		"stretch right after a compute span", "CatPollThread span where a stretch ends",
		"folded stretch at cost 0", "folded stretch at interval 0", "wrapped ring",
		"window starting inside a folded record", "timestamp past 2^40",
		"timestamp earlier than the previous record's", "dur past 2^32"}
	for _, field := range []string{"a", "b", "c"} {
		for _, v := range []string{"math.MinInt64", "math.MaxInt64", "-1", "an ObjKey"} {
			cases = append(cases, field+" at "+v)
		}
	}
	return cases
}()

// recorderDiff compares every reading of got with want's: "" when they
// agree, else the first difference.
func recorderDiff(got *Recorder, want *refRecorder) string {
	g := [3]uint64{got.Total(), uint64(got.Len()), got.Dropped()}
	if w := [3]uint64{want.Total(), uint64(want.Len()), want.Dropped()}; g != w {
		return fmt.Sprintf("Total, Len, Dropped = %v, reference %v", g, w)
	}
	ge, we := slices.Collect(got.Events()), slices.Collect(want.Events())
	if !slices.Equal(ge, we) {
		i := 0
		for i < min(len(ge), len(we)) && ge[i] == we[i] {
			i++
		}
		return fmt.Sprintf("events differ from event %d on: got %d events, %+v..., reference %d, %+v...",
			i, len(ge), ge[i:min(i+3, len(ge))], len(we), we[i:min(i+3, len(we))])
	}
	half := len(we) / 2
	var head []Event
	for e := range got.Events() {
		if len(head) == half {
			break
		}
		head = append(head, e)
	}
	if !slices.Equal(head, we[:half]) {
		return fmt.Sprintf("the first %d events read with a break differ from the reference's", half)
	}
	return ""
}

// TestRecorderMatchesReference is the folded ring's contract: on any call
// sequence it reads exactly like the flat ring it replaced.
func TestRecorderMatchesReference(t *testing.T) {
	covered := map[string]bool{}
	for seed := int64(0); seed < 2000; seed++ {
		got, want, drew := randomRecorders(rand.New(rand.NewSource(seed)))
		if diff := recorderDiff(got, want); diff != "" {
			t.Fatalf("seed %d: %s", seed, diff)
		}
		for _, s := range drew {
			covered[s] = true
		}
	}
	for _, s := range recorderCases {
		if !covered[s] {
			t.Errorf("no draw covered: %s", s)
		}
	}
}

// transcript draws from a seeded source and keeps the fuzz input that
// replays its draws through fuzzBytes (every n drawn is at most 1<<16).
type transcript struct {
	r  *rand.Rand
	in []byte
}

func (s *transcript) Intn(n int) int {
	v := s.r.Intn(n)
	s.in = binary.LittleEndian.AppendUint16(s.in, uint16(v))
	return v
}

// FuzzRecorderMatchesReference drives randomRecorders from fuzz bytes and
// holds the folded ring to the reference. Its seed corpus is the
// transcripts of the first seeds of TestRecorderMatchesReference that draw
// a case no earlier one did, and must draw every case of recorderCases.
func FuzzRecorderMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{5, 0, 3, 1, 200, 2}, 64))
	missing := map[string]bool{}
	for _, s := range recorderCases {
		missing[s] = true
	}
	for seed := int64(0); seed < 2000 && len(missing) > 0; seed++ {
		src := transcript{r: rand.New(rand.NewSource(seed))}
		_, _, drew := randomRecorders(&src)
		replay := fuzzBytes(src.in)
		if _, _, again := randomRecorders(&replay); !slices.Equal(again, drew) {
			f.Fatalf("seed %d: its transcript draws %q, the seed %q", seed, again, drew)
		}
		if slices.ContainsFunc(drew, func(s string) bool { return missing[s] }) {
			f.Add(src.in)
		}
		for _, s := range drew {
			delete(missing, s)
		}
	}
	for _, s := range recorderCases {
		if missing[s] {
			f.Fatalf("the seed corpus draws no: %s", s)
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		src := fuzzBytes(in)
		got, want, _ := randomRecorders(&src)
		if diff := recorderDiff(got, want); diff != "" {
			t.Fatal(diff)
		}
	})
}
