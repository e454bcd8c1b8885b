package trace

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"os"
	"sort"
	"strconv"

	"prema/internal/substrate"
)

// This file renders a Collector as Chrome trace_event JSON — the format
// Perfetto (https://ui.perfetto.dev) and chrome://tracing load directly.
// Every processor becomes a thread (tid) of one process: category spans are
// complete ("X") events, so the per-processor compute/idle/messaging phase
// structure reads as a timeline; work units are nested "X" events named
// "unit"; messages, forwards, policy decisions and retransmissions are
// instant ("i") events; migrations additionally emit flow ("s"/"f") pairs so
// the viewer draws an arrow from the object's old host to its new one.
//
// Output is written with deterministic formatting: same-seed simulator runs
// produce byte-identical trace files (guarded by CI's cmp step). Each record
// is appended straight into the bufio.Writer's free space from tables built
// at init; no event is copied out of its ring, boxed or formatted by fmt. A
// folded stretch of polls is rendered once and each further poll written
// from that rendering with its timestamps advanced in place (pollTemplate).

// argFormat is how a record renders one of an event's A, B, C arguments.
type argFormat uint8

const (
	asInt    argFormat = iota // a decimal integer
	asObj                     // an ObjKey, as the string "home:index"
	asPolicy                  // a policy decision code, as its quoted name
)

type chromeArg struct {
	key string
	as  argFormat
}

// chromeRows is the record of every kind but EvSpan, as data: its name and
// category, whether it is an interval ("X", stamped with its start) or an
// instant ("i"), and the keys of its A, B, C arguments in order. A kind
// without a row writes nothing (EvUnitBegin: its EvUnitEnd carries the
// interval).
var chromeRows = [NumKinds]struct {
	name, cat string
	interval  bool
	args      []chromeArg
}{
	EvUnitEnd:    {"unit", "unit", true, []chromeArg{{"obj", asObj}, {"origin", asInt}, {"seq", asInt}}},
	EvSend:       {"send", "msg", false, []chromeArg{{"dst", asInt}, {"tag", asInt}, {"bytes", asInt}}},
	EvRecv:       {"recv", "msg", false, []chromeArg{{"src", asInt}, {"tag", asInt}, {"bytes", asInt}}},
	EvForward:    {"forward", "mol", false, []chromeArg{{"next", asInt}, {"hops", asInt}, {"bytes", asInt}}},
	EvMigrateOut: {"migrate-out", "mol", false, []chromeArg{{"to", asInt}, {"obj", asObj}, {"bytes", asInt}}},
	EvMigrateIn:  {"migrate-in", "mol", false, []chromeArg{{"from", asInt}, {"obj", asObj}, {"bytes", asInt}}},
	EvPolicy:     {"policy", "ilb", false, []chromeArg{{"decision", asPolicy}}},
	EvRetransmit: {"retransmit", "rel", false, []chromeArg{{"peer", asInt}, {"tag", asInt}, {"seq", asInt}}},
	EvStop:       {"stop-broadcast", "app", false, []chromeArg{{"peers", asInt}}},
	EvCheckpoint: {"checkpoint", "recov", false, []chromeArg{{"objects", asInt}, {"bytes", asInt}}},
	EvSuspect:    {"suspect", "recov", false, []chromeArg{{"proc", asInt}, {"coordinator", asInt}}},
	EvRepair:     {"repair", "recov", false, []chromeArg{{"obj", asObj}, {"from", asInt}, {"bytes", asInt}}},
	EvReplay:     {"replay", "recov", false, []chromeArg{{"obj", asObj}, {"origin", asInt}, {"seq", asInt}}},
}

// chromeRecord is a row compiled at init: head is the record up to its
// timestamp, and each argument's prefix holds its separator and quoted key,
// so rendering an event is appends only.
type chromeRecord struct {
	head     string
	interval bool
	args     []chromeArg // key holds the prefix
}

var (
	chromeRecords [NumKinds]chromeRecord
	// spanHeads is each category's span record up to its timestamp; the
	// last serves every category out of range ("Unknown").
	spanHeads [substrate.NumCategories + 1]string
	// quotedPolicies is each policy decision code's name, quoted; the last
	// serves every code out of range ("unknown").
	quotedPolicies [PolPollWake + 2]string
)

func init() {
	for k, row := range chromeRows {
		if row.name == "" {
			continue
		}
		ph := `"i","s":"t"`
		if row.interval {
			ph = `"X"`
		}
		rec := &chromeRecords[k]
		rec.head = `{"name":` + strconv.Quote(row.name) + `,"cat":` + strconv.Quote(row.cat) + `,"ph":` + ph + `,"ts":`
		rec.interval = row.interval
		sep := `,"args":{`
		for _, a := range row.args {
			rec.args = append(rec.args, chromeArg{key: sep + strconv.Quote(a.key) + ":", as: a.as})
			sep = ","
		}
	}
	for cat := range spanHeads {
		spanHeads[cat] = `{"name":` + strconv.Quote(substrate.Category(cat).String()) + `,"cat":"phase","ph":"X","ts":`
	}
	for code := range quotedPolicies {
		quotedPolicies[code] = strconv.Quote(PolicyName(int64(code)))
	}
}

// appendTS appends a substrate time (ns, non-negative) as Chrome's
// microsecond timestamp with nanosecond resolution preserved: three fraction
// digits, only when the fraction is non-zero.
func appendTS(b []byte, t substrate.Time) []byte {
	b = strconv.AppendInt(b, int64(t/1000), 10)
	if frac := t % 1000; frac != 0 {
		b = append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
	}
	return b
}

// recordOf returns e's compiled record; its head is "" for an event that
// has none.
func recordOf(e Event) chromeRecord {
	switch {
	case e.Kind == EvSpan:
		// A negative category wraps to a huge index and clamps to "Unknown".
		cat := min(uint64(e.A), uint64(substrate.NumCategories))
		return chromeRecord{head: spanHeads[cat], interval: true}
	case e.Kind < NumKinds:
		return chromeRecords[e.Kind]
	}
	return chromeRecord{}
}

// ts returns the timestamp e's record carries: an interval's start, else
// e.T.
func (rec *chromeRecord) ts(e Event) substrate.Time {
	if rec.interval {
		return e.T - e.Dur
	}
	return e.T
}

// append appends e's record, rec, on processor row tid.
func (rec *chromeRecord) append(b []byte, tid int, e Event) []byte {
	b = append(b, rec.head...)
	b = appendTS(b, rec.ts(e))
	if rec.interval {
		b = append(b, `,"dur":`...)
		b = appendTS(b, e.Dur)
	}
	b = append(b, `,"pid":0,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	vals := [3]int64{e.A, e.B, e.C}
	for j, a := range rec.args {
		b = append(b, a.key...)
		switch v := vals[j]; a.as {
		case asObj:
			b = append(b, '"')
			b = strconv.AppendInt(b, int64(KeyHome(v)), 10)
			b = append(b, ':')
			b = strconv.AppendInt(b, int64(KeyIndex(v)), 10)
			b = append(b, '"')
		case asPolicy: // out of range, negative included, clamps to "unknown"
			b = append(b, quotedPolicies[min(uint64(v), uint64(PolPollWake+1))]...)
		default:
			b = strconv.AppendInt(b, v, 10)
		}
	}
	if len(rec.args) > 0 {
		b = append(b, '}')
	}
	return append(b, '}')
}

// pollTemplate is one poll of a folded stretch rendered with its separators,
// and where each of its records' "ts" value sits: the next poll is the same
// bytes with the period added to every timestamp.
type pollTemplate struct {
	buf []byte
	ts  []tsSlot
	// period holds the period's non-zero decimal digits (ns), least
	// significant first; wholeUS is whether it is a whole number of µs.
	period  []digit
	wholeUS bool
}

// digit is decimal digit v at position pos (0 = ones) of a nanosecond count.
type digit struct{ pos, v uint8 }

// tsSlot is timestamp t rendered at buf[at:end], with a fraction when frac;
// lim is the first time whose microseconds have one more digit.
type tsSlot struct {
	at, end int
	t, lim  substrate.Time
	frac    bool
}

// setPeriod readies the template for a stretch of this period.
func (tp *pollTemplate) setPeriod(period substrate.Time) {
	tp.period, tp.wholeUS = tp.period[:0], period%1000 == 0
	for pos := uint8(0); period > 0; pos, period = pos+1, period/10 {
		if v := uint8(period % 10); v != 0 {
			tp.period = append(tp.period, digit{pos, v})
		}
	}
}

// render renders evs, shift later, on processor row tid into the template.
func (tp *pollTemplate) render(tid int, evs []Event, shift substrate.Time) {
	tp.buf, tp.ts = tp.buf[:0], tp.ts[:0]
	for _, e := range evs {
		e.T += shift
		rec := recordOf(e)
		if rec.head == "" {
			continue
		}
		at := len(tp.buf) + len(",\n") + len(rec.head)
		tp.buf = rec.append(append(tp.buf, ",\n"...), tid, e)
		s := tsSlot{at: at, end: at + bytes.IndexByte(tp.buf[at:], ','), t: rec.ts(e), lim: 10 * 1000}
		s.frac = s.t%1000 != 0
		for s.lim <= s.t && s.lim <= math.MaxInt64/10 {
			s.lim *= 10
		}
		tp.ts = append(tp.ts, s)
	}
}

// step adds period to every timestamp of the template in place, as decimal
// ASCII, and reports whether it could: it cannot when a timestamp would
// change shape (its digit count grows, or its fraction turns zero or
// non-zero), and leaves the template half stepped, to be rendered afresh.
func (tp *pollTemplate) step(period substrate.Time) bool {
	for j := range tp.ts {
		s := &tp.ts[j]
		if s.t += period; s.t >= s.lim || !tp.wholeUS && (s.t%1000 != 0) != s.frac {
			return false
		}
		ts := tp.buf[s.at:s.end]
		for _, d := range tp.period {
			// ns digit pos sits pos places left of the last one, past the
			// decimal point if it is a µs digit; a whole-µs timestamp
			// ends at the µs ones.
			i := len(ts) - 1 - int(d.pos)
			if !s.frac {
				i += 3
			} else if d.pos >= 3 {
				i--
			}
			v := ts[i] + d.v
			for v > '9' { // carry; the shape check keeps it inside ts
				ts[i] = v - 10
				if i--; ts[i] == '.' {
					i--
				}
				v = ts[i] + 1
			}
			ts[i] = v
		}
	}
	return true
}

// flowEvent is one migrate-out or migrate-in, kept to pair them into arrows.
type flowEvent struct {
	proc int
	t    substrate.Time
	key  int64
	out  bool
}

// recordRoom exceeds the longest record, so one appended into a buffer with
// this much free space never outgrows it (and never allocates).
const recordRoom = 1 << 10

// chromeWriter appends records into a bufio.Writer's free space and keeps
// the first write error, after which it writes nothing more.
type chromeWriter struct {
	bw      *bufio.Writer
	written bool
	err     error
	tpl     pollTemplate
}

// next returns the buffer to append one record into, its separator in place.
func (w *chromeWriter) next() []byte {
	if w.err == nil && w.bw.Available() < recordRoom {
		w.err = w.bw.Flush()
	}
	b := w.bw.AvailableBuffer()
	if w.written {
		b = append(b, ",\n"...)
	}
	return b
}

// write hands one record, built on next's buffer, to the bufio.Writer.
func (w *chromeWriter) write(b []byte) {
	if w.err == nil {
		_, w.err = w.bw.Write(b)
	}
	w.written = true
}

// stretch writes the n polls of run ru on processor row tid: the first
// poll is rendered into the template, each next one patched from the one
// before and written with one Write, and rendered afresh only where a
// timestamp changes shape. A stretch never starts the output (the thread
// rows come first), so every record of it takes a separator.
func (w *chromeWriter) stretch(tid int, ru run) {
	tp := &w.tpl
	tp.setPeriod(ru.period)
	tp.render(tid, ru.evs, 0)
	w.write(tp.buf)
	for p := uint64(1); p < ru.n && w.err == nil; p++ {
		if !tp.step(ru.period) {
			tp.render(tid, ru.evs, substrate.Time(p)*ru.period)
		}
		w.write(tp.buf)
	}
}

// flow writes one end of migration arrow id.
func (w *chromeWriter) flow(head string, id int, f flowEvent) {
	b := append(w.next(), head...)
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, `,"ts":`...)
	b = appendTS(b, f.t)
	b = append(b, `,"pid":0,"tid":`...)
	b = strconv.AppendInt(b, int64(f.proc), 10)
	w.write(append(b, '}'))
}

// WriteChrome writes the whole trace as Chrome trace_event JSON. It stops at
// the first write error and returns it.
func (c *Collector) WriteChrome(w io.Writer) error {
	cw := chromeWriter{bw: bufio.NewWriterSize(w, 1<<16)}
	if _, err := cw.bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}

	// Thread metadata: one named row per processor, sorted by tid.
	for i, r := range c.recs {
		b := append(cw.next(), `{"name":"thread_name","ph":"M","pid":0,"tid":`...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `,"args":{"name":"p`...)
		for pad := 100; pad > 1 && r.proc < pad; pad /= 10 {
			b = append(b, '0') // %03d
		}
		b = strconv.AppendInt(b, int64(r.proc), 10)
		cw.write(append(b, `"}}`...))
		if cw.err != nil {
			return cw.err
		}
	}

	// A folded stretch holds no migration, so only a run of one adds flows.
	var flows []flowEvent
	for i, r := range c.recs {
		for ru := range r.runs() {
			if ru.n > 1 {
				cw.stretch(i, ru)
			} else {
				for _, e := range ru.evs {
					if e.Kind == EvMigrateOut || e.Kind == EvMigrateIn {
						flows = append(flows, flowEvent{proc: i, t: e.T, key: e.B, out: e.Kind == EvMigrateOut})
					}
					if rec := recordOf(e); rec.head != "" {
						cw.write(rec.append(cw.next(), i, e))
					}
				}
			}
			if cw.err != nil {
				return cw.err
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
		cw.flow(`{"name":"migration","cat":"mol","ph":"s","id":`, id, o)
		cw.flow(`{"name":"migration","cat":"mol","ph":"f","bp":"e","id":`, id, f)
		if cw.err != nil {
			return cw.err
		}
	}

	if _, err := cw.bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return cw.bw.Flush()
}

// WriteChromeFile writes the Chrome trace to path.
func (c *Collector) WriteChromeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
