package trace

import (
	"bufio"
	"bytes"
	"io"
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
// is appended straight onto the writer's buffer from tables built
// at init; no event is copied out of its ring, boxed or formatted by fmt. A
// folded stretch of polls is rendered a block of polls at a time, and each
// further block written from that rendering with its timestamps advanced in
// place (pollBlock).

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
	// spanRecords is each category's span record, as EvSpan's record
	// depends on its category; the last serves every category out of range
	// ("Unknown").
	spanRecords [substrate.NumCategories + 1]chromeRecord
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
	for cat := range spanRecords {
		spanRecords[cat] = chromeRecord{
			head:     `{"name":` + strconv.Quote(substrate.Category(cat).String()) + `,"cat":"phase","ph":"X","ts":`,
			interval: true,
		}
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

// recordOf returns e's compiled record, or nil for an event that has none.
func recordOf(e *Event) *chromeRecord {
	switch {
	case e.Kind == EvSpan:
		// A negative category wraps to a huge index and clamps to "Unknown".
		return &spanRecords[min(uint64(e.A), uint64(substrate.NumCategories))]
	case e.Kind < NumKinds && chromeRecords[e.Kind].head != "":
		return &chromeRecords[e.Kind]
	}
	return nil
}

// ts returns the timestamp e's record carries: an interval's start, else
// e.T.
func (rec *chromeRecord) ts(e *Event) substrate.Time {
	if rec.interval {
		return e.T - e.Dur
	}
	return e.T
}

// append appends e's record, rec, on processor row tid.
func (rec *chromeRecord) append(b []byte, tid int, e *Event) []byte {
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

// Buffer sizes, fixed per export and together within 64 KiB: the buffer
// that plain records are appended onto, a block's bytes, and
// the most polls a block holds (maxBlockPolls polls of up to three records
// each take at most blockBytes when a poll renders in ~400 bytes or less;
// longer polls make smaller blocks).
const (
	chromeBufBytes = 16 << 10
	blockBytes     = 40 << 10
	maxBlockPolls  = 100
)

// pollBlock is B consecutive polls of a folded stretch rendered with their
// separators, and where each of their records' "ts" value sits. The next B
// polls are the same bytes but for those timestamps (durations, row and
// arguments do not move), so a block is stepped to them by adding B periods
// to every timestamp in place, as decimal ASCII, and written whole. B is a
// power of ten, so B periods have the period's non-zero digits, shifted: a
// block step adds as many digits as B one-poll steps would, and copies
// nothing. A block is built from its first poll, rendered, each next poll a
// copy of the one before stepped by one period.
type pollBlock struct {
	buf      []byte
	ts       []tsSlot   // the timestamps of each poll, poll by poll
	ends     []int32    // where each poll's bytes end in buf
	per      int        // timestamps per poll
	one, all stepDigits // one period, and B periods
}

// tsSlot is a timestamp rendered at buf[at:end]. It has a fraction when
// buf[end-4] is the decimal point (a whole timestamp's end-4 is a digit or
// lies in the `"ts":` before it).
type tsSlot struct{ at, end int32 }

// stepDigits is a step of nanoseconds as its non-zero decimal digits, each
// with where it is added in a timestamp: frac places left of the end of one
// with a fraction (the decimal point counted), whole places left of the end
// of one without, which only a whole-µs step (wholeUS) adds to.
type stepDigits struct {
	d       [19]stepDigit
	n       int
	wholeUS bool
}

type stepDigit struct{ frac, whole, v uint8 }

// set makes st the step of v nanoseconds.
func (st *stepDigits) set(v substrate.Time) {
	st.n, st.wholeUS = 0, v%1000 == 0
	for pos := 0; v > 0; pos, v = pos+1, v/10 {
		if dv := uint8(v % 10); dv != 0 {
			d := stepDigit{frac: uint8(pos + 1), v: dv}
			if pos >= 3 {
				d.frac, d.whole = uint8(pos+2), uint8(pos-2)
			}
			st.d[st.n] = d
			st.n++
		}
	}
}

// render appends the poll whose events are evs, shift later, on processor
// row tid.
func (b *pollBlock) render(tid int, evs []Event, shift substrate.Time) {
	b.per = 0
	for i := range evs {
		e := evs[i]
		e.T += shift
		rec := recordOf(&e)
		if rec == nil {
			continue
		}
		at := len(b.buf) + len(",\n") + len(rec.head)
		b.buf = rec.append(append(b.buf, ",\n"...), tid, &e)
		b.ts = append(b.ts, tsSlot{int32(at), int32(at + bytes.IndexByte(b.buf[at:], ','))})
		b.per++
	}
	b.ends = append(b.ends, int32(len(b.buf)))
}

// build renders polls p, p+1, ... of stretch ru on processor row tid into
// the block and returns how many it holds, B: the largest power of ten that
// is at most maxBlockPolls and the polls left, and whose polls fit.
func (b *pollBlock) build(tid int, ru run, p uint64) int {
	b.buf, b.ts, b.ends = b.buf[:0], b.ts[:0], b.ends[:0]
	b.render(tid, ru.evs, substrate.Time(p)*ru.period)
	want := 1
	for want*10 <= maxBlockPolls && uint64(want*10) <= ru.n-p {
		want *= 10
	}
	for j := 1; j < want; j++ {
		// Poll j is poll j-1 but for its timestamps, and a timestamp grows
		// by 19 bytes at most (1 byte to 16 µs digits and a fraction).
		from, to := 0, len(b.buf)
		if j > 1 {
			from = int(b.ends[j-2])
		}
		if cap(b.buf)-to < to-from+19*b.per {
			break
		}
		b.buf = append(b.buf, b.buf[from:to]...)
		for _, s := range b.ts[len(b.ts)-b.per:] {
			b.ts = append(b.ts, tsSlot{s.at + int32(to-from), s.end + int32(to-from)})
		}
		b.ends = append(b.ends, int32(len(b.buf)))
		if !b.step(&b.one, j, j+1) {
			b.buf, b.ts, b.ends = b.buf[:to], b.ts[:j*b.per], b.ends[:j]
			b.render(tid, ru.evs, substrate.Time(p+uint64(j))*ru.period)
		}
	}
	n := 1
	for n*10 <= len(b.ends) {
		n *= 10
	}
	b.buf, b.ts, b.ends = b.buf[:b.ends[n-1]], b.ts[:n*b.per], b.ends[:n]
	b.all.set(substrate.Time(n) * ru.period)
	return n
}

// step adds st to every timestamp of polls [from, to) of the block in place,
// as decimal ASCII (only st's non-zero digits, carrying leftwards), and
// reports whether it could: it cannot when a timestamp would change shape
// (its microseconds gain a digit, or its fraction turns zero or non-zero),
// and leaves the block half stepped, to be built afresh.
func (b *pollBlock) step(st *stepDigits, from, to int) bool {
	buf, digits := b.buf, st.d[:st.n]
	for _, s := range b.ts[from*b.per : to*b.per] {
		at, end := int(s.at), int(s.end)
		frac := buf[end-4] == '.'
		if !frac && !st.wholeUS {
			return false // a whole timestamp would take a fraction
		}
		for _, d := range digits {
			i := end - int(d.whole)
			if frac {
				i = end - int(d.frac)
			}
			if i < at {
				return false // a digit past the first: it grows
			}
			v := buf[i] + d.v
			for v > '9' { // carry
				buf[i] = v - 10
				if i--; buf[i] == '.' {
					i--
				}
				if i < at {
					return false // the carry out of the first digit
				}
				v = buf[i] + 1
			}
			buf[i] = v
		}
		if !st.wholeUS && string(buf[end-3:end]) == "000" {
			return false // the fraction turned zero
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

// chromeWriter appends records onto its own buffer and writes that out when
// less than recordRoom is left. A block of polls is appended too when it
// fits; a longer one is written straight from its own buffer, after the
// records before it. The writer keeps the first write error, after which it
// writes nothing more.
type chromeWriter struct {
	out     io.Writer
	buf     []byte // records not yet written; never grows past chromeBufBytes
	written bool   // whether a record is in the output, so the next takes a separator
	err     error
	blk     pollBlock
}

// next returns the buffer to append one record onto, its separator in place.
func (w *chromeWriter) next() []byte {
	if cap(w.buf)-len(w.buf) < recordRoom {
		w.flush()
	}
	if w.written {
		return append(w.buf, ",\n"...)
	}
	return w.buf
}

// write keeps b, the buffer next returned with one record appended.
func (w *chromeWriter) write(b []byte) {
	w.buf, w.written = b, true
}

// flush writes the buffered records out.
func (w *chromeWriter) flush() {
	w.put(w.buf)
	w.buf = w.buf[:0]
}

// writeBlock writes b, whole records with their separators, out after the
// buffered records: onto the buffer when it fits there, else straight from
// b once the buffer is written out.
func (w *chromeWriter) writeBlock(b []byte) {
	if cap(w.buf)-len(w.buf) >= len(b) {
		w.buf = append(w.buf, b...)
	} else {
		w.flush()
		w.put(b)
	}
	w.written = true
}

// put writes b out, unless a write has failed.
func (w *chromeWriter) put(b []byte) {
	if w.err == nil && len(b) > 0 {
		var n int
		if n, w.err = w.out.Write(b); n < len(b) && w.err == nil {
			w.err = io.ErrShortWrite
		}
	}
}

// stretch writes the n polls of run ru on processor row tid a block at a
// time: the first block is built, each next one stepped from the one
// before, or only its first polls for the last, and built afresh only where
// a timestamp changes shape. A stretch never starts the output (the thread
// rows come first), so every record of it takes a separator.
func (w *chromeWriter) stretch(tid int, ru run) {
	b := &w.blk
	b.one.set(ru.period)
	polls := b.build(tid, ru, 0)
	for p := uint64(0); ; {
		w.writeBlock(b.buf[:b.ends[polls-1]])
		if p += uint64(polls); p == ru.n || w.err != nil {
			return
		}
		if polls = int(min(uint64(len(b.ends)), ru.n-p)); !b.step(&b.all, 0, polls) {
			polls = b.build(tid, ru, p)
		}
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
	cw := chromeWriter{
		out: w,
		buf: make([]byte, 0, chromeBufBytes),
		blk: pollBlock{
			buf:  make([]byte, 0, blockBytes),
			ts:   make([]tsSlot, 0, 3*maxBlockPolls),
			ends: make([]int32, 0, maxBlockPolls),
		},
	}
	cw.buf = append(cw.buf, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"...)

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
				for j := range ru.evs {
					e := &ru.evs[j]
					if e.Kind == EvMigrateOut || e.Kind == EvMigrateIn {
						flows = append(flows, flowEvent{proc: i, t: e.T, key: e.B, out: e.Kind == EvMigrateOut})
					}
					if rec := recordOf(e); rec != nil {
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

	cw.buf = append(cw.buf, "\n]}\n"...)
	cw.flush()
	return cw.err
}

// WriteChromeFile writes the Chrome trace to path, through a 64 KiB buffer:
// WriteChrome writes its record buffer and each long block on its own, up
// to 40 KiB at a time, and on a file each write is a system call.
func (c *Collector) WriteChromeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 64<<10)
	err = c.WriteChrome(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
