package main

import "time"

// The seam probe is the benchmark's tracing: a substrate decorator the
// benchmark interposes above the top of a machine stack and between every
// pair of decorators it assembles itself. It records nothing inside the
// program; it only timestamps the calls that cross each boundary.
//
// Every processor has one cursor shared by all boundaries. A crossing
// charges the time since the cursor to the layer that was running — the
// layer above the boundary on the way down, the layer below on the way
// back up — so each layer gets its self time and no duration of a call that
// blocks (Advance, Send, the receives and waits all yield to other
// processors) is ever summed. The bottom layer is the backend itself: what
// is charged to it includes every other processor's turn, so it is never
// reported; the backend's share is wall time minus everything above it.

// seam methods that consume substrate time; the cheap accessors (ID, Now,
// Rand, Account, Charge, InboxLen, HasMsg) are forwarded untimed and so
// stay part of the caller's self time.
const (
	mAdvance = iota
	mSend
	mTryRecv
	mTryRecvTag
	mRecv
	mWaitMsg
	mWaitMsgFor
	numMethods
)

var methodNames = [numMethods]string{"Advance", "Send", "TryRecv", "TryRecvTag", "Recv", "WaitMsg", "WaitMsgFor"}

// span is the aggregate of one (boundary, method, category): how often it
// was crossed, how long the caller had run since its previous crossing, and
// how long the call took to come back (which, for these blocking calls, is
// mostly other processors' time and is kept for the record only).
type span struct {
	Count    int64
	CallerNS int64
	InnerNS  int64
}

type procState struct {
	cursor int64   // ns since seamProbe.base of the last crossing
	self   []int64 // per layer, bottom (backend) first
	spans  [][numMethods][]span
}

// seamProbe is one probed run's shared state. Layers are named bottom-up as
// the stack is assembled; the layer above the last boundary is "stack" (the
// PREMA runtime and the driver body).
type seamProbe struct {
	base   time.Time
	layers []string
	procs  []*procState
}

func newSeamProbe() *seamProbe { return &seamProbe{base: time.Now()} }

// above interposes a boundary on top of m, whose layer is named below. A nil
// probe interposes nothing, so timed and probed runs share one assembly.
func (sp *seamProbe) above(m Machine, below string) Machine {
	if sp == nil {
		return m
	}
	sp.layers = append(sp.layers, below)
	return &probeMachine{Machine: m, sp: sp, level: len(sp.layers) - 1}
}

func (sp *seamProbe) now() int64 { return int64(time.Since(sp.base)) }

func (sp *seamProbe) state(id int) *procState {
	for len(sp.procs) <= id {
		levels := len(sp.layers)
		st := &procState{self: make([]int64, levels+1), spans: make([][numMethods][]span, levels)}
		for l := range st.spans {
			for m := range st.spans[l] {
				st.spans[l][m] = make([]span, numCategories)
			}
		}
		sp.procs = append(sp.procs, st)
	}
	return sp.procs[id]
}

// layerNames returns the layers bottom-up, "stack" last.
func (sp *seamProbe) layerNames() []string {
	return append(append([]string(nil), sp.layers...), "stack")
}

// selfSeconds sums one layer's self time over all processors.
func (sp *seamProbe) selfSeconds(layer string) float64 {
	for l, name := range sp.layerNames() {
		if name == layer {
			var ns int64
			for _, st := range sp.procs {
				ns += st.self[l]
			}
			return float64(ns) / 1e9
		}
	}
	return 0
}

// spanRow is one aggregated span as written to the output record.
type spanRow struct {
	Boundary string `json:"boundary"` // "above/below"
	Method   string `json:"method"`
	Category string `json:"category"`
	Count    int64  `json:"count"`
	CallerNS int64  `json:"caller_ns"`
	InnerNS  int64  `json:"inner_ns"`
}

// rows merges the per-processor aggregates, dropping empty cells.
func (sp *seamProbe) rows() []spanRow {
	names := sp.layerNames()
	var out []spanRow
	for l := len(sp.layers) - 1; l >= 0; l-- {
		for m := 0; m < numMethods; m++ {
			for c := 0; c < numCategories; c++ {
				var s span
				for _, st := range sp.procs {
					s.Count += st.spans[l][m][c].Count
					s.CallerNS += st.spans[l][m][c].CallerNS
					s.InnerNS += st.spans[l][m][c].InnerNS
				}
				if s.Count > 0 {
					out = append(out, spanRow{names[l+1] + "/" + names[l], methodNames[m], Category(c).String(), s.Count, s.CallerNS, s.InnerNS})
				}
			}
		}
	}
	return out
}

// count sums the top boundary's crossings of the given methods, restricted
// to one category when cat >= 0.
func (sp *seamProbe) count(cat int, methods ...int) float64 {
	top := len(sp.layers) - 1
	var n int64
	for _, st := range sp.procs {
		for _, m := range methods {
			for c := range st.spans[top][m] {
				if cat < 0 || c == cat {
					n += st.spans[top][m][c].Count
				}
			}
		}
	}
	return float64(n)
}

type probeMachine struct {
	Machine
	sp      *seamProbe
	level   int
	spawned int
}

// Unwrap keeps decorator-chain walks (bench's telemetry and rejoin lookups,
// substrate.RouterOf) working through the probe.
func (p *probeMachine) Unwrap() Machine { return p.Machine }

func (p *probeMachine) Spawn(name string, body func(Endpoint)) {
	st := p.sp.state(p.spawned)
	p.spawned++
	p.Machine.Spawn(name, func(ep Endpoint) {
		pe := &probeEP{Endpoint: ep, sp: p.sp, st: st, level: p.level}
		if st.cursor == 0 {
			st.cursor = p.sp.now()
		}
		pe.up()
		body(pe)
		pe.down()
	})
}

type probeEP struct {
	Endpoint
	sp    *seamProbe
	st    *procState
	level int
}

// TraceRecorder keeps trace.Of working when the probe sits above trace.Wrap.
func (e *probeEP) TraceRecorder() *Recorder { return recorderOf(e.Endpoint) }

// down charges the layer above and returns the crossing time.
func (e *probeEP) down() int64 {
	now := e.sp.now()
	e.st.self[e.level+1] += now - e.st.cursor
	e.st.cursor = now
	return now
}

// up charges the layer below.
func (e *probeEP) up() {
	now := e.sp.now()
	e.st.self[e.level] += now - e.st.cursor
	e.st.cursor = now
}

func (e *probeEP) enter(method int, cat Category) (*span, int64) {
	before := e.st.cursor
	now := e.down()
	s := &e.st.spans[e.level][method][cat]
	s.Count++
	s.CallerNS += now - before
	return s, now
}

func (e *probeEP) leave(s *span, entered int64) {
	e.up()
	s.InnerNS += e.st.cursor - entered
}

func (e *probeEP) Advance(d Time, cat Category) {
	s, t := e.enter(mAdvance, cat)
	e.Endpoint.Advance(d, cat)
	e.leave(s, t)
}

func (e *probeEP) Send(m *Msg, cat Category) {
	s, t := e.enter(mSend, cat)
	e.Endpoint.Send(m, cat)
	e.leave(s, t)
}

func (e *probeEP) TryRecv(cat Category) *Msg {
	s, t := e.enter(mTryRecv, cat)
	m := e.Endpoint.TryRecv(cat)
	e.leave(s, t)
	return m
}

func (e *probeEP) TryRecvTag(tag int, cat Category) *Msg {
	s, t := e.enter(mTryRecvTag, cat)
	m := e.Endpoint.TryRecvTag(tag, cat)
	e.leave(s, t)
	return m
}

func (e *probeEP) Recv(waitCat Category) *Msg {
	s, t := e.enter(mRecv, waitCat)
	m := e.Endpoint.Recv(waitCat)
	e.leave(s, t)
	return m
}

func (e *probeEP) WaitMsg(cat Category) {
	s, t := e.enter(mWaitMsg, cat)
	e.Endpoint.WaitMsg(cat)
	e.leave(s, t)
}

func (e *probeEP) WaitMsgFor(d Time, cat Category) bool {
	s, t := e.enter(mWaitMsgFor, cat)
	ok := e.Endpoint.WaitMsgFor(d, cat)
	e.leave(s, t)
	return ok
}
