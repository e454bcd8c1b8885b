package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// outcome is everything one run of one workload yields: the end-to-end
// numbers, the public result, and the counters each layer publishes.
type outcome struct {
	wallS   float64
	allocMB float64
	cpuS    float64 // rusage, this process and its reaped children
	res     *Result
	hash    string // "" on the wall-clock backend

	events         uint64
	barrierRounds  uint64
	shardImbalance float64
	wireFrames     uint64
	wireDrift      uint64
	dropped        int
	dupped         int
	traceEvents    uint64
	traceDropped   uint64
	exportS        float64
	exportMB       float64
}

// heapBytes is the live-heap gauge; reading it does not stop the world, so
// it can be sampled while a run executes.
func heapBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// totalAlloc and mallocs read the exact cumulative allocation counters; the
// stop-the-world they cost falls outside the timed intervals.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func cpuSeconds() float64 {
	var total float64
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if syscall.Getrusage(who, &ru) == nil {
			total += float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
		}
	}
	return total
}

// countingDiscard is where the traced workload's export goes: the bytes are
// produced and counted, never stored.
type countingDiscard struct{ n int64 }

func (c *countingDiscard) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// run executes the instance once, from machine construction to result
// collected, and checks the result. sp, when not nil, is interposed at every
// boundary of the stack the benchmark assembles. A returned error means the
// run failed or its output is wrong; the outcome is still what was measured.
func (in *instance) run(premad string, sp *seamProbe) (*outcome, error) {
	runtime.GC()
	o := &outcome{}
	alloc0, cpu0, t0 := totalAlloc(), cpuSeconds(), time.Now()
	var err error
	switch in.wl.backend {
	case "parmetis":
		o.res, err = runParmetis(in.w)
	case "dist":
		o.res, err = runDist(premaSystem, in.w, 2, in.wl.timeScale, premad)
	default:
		err = in.runSim(o, sp)
	}
	o.wallS = time.Since(t0).Seconds()
	o.allocMB = float64(totalAlloc()-alloc0) / 1e6
	o.cpuS = cpuSeconds() - cpu0
	if err != nil {
		return o, fmt.Errorf("%s: %w", in.wl.name, err)
	}
	if in.wl.backend != "sim" {
		o.events, o.barrierRounds = o.res.Events, o.res.BarrierRounds
		o.wireFrames, o.wireDrift = o.res.WireFrames, o.res.WireDrift
	}
	if in.wl.backend != "dist" { // a wall-clock run never repeats exactly
		o.hash = resultHash(o.res)
	}
	if err := in.check(o); err != nil {
		return o, fmt.Errorf("%s: %w", in.wl.name, err)
	}
	return o, nil
}

// runSim assembles simulator -> wire -> faulty -> trace from the public
// constructors, in the order the CLIs use, and drives prema-implicit on it.
func (in *instance) runSim(o *outcome, sp *seamProbe) error {
	sm := newSim(in.w)
	m := sp.above(sm, "sim")
	var wm wireMachine
	if in.wl.wire {
		wm = wrapWire(m)
		m = sp.above(wm, "wire")
	}
	var fm faultyMachine
	if in.plan.Active() {
		fm = wrapFaulty(m, in.plan, in.faultSeed)
		m = sp.above(fm, "faulty")
	}
	var col *Collector
	if in.wl.traced {
		col = newCollector()
		m = sp.above(wrapTrace(m, col), "trace")
	}
	res, err := runPrema(m, in.w, in.wl.reliable)
	if err != nil {
		return err
	}
	o.res = res
	o.events, o.barrierRounds, o.shardImbalance = sm.events(), sm.barrierRounds(), sm.shardImbalance()
	if wm != nil {
		o.wireFrames, o.wireDrift = wm.Frames(), wm.SizeDrift()
	}
	if fm != nil {
		st := fm.Stats()
		o.dropped, o.dupped = st.Dropped, st.Dupped
	}
	if col != nil {
		t0 := time.Now()
		var sink countingDiscard
		if err := exportTrace(col, res.Makespan, &sink); err != nil {
			return fmt.Errorf("trace export: %w", err)
		}
		o.exportS, o.exportMB = time.Since(t0).Seconds(), float64(sink.n)/1e6
		o.traceEvents, o.traceDropped = col.Total(), col.Dropped()
	}
	return nil
}

// check is the correctness gate every run passes: conservation on the PREMA
// stacks, total compute equal to the workload's on the simulator, and an
// honest wire size model.
func (in *instance) check(o *outcome) error {
	if in.wl.backend != "parmetis" {
		if err := o.res.CheckConservation(); err != nil {
			return err
		}
	}
	if in.wl.backend != "dist" {
		var compute Time
		for i := range o.res.Accounts {
			compute += o.res.Accounts[i][catCompute]
		}
		if want := in.w.TotalWork(); compute != want {
			return fmt.Errorf("total compute %v, want %v", compute, want)
		}
	}
	if o.wireDrift != 0 {
		return fmt.Errorf("%d frames larger than their modeled size", o.wireDrift)
	}
	return nil
}

// resultHash fingerprints what a run computed — makespan, every counter,
// every account, final residency — and none of how the host computed it.
func resultHash(r *Result) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s %d\n", r.System, r.Makespan)
	keys := make([]string, 0, len(r.Counters))
	for k := range r.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%d\n", k, r.Counters[k])
	}
	for i := range r.Accounts {
		fmt.Fprintf(h, "%d\n", r.Accounts[i]) // nanoseconds, not the rounded String form
	}
	fmt.Fprintln(h, r.Resident)
	return fmt.Sprintf("%016x", h.Sum64())
}

func (o *outcome) makespanOverIdeal() float64 {
	return float64(o.res.Makespan) / float64(o.res.W.IdealMakespan())
}
