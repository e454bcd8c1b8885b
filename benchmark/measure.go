package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"
)

// env is what every measurement of one invocation shares.
type env struct {
	seed     int64
	quick    bool
	premad   string    // built node daemon, "" until a dist workload needs it
	progress io.Writer // the suite's per-round lines
	cal      *calibration
}

// buildPremad builds cmd/premad, the program dist2_fig3 spawns, into dir. It
// is the one step that needs the go tool and the repository's sources at run
// time, and it is not part of setup_s: set-up must be repeatable within a
// run, and with a cold build cache it would measure the compiler.
func (e *env) buildPremad(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	out, err := filepath.Abs(filepath.Join(dir, "premad"))
	if err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", out, "prema/cmd/premad")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build prema/cmd/premad (run the benchmark inside the repository): %w", err)
	}
	e.premad = out
	return nil
}

// setUp is everything between process start and the first timed run, for one
// workload: generate its inputs from the seed and push an eighth-size batch
// of the same shape through the same stack once, so lazy initialisation,
// codec registries and page-ins are paid before timing starts. The warm-up
// batch has a seed of its own, so that set-up costs the same for every -seed.
func (e *env) setUp(wl *workload, inputs int) (*samples, float64, error) {
	e.cal.sample()
	t0 := time.Now()
	s := &samples{wl: wl}
	for k := 0; k < inputs; k++ {
		in, err := wl.generate(e.seed, k, e.quick)
		if err != nil {
			return nil, 0, err
		}
		s.ins = append(s.ins, in)
	}
	s.first = make([]*outcome, inputs)
	if !e.quick { // a quick run is its own warm-up
		warm, err := wl.generate(warmSeed, 0, true)
		if err != nil {
			return nil, 0, err
		}
		if _, err := warm.run(e.premad, nil); err != nil {
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, time.Since(t0).Seconds(), nil
}

const warmSeed = 0

// timedRun is one good unprobed run of one input.
type timedRun struct {
	input                   int
	wall, alloc, ratio, cpu float64
}

// samples collects the runs of one workload. A workload has several inputs
// (one per sub-seed) and timed runs rotate over them: what the stack does
// with a batch — how long its tail is, whether idle processors storm the
// busy ones with steal requests — depends on the seed far more than on the
// host, and a metric is only steady across seeds when it is the median over
// inputs of each input's median over runs.
type samples struct {
	wl        *workload
	ins       []*instance
	first     []*outcome // per input: its first good run (counters, reference hash)
	runs      []timedRun
	next      int // input of the next timed run
	attempted int // work units
	failed    int
	errs      []string
}

// account counts one run's work units and holds it to the result hash of its
// input's first run; it reports whether the run is good. An operation is one
// work unit, and every unit of a run that errors or fails a check counts as
// failed.
func (s *samples) account(input int, o *outcome, err error) bool {
	units := s.ins[input].w.Units
	s.attempted += units
	if err == nil {
		switch ref := s.first[input]; {
		case ref == nil:
			s.first[input] = o
		case o.hash != ref.hash:
			err = fmt.Errorf("%s: result hash %s differs from %s of the first run on the same input", s.wl.name, o.hash, ref.hash)
		}
	}
	if err != nil {
		s.failed += units
		s.errs = append(s.errs, err.Error())
	}
	return err == nil
}

// timedRun adds one unprobed run of the next input.
func (s *samples) timedRun(e *env) {
	k := s.next
	s.next = (s.next + 1) % len(s.ins)
	e.cal.sample()
	o, err := s.ins[k].run(e.premad, nil)
	if s.account(k, o, err) {
		s.runs = append(s.runs, timedRun{k, o.wallS, o.allocMB, o.makespanOverIdeal(), o.cpuS})
	}
}

// values returns one field of the good runs of one input (all inputs if
// input < 0).
func (s *samples) values(input int, field func(timedRun) float64) []float64 {
	var xs []float64
	for _, r := range s.runs {
		if input < 0 || r.input == input {
			xs = append(xs, field(r))
		}
	}
	return xs
}

// summary reports a field over all runs, with the median taken per input
// first and then across inputs.
func (s *samples) summary(unit string, field func(timedRun) float64) stat {
	st := summarize(s.values(-1, field), unit)
	var perInput []float64
	for k := range s.ins {
		if xs := s.values(k, field); len(xs) > 0 {
			perInput = append(perInput, median(xs))
		}
	}
	st.Median = median(perInput)
	return st
}

func wallOf(r timedRun) float64  { return r.wall }
func ratioOf(r timedRun) float64 { return r.ratio }

// endToEnd summarises the timed runs; wall_s in calm-host seconds.
func (s *samples) endToEnd(cal *calibration) map[string]stat {
	return map[string]stat{
		"wall_s":              cal.scaled(s.wl, s.summary("s", wallOf)),
		"alloc_mb":            s.summary("MB", func(r timedRun) float64 { return r.alloc }),
		"makespan_over_ideal": s.summary("ratio", ratioOf),
	}
}

// hash is the first input's result hash.
func (s *samples) hash() string {
	if s.first[0] == nil {
		return ""
	}
	return s.first[0].hash
}

// layerReport is the per-layer view of one workload.
type layerReport struct {
	metrics map[string]stat
	spans   []spanRow
	profile map[string]float64 // every bucket of the CPU profile fold
}

func (r *layerReport) put(name string, xs ...float64) {
	for _, d := range perLayer {
		if d.Name == name {
			r.metrics[name] = summarize(xs, d.Unit)
			return
		}
	}
	panic("benchmark: undeclared layer metric " + name)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fromResults fills the metrics that are public result fields and counters
// of the timed runs (source R).
func (r *layerReport) fromResults(s *samples, cal *calibration) {
	o := s.first[0]
	c := o.res.Counters
	wall := median(s.values(0, wallOf))
	r.put("host.wall_raw_s", s.values(0, wallOf)...)
	r.put("host.slowdown_x", cal.samples...)
	r.put("host.cpu_s", s.values(0, func(r timedRun) float64 { return r.cpu })...)
	r.put("ilb.units_run", float64(c["units_run"]))
	r.put("policy.steal_requests", float64(c["steal_requests"]))
	r.put("policy.steal_grants", float64(c["steal_grants"]))
	r.put("policy.grant_ratio", ratio(float64(c["steal_grants"]), float64(c["steal_requests"])))
	r.put("mol.migrations", float64(c["objects_migrated"]))
	r.put("dmcs.rel_data_sent", float64(c["rel_data_sent"]))
	r.put("dmcs.rel_acks", float64(c["rel_acks"]))
	r.put("dmcs.rel_retransmits", float64(c["rel_retransmits"]))
	r.put("dmcs.retransmit_ratio", ratio(float64(c["rel_retransmits"]), float64(c["rel_data_sent"])))
	r.put("parmetis.lb_rounds", float64(c["lb_rounds"]))
	r.put("parmetis.units_migrated", float64(c["units_migrated_root"]))
	r.put("faulty.dropped", float64(o.dropped))
	r.put("faulty.dupped", float64(o.dupped))
	r.put("trace.events", float64(o.traceEvents))
	r.put("trace.dropped", float64(o.traceDropped))
	r.put("trace.export_s", o.exportS)
	r.put("trace.export_mb", o.exportMB)
	if s.wl.backend == "dist" {
		r.put("dist.wire_frames", float64(o.wireFrames))
		return
	}
	r.put("wire.frames", float64(o.wireFrames))
	r.put("wire.size_drift", float64(o.wireDrift))
	r.put("sim.events", float64(o.events))
	r.put("sim.events_per_unit", ratio(float64(o.events), float64(s.ins[0].w.Units)))
	r.put("sim.ns_per_event", ratio(wall*1e9, float64(o.events)))
	r.put("sim.barrier_rounds", float64(o.barrierRounds))
	if s.wl.shards > 1 {
		r.put("sim.shard_imbalance", o.shardImbalance)
	}
}

// heapSampler polls the live-heap gauge while probed runs execute.
type heapSampler struct {
	quit chan struct{}
	done sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			h.peak = max(h.peak, heapBytes())
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the peak in MB.
func (h *heapSampler) stop() float64 {
	close(h.quit)
	h.done.Wait()
	return float64(h.peak) / 1e6
}

// probed runs the workload's first input again under the seam probe and a
// CPU profile (source P) until budget is spent, at least once. End-to-end
// metrics never come from these runs; they are counted in attempted/failed
// like any other.
func (r *layerReport) probed(e *env, s *samples, budget time.Duration) error {
	if s.wl.backend == "dist" {
		return nil // the work happens in other processes: nothing here to probe
	}
	start := time.Now()
	heap := startHeapSampler()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		heap.stop()
		return fmt.Errorf("cpu profile: %w", err)
	}
	var (
		sp    *seamProbe
		walls []float64
		self  = map[string][]float64{}
		under []float64
	)
	for len(walls) == 0 || (!e.quick && time.Since(start) < budget) {
		sp = nil
		if s.wl.backend == "sim" {
			sp = newSeamProbe()
		}
		o, err := s.ins[0].run(e.premad, sp)
		if !s.account(0, o, err) {
			break
		}
		walls = append(walls, o.wallS)
		if sp != nil {
			above := 0.0
			for _, layer := range sp.layerNames()[1:] {
				sec := sp.selfSeconds(layer)
				self[layer] = append(self[layer], sec)
				above += sec
			}
			under = append(under, o.wallS-o.exportS-above)
		}
	}
	pprof.StopCPUProfile()
	r.put("host.peak_heap_mb", heap.stop())
	if len(walls) == 0 {
		return fmt.Errorf("%s: probed run failed", s.wl.name)
	}
	stacks, err := parseProfile(prof.Bytes())
	if err != nil {
		return err
	}
	r.profile = foldProfile(stacks)
	for metric, bucket := range map[string]string{
		"sim.cpu_share": "sim", "sim.heap_cpu_share": "sim.heap",
		"goruntime.sched_cpu_share": "goruntime.sched", "goruntime.gc_cpu_share": "goruntime.gc",
		"ilb.cpu_share": "ilb", "policy.cpu_share": "policy", "mol.cpu_share": "mol", "dmcs.cpu_share": "dmcs",
		"wire.cpu_share": "wire", "faulty.cpu_share": "faulty",
		"partition.cpu_share": "partition", "parmetis.cpu_share": "parmetis",
	} {
		r.put(metric, r.profile[bucket])
	}
	r.put("probe.overhead_pct", 100*(ratio(median(walls), median(s.values(0, wallOf)))-1))
	if sp == nil {
		return nil
	}
	r.spans = sp.rows()
	r.put("sim.under_seam_s", under...)
	r.put("stack.self_s", self["stack"]...)
	r.put("stack.self_share", ratio(median(self["stack"]), median(walls)))
	r.put("wire.self_s", self["wire"]...)
	r.put("faulty.self_s", self["faulty"]...)
	r.put("seam.calls", sp.count(-1, mAdvance, mSend, mTryRecv, mTryRecvTag, mRecv, mWaitMsg, mWaitMsgFor))
	r.put("seam.advance_compute", sp.count(int(catCompute), mAdvance))
	r.put("seam.advance_pollthread", sp.count(int(catPollThread), mAdvance))
	r.put("seam.sends", sp.count(-1, mSend))
	r.put("seam.recvs", sp.count(-1, mTryRecv, mTryRecvTag, mRecv))
	r.put("seam.waits", sp.count(-1, mWaitMsg, mWaitMsgFor))
	r.put("ilb.poll_wakes", sp.count(int(catPollThread), mAdvance))
	r.put("dmcs.sends", sp.count(-1, mSend))
	return nil
}

// layers builds one workload's whole per-layer report, all of it on the
// workload's first input: R from the timed runs already in s, P from probed runs within budget, M from the workload's
// micro-probes.
func (e *env) layers(s *samples, budget time.Duration) (*layerReport, error) {
	r := &layerReport{metrics: map[string]stat{}}
	if s.first[0] == nil {
		return r, fmt.Errorf("%s: no successful timed run to report layers from", s.wl.name)
	}
	r.fromResults(s, e.cal)
	if err := r.probed(e, s, budget); err != nil {
		return r, err
	}
	return r, e.micro(s, r)
}
