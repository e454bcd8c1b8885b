package main

// api.go is the benchmark's whole dependency on the repository: every
// prema/internal symbol the benchmark touches is named here and nowhere
// else. A later change that renames or reshapes one of them edits this file
// (through a benchmark-only change) and nothing else under benchmark/.

import (
	"errors"
	"fmt"
	"io"
	"time"

	"prema/internal/bench"
	"prema/internal/dmcs"
	"prema/internal/faulty"
	"prema/internal/graph"
	"prema/internal/partition"
	"prema/internal/rtm"
	"prema/internal/sim"
	"prema/internal/substrate"
	"prema/internal/trace"
	"prema/internal/wire"
)

type (
	Machine   = substrate.Machine
	Endpoint  = substrate.Endpoint
	Msg       = substrate.Msg
	Category  = substrate.Category
	Time      = substrate.Time
	Account   = substrate.Account
	Workload  = bench.Workload
	Result    = bench.Result
	Recorder  = trace.Recorder
	Collector = trace.Collector
	FaultPlan = faulty.Plan
)

const (
	numCategories  = int(substrate.NumCategories)
	catCompute     = substrate.CatCompute
	catPollThread  = substrate.CatPollThread
	second         = substrate.Second
	premaSystem    = "prema-implicit"
	parmetisSystem = "parmetis"
)

// figure3 builds a Figure-3-shaped workload (50 % heavy units) with the given
// unit weights.
func figure3(procs, unitsPerProc int, heavy, light Time, seed int64) Workload {
	w := bench.PaperWorkload(bench.Figures()[0], procs, unitsPerProc)
	w.Heavy, w.Light, w.Seed = heavy, light, seed
	return w
}

// simMachine is the bare simulator plus the engine telemetry a fault
// injector above it would hide from bench.Result.
type simMachine struct{ sim.Machine }

// newSim builds the simulator machine for w the way bench's own drivers do:
// default network, w.Seed, and for sharded workloads the blocked partition.
func newSim(w Workload) simMachine {
	cfg := sim.Config{Seed: w.Seed, Shards: w.Shards}
	if w.Shards > 1 {
		procs := w.Procs
		cfg.Partition = func(id, shards int) int {
			if id >= procs {
				return id % shards
			}
			return id * shards / procs
		}
	}
	return simMachine{sim.NewMachine(cfg)}
}

func (m simMachine) events() uint64        { return m.EventsFired() }
func (m simMachine) barrierRounds() uint64 { return m.BarrierRounds() }
func (m simMachine) shardImbalance() float64 {
	return m.ImbalanceRatio()
}

type wireMachine = *wire.Machine

func wrapWire(m Machine) wireMachine { return wire.Wrap(m) }

type faultyMachine = *faulty.Machine

func parsePlan(s string) (FaultPlan, error) { return faulty.ParsePlan(s) }

func wrapFaulty(m Machine, plan FaultPlan, seed int64) faultyMachine {
	return faulty.Wrap(m, plan, seed)
}

func newCollector() *Collector { return trace.NewCollector(0) }

func wrapTrace(m Machine, col *Collector) Machine { return trace.Wrap(m, col) }

// recorderOf forwards trace discovery through a benchmark decorator.
func recorderOf(ep Endpoint) *Recorder { return trace.Of(ep) }

// exportTrace does what a traced CLI run does after the simulation: the
// metrics registry and the Chrome timeline.
func exportTrace(col *Collector, makespan Time, w io.Writer) error {
	trace.Summarize(col, makespan)
	return col.WriteChrome(w)
}

// runPrema drives prema-implicit on m, in DMCS reliable mode when asked.
func runPrema(m Machine, w Workload, reliable bool) (*Result, error) {
	cfg, err := bench.PremaConfigFor(premaSystem)
	if err != nil {
		return nil, err
	}
	if reliable {
		cfg.Rel = dmcs.DefaultRelConfig()
	}
	return bench.RunPremaOn(m, w, cfg)
}

func runParmetis(w Workload) (*Result, error) { return bench.RunSystem(parmetisSystem, w) }

// runDist runs one coordinator session over spawned premad processes.
func runDist(system string, w Workload, nodes int, timeScale float64, premad string) (*Result, error) {
	spec := bench.NewDistSpec(system, w)
	spec.TimeScale = timeScale
	return bench.RunDist(spec, bench.DistOptions{Nodes: nodes, Listen: "127.0.0.1:0", Premad: premad})
}

// runRTM runs prema-implicit on the in-process wall-clock backend.
func runRTM(w Workload, timeScale float64) (*Result, error) {
	rc := rtm.DefaultConfig()
	rc.Seed = w.Seed
	rc.TimeScale = timeScale
	return bench.RunSystemOn(premaSystem, rtm.New(rc), w)
}

// pingPong runs the two-node transport probe and returns the round-trip
// time in microseconds (0 when rounds is too small to time) and the frames
// that crossed the sockets.
func pingPong(rounds int, premad string) (rttUS float64, frames uint64, err error) {
	res, err := runDist("pingpong", Workload{Procs: 2, Units: rounds, UnitBytes: 8, Seed: 7}, 2, 0, premad)
	if err != nil {
		return 0, 0, err
	}
	if n := res.Counters["pingpong_rounds"]; n > 0 {
		rttUS = float64(res.Counters["pingpong_ns_total"]) / float64(n) / 1e3
	}
	return rttUS, res.WireFrames, nil
}

// ---- micro-probes: loops over one layer's public functions ----

const microWarm = 10_000

// advanceLoop times n Advance calls on a fresh engine: alone (every wake
// takes the in-window fast path) or tied with a peer advancing by the same
// quantum (every wake goes through the heap and a goroutine handoff).
func advanceLoop(n int, queued bool) (nsPerEvent float64, err error) {
	e := sim.NewEngine(sim.Config{Seed: 1})
	if queued {
		e.Spawn("peer", func(p *sim.Proc) {
			for i := 0; i < microWarm+n; i++ {
				p.Advance(sim.Microsecond, sim.CatCompute)
			}
		})
	}
	var dur time.Duration
	e.Spawn("timed", func(p *sim.Proc) {
		for i := 0; i < microWarm; i++ {
			p.Advance(sim.Microsecond, sim.CatCompute)
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			p.Advance(sim.Microsecond, sim.CatCompute)
		}
		dur = time.Since(t0)
	})
	if err := e.Run(); err != nil {
		return 0, fmt.Errorf("advance probe: %w", err)
	}
	return float64(dur.Nanoseconds()) / float64(n), nil
}

// amRoundTrip times n dmcs active-message round trips between two simulated
// processors (two sends, two deliveries, two polls each).
func amRoundTrip(n int) (nsPerRoundTrip float64, err error) {
	e := sim.NewEngine(sim.Config{Seed: 1})
	rounds := microWarm + n
	bounce := func(c *dmcs.Comm) dmcs.HandlerID {
		var h dmcs.HandlerID
		h = c.Register(func(c *dmcs.Comm, src int, data any, size int) {
			if data.(int) > 0 {
				c.Send(src, h, data.(int)-1, 8)
			}
		})
		return h
	}
	e.Spawn("pong", func(p *sim.Proc) {
		c := dmcs.New(p)
		bounce(c)
		for i := 0; i < rounds; i++ {
			c.WaitPoll(sim.CatIdle)
		}
	})
	var dur time.Duration
	e.Spawn("ping", func(p *sim.Proc) {
		c := dmcs.New(p)
		c.Send(0, bounce(c), 2*rounds, 8)
		for i := 0; i < microWarm; i++ {
			c.WaitPoll(sim.CatIdle)
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			c.WaitPoll(sim.CatIdle)
		}
		dur = time.Since(t0)
	})
	// The last bounce can strand one poller; that deadlock ends the probe.
	if err := e.Run(); err != nil && !errors.Is(err, sim.ErrDeadlock) {
		return 0, fmt.Errorf("AM probe: %w", err)
	}
	return float64(dur.Nanoseconds()) / float64(n), nil
}

// recorderLoop times n trace.Recorder.Instant calls into a default ring.
func recorderLoop(n int) (nsPerEvent float64) {
	r := trace.NewRecorder(0, trace.DefaultRingCap)
	for i := 0; i < microWarm; i++ {
		r.Instant(trace.EvSend, Time(i), 1, 2, 3)
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r.Instant(trace.EvSend, Time(i), 1, 2, 3)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// codecLoop round-trips n frames (one sample payload per registered kind, in
// turn) through the wire codec, as wire.Wrap does on every Send.
func codecLoop(n int) (nsPerFrame, allocsPerFrame float64, err error) {
	samples := wire.Samples()
	msgs := make([]*Msg, len(samples))
	for i, s := range samples {
		m := &Msg{Src: i % 7, Dst: (i + 1) % 7, Kind: i, Tag: i % 3, Data: s, Seq: uint64(i), SentAt: Time(i)}
		_, m.Size = wire.EncodeMsg(m)
		msgs[i] = m
	}
	var w wire.Writer
	loop := func(n int) error {
		for i := 0; i < n; i++ {
			m := msgs[i%len(msgs)]
			w.Reset()
			wire.AppendMsg(&w, m)
			if _, err := wire.DecodeMsg(w.Buf()); err != nil {
				return fmt.Errorf("wire codec probe (%T): %w", m.Data, err)
			}
		}
		return nil
	}
	if err := loop(microWarm); err != nil {
		return 0, 0, err
	}
	m0 := mallocs()
	t0 := time.Now()
	if err := loop(n); err != nil {
		return 0, 0, err
	}
	dur, m1 := time.Since(t0), mallocs()
	return float64(dur.Nanoseconds()) / float64(n), float64(m1-m0) / float64(n), nil
}

// kwayMS times one 128-way partition of a 32x32x8 grid, in milliseconds.
func kwayMS(g *graph.Graph) float64 {
	t0 := time.Now()
	partition.Partition(g, 128, partition.Options{Seed: 1})
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

func kwayGraph() *graph.Graph { return graph.Grid3D(32, 32, 8) }
