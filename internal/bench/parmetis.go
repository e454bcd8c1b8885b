package bench

import (
	"fmt"
	"slices"
	"sync"

	"prema/internal/dmcs"
	"prema/internal/graph"
	"prema/internal/parmetis"
	"prema/internal/sim"
	"prema/internal/substrate"
)

// ParmetisConfig configures the stop-and-repartition driver (the paper's
// ParMETIS baseline, §5): a root-coordinated protocol in which underloaded
// processors notify the root, the root decides whether outstanding work
// warrants a repartition, and — if so — all processors synchronize, exchange
// load information all-to-all, each compute the same adaptive repartition
// (ParMETIS_V3_AdaptiveRepart's Unified Repartitioning Algorithm), and
// migrate work units accordingly. Virtual time charges every processor for
// that calculation; the host computes it once per round (repartPlan).
type ParmetisConfig struct {
	// WaterMark is the hinted-seconds threshold below which a processor
	// reports itself underloaded to the root.
	WaterMark float64
	// WarrantPerProc: after the information exchange, the repartition is
	// applied only if outstanding hinted work per processor is at least
	// this many seconds; otherwise the round "mandates that work units
	// remain on the processors on which they were originally assigned"
	// (paper §5, the Figure 4 regime).
	WarrantPerProc float64
	// RoundInterval is the minimum spacing between repartition rounds.
	RoundInterval sim.Time
	// PartitionPerUnitCPU is the virtual CPU cost of one partition
	// calculation per outstanding unit, on top of partitionBaseCPU.
	PartitionPerUnitCPU sim.Time
}

// DefaultParmetisConfig returns the calibrated configuration for the paper
// figures.
func DefaultParmetisConfig() ParmetisConfig {
	return ParmetisConfig{
		WaterMark:           12,
		WarrantPerProc:      45,
		RoundInterval:       15 * sim.Second,
		PartitionPerUnitCPU: 150 * sim.Microsecond,
	}
}

// The protocol settings that the benchmark's parmetis and the mesh
// experiment's repartition share; ParmetisConfig holds the ones they differ
// in. The URA's Relative Cost Factor is parmetis.DefaultOptions' α.
const (
	// reportInterval is how often an idle processor re-reports underload to
	// the root (each report can trigger another round once RoundInterval
	// has elapsed; in the declined regime this yields the paper's repeated
	// synchronization cost).
	reportInterval = 5 * sim.Second
	// partitionBaseCPU is the fixed virtual CPU cost of one partition
	// calculation.
	partitionBaseCPU = 100 * sim.Millisecond
	// idleTick bounds idle blocking.
	idleTick = 200 * sim.Millisecond
)

// runRepartition is the one stop-and-repartition protocol (see
// ParmetisConfig), on any application. A work-list entry is one unfinished
// object and the step it runs next, numbered step*app.objects + obj — for
// the one-step benchmark the bare unit index, which keeps its all-to-all
// list exchange at one word per unit. w sizes the machine and labels the
// result, as for runPrema.
func runRepartition(name string, m substrate.Machine, w Workload, app application, cfg ParmetisConfig) (*Result, error) {
	n := app.objects
	rounds := 0
	migrated := 0
	declined := 0
	var plans planCache
	// A vertex weighs the hinted seconds its entry still stands for, in ms.
	weight := func(e int) int64 { return max(1, int64(app.remaining(e)*1000)) }
	for p := 0; p < w.Procs; p++ {
		m.Spawn(fmt.Sprintf("p%03d", p), func(ep substrate.Endpoint) {
			c := dmcs.New(ep)
			me := ep.ID()
			pending := blockOf(me, w.Procs, n)
			hinted := func() float64 {
				s := 0.0
				for _, e := range pending {
					s += app.remaining(e)
				}
				return s
			}

			// Root-only state.
			completed := 0
			roundActive := false
			var lastRound sim.Time = -1 << 40
			roundID := 0

			// Per-proc round state.
			joinRound := 0 // round id to join, 0 = none
			var lastReport sim.Time = -1 << 40
			lists := newRoundLists(w.Procs)
			batches := make([][]int, w.Procs) // outgoing entries, by destination
			arrivedUnits := 0
			stopped := false
			reported := false

			var hDone, hUnder, hSyncStart, hList, hMigrate, hStop dmcs.HandlerID
			hDone = c.Register(func(c *dmcs.Comm, src int, data any, size int) {
				completed++
				if completed == n && !roundActive {
					for q := 0; q < w.Procs; q++ {
						if q != me {
							c.SendTagged(q, hStop, nil, 8, sim.TagSystem)
						}
					}
					stopped = true
				}
			})
			hUnder = c.Register(func(c *dmcs.Comm, src int, data any, size int) {
				if roundActive || completed >= n {
					return
				}
				if ep.Now() < lastRound+cfg.RoundInterval {
					return
				}
				roundActive = true
				lastRound = ep.Now()
				roundID++
				for q := 0; q < w.Procs; q++ {
					if q != me {
						c.SendTagged(q, hSyncStart, roundID, 8, sim.TagSystem)
					}
				}
				joinRound = roundID
			})
			hSyncStart = c.Register(func(c *dmcs.Comm, src int, data any, size int) {
				joinRound = data.(int)
			})
			hList = c.Register(func(c *dmcs.Comm, src int, data any, size int) {
				lists.add(src, data.([]int))
			})
			hMigrate = c.Register(func(c *dmcs.Comm, src int, data any, size int) {
				in := data.([]int)
				pending = append(pending, in...)
				arrivedUnits += len(in)
			})
			hStop = c.Register(func(c *dmcs.Comm, src int, data any, size int) {
				stopped = true
			})

			doRound := func() {
				round := joinRound
				joinRound = 0
				// All-to-all information exchange: ship my pending list to
				// every other processor.
				var list any = pending
				for q := 0; q < w.Procs; q++ {
					if q != me {
						c.SendTagged(q, hList, list, app.listBytes*len(pending)+16, sim.TagSystem)
					}
				}
				lists.add(me, pending)
				// Synchronization: wait for everyone's list. The cost of
				// this barrier is the paper's "Synchronization Time".
				for lists.heard < w.Procs && !stopped {
					ep.WaitMsg(sim.CatSync)
					c.Poll()
				}
				if stopped {
					return
				}
				// Partition calculation: every processor is charged for it,
				// as ParMETIS computes it in parallel, but the answer is the
				// same everywhere, so the host computes it once.
				pl := plans.get(round, func() *repartPlan {
					return planRound(round, lists.lists, w, app, cfg.WarrantPerProc, weight)
				})
				ep.Advance(partitionBaseCPU+cfg.PartitionPerUnitCPU*sim.Time(pl.entries), sim.CatPartition)
				if me == 0 {
					rounds++
					if pl.apply {
						migrated += pl.moved
					} else {
						declined++
					}
				}
				// Migrate: batch my outgoing entries per destination. A
				// batch's array is refilled next round, after its receiver
				// has copied it out: it ships its next list only then.
				var keep []int
				for _, e := range pending {
					if q := pl.owner[e%n]; q != me {
						batches[q] = append(batches[q], e)
					} else {
						keep = append(keep, e)
					}
				}
				pending = keep
				for q, b := range batches {
					if len(b) > 0 {
						c.SendTagged(q, hMigrate, b, app.objBytes*len(b)+app.batchBytes, sim.TagSystem)
						batches[q] = b[:0]
					}
				}
				// Wait for my own immigrants before resuming.
				for arrivedUnits < pl.arrivals[me] && !stopped {
					ep.WaitMsg(sim.CatSync)
					c.Poll()
				}
				arrivedUnits -= pl.arrivals[me]
				lists.clear()
				reported = false
				// The root re-arms round initiation and handles a
				// completion that landed mid-round.
				if me == 0 {
					roundActive = false
					if completed == n && !stopped {
						for q := 1; q < w.Procs; q++ {
							c.SendTagged(q, hStop, nil, 8, sim.TagSystem)
						}
						stopped = true
					}
				}
			}

			for !stopped {
				c.Poll()
				if stopped {
					break
				}
				if joinRound != 0 {
					doRound()
					continue
				}
				if len(pending) > 0 {
					e := pending[0]
					pending = pending[1:]
					ep.Advance(app.cost(e%n, e/n), sim.CatCompute)
					if e/n+1 < app.steps {
						pending = append(pending, e+n) // round-robin progress
					} else {
						c.SendTagged(0, hDone, nil, 8, sim.TagApp)
					}
					// Busy processors report underload once per round.
					if hinted() < cfg.WaterMark && !reported {
						reported = true
						lastReport = ep.Now()
						c.SendTagged(0, hUnder, nil, 8, sim.TagSystem)
					}
					continue
				}
				if !reported || ep.Now() >= lastReport+reportInterval {
					reported = true
					lastReport = ep.Now()
					c.SendTagged(0, hUnder, nil, 8, sim.TagSystem)
				}
				ep.WaitMsgFor(idleTick, sim.CatIdle)
			}
		})
	}
	if err := m.Run(); err != nil {
		return nil, fmt.Errorf("bench %s: %w", name, err)
	}
	res := collect(name, w, m)
	res.Counters["lb_rounds"] = rounds
	res.Counters["rounds_declined"] = declined
	res.Counters["units_migrated_root"] = migrated
	return res, nil
}

// roundLists is one processor's view of a round's exchange: every
// processor's work list, by processor. A processor with nothing pending
// ships an empty or nil list, so the barrier counts who was heard from
// rather than which lists are set.
type roundLists struct {
	round int // the round whose lists are gathered, counted from 1
	lists [][]int
	got   []bool
	heard int // distinct processors heard from this round
}

func newRoundLists(procs int) *roundLists {
	return &roundLists{round: 1, lists: make([][]int, procs), got: make([]bool, procs)}
}

// add records q's list. Every processor ships one list per round, so a
// second one is a protocol bug that would release the barrier with a list
// missing: it panics.
func (r *roundLists) add(q int, list []int) {
	if r.got[q] {
		panic(fmt.Sprintf("parmetis round %d: processor %d listed twice", r.round, q))
	}
	r.got[q], r.lists[q] = true, list
	r.heard++
}

// clear empties the lists for the next round.
func (r *roundLists) clear() {
	clear(r.lists)
	clear(r.got)
	r.heard = 0
	r.round++
}

// remaining is the hinted seconds of work entry e still stands for: every
// step left is guessed at the next one's hint.
func (a application) remaining(e int) float64 {
	return a.hint(e%a.objects, e/a.objects) * float64(a.steps-e/a.objects)
}

// repartPlan is one round's repartition: everything a processor derives
// from the exchanged lists, none of it from which processor asks.
type repartPlan struct {
	round    int
	entries  int   // live entries: the partition calculation's size
	apply    bool  // the warrant held, so the URA's answer is used
	owner    []int // object -> its owner after the round (-1: finished)
	arrivals []int // processor -> entries it receives
	moved    int   // entries that change owner
}

// planCache holds the current round's plan, built by the first processor to
// ask; processors on other shard workers may ask at once. One slot is
// enough: asking for round r+1 takes everyone's r+1 list, sent only after
// leaving round r.
type planCache struct {
	mu   sync.Mutex
	slot *repartPlan
}

// get returns round's plan, calling build only if the slot holds another.
// build runs under the lock, so askers of one round wait for its one build;
// it must not ask the cache itself.
func (c *planCache) get(round int, build func() *repartPlan) *repartPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.slot == nil || c.slot.round != round {
		c.slot = build()
	}
	return c.slot
}

// planRound builds round's plan from every processor's list: the URA's
// answer, with weight(e) as entry e's vertex weight, if the outstanding
// hinted work per processor reaches warrant. An object in two lists breaks
// conservation; that is a protocol bug, so it panics.
func planRound(round int, lists [][]int, w Workload, app application, warrant float64, weight func(e int) int64) *repartPlan {
	n := app.objects
	pl := &repartPlan{round: round, owner: slices.Repeat([]int{-1}, n), arrivals: make([]int, w.Procs)}
	entry := make([]int, n)
	for q, list := range lists {
		for _, e := range list {
			if p := pl.owner[e%n]; p >= 0 {
				panic(fmt.Sprintf("parmetis round %d: object %d listed by %d and %d", round, e%n, p, q))
			}
			pl.owner[e%n], entry[e%n] = q, e
		}
	}
	// Every live entry, in object order.
	var all, oldPart []int
	vertex := make([]int, n) // live object -> its vertex in the URA's graph
	outstandingHinted := 0.0
	for obj, q := range pl.owner {
		if q >= 0 {
			vertex[obj] = len(all)
			all, oldPart = append(all, entry[obj]), append(oldPart, q)
			outstandingHinted += app.remaining(entry[obj])
		}
	}
	pl.entries = len(all)
	pl.apply = outstandingHinted/float64(w.Procs) >= warrant && len(all) > 0
	if !pl.apply {
		return pl
	}
	// URA on the live objects, joined by the application's adjacency, if it
	// has one.
	b := graph.NewBuilder(len(all))
	for i, e := range all {
		b.SetVWgt(i, weight(e))
	}
	for _, pr := range app.edges {
		if pl.owner[pr[0]] >= 0 && pl.owner[pr[1]] >= 0 {
			b.AddEdge(vertex[pr[0]], vertex[pr[1]], 1)
		}
	}
	opt := parmetis.DefaultOptions()
	opt.Part.Seed = w.Seed + int64(round)
	newPart := parmetis.AdaptiveRepart(b.Build(), w.Procs, oldPart, opt)
	for i, e := range all {
		if q := newPart[i]; q != oldPart[i] {
			pl.owner[e%n] = q
			pl.arrivals[q]++
			pl.moved++
		}
	}
	return pl
}
