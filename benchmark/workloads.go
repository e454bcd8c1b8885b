package main

import "fmt"

// workload is one fixed-size closed batch: "simulate or execute N work units
// of this shape on this stack". Sizes are chosen so one run takes about a
// second on a two-core host, so that a measurement of ten-odd seconds holds
// a few runs of every input.
//
// Units per processor are chosen so that perfect balance is impossible (the
// ideal makespan is not a multiple of the light unit): every input then ends
// with a tail in which idle processors storm the busy ones with steal
// requests. With a shape that can balance perfectly, one input in two to six
// has no tail and costs a fifth as much, and no median is steady across
// seeds.
type workload struct {
	name string
	why  string

	backend string // "sim" (PREMA stack on the simulator), "parmetis" (cost model on the engine), "dist" (premad processes)
	procs   int
	upp     int // work units per processor
	heavy   Time
	light   Time

	shards    int     // simulator event-loop shards (0 = serial)
	wire      bool    // wire.Wrap above the simulator
	faults    string  // faulty plan above that ("" = none)
	reliable  bool    // DMCS reliable mode
	traced    bool    // trace.Wrap outermost, then summarize and export
	timeScale float64 // dist: wall seconds per virtual second
	hashPeer  string  // workload whose result hash must equal this one's
}

var workloads = []workload{
	{
		name: "fig3_implicit", backend: "sim", procs: 32, upp: 22, heavy: 10 * second, light: 5 * second,
		why: "the Figure 3 run people wait for: ilb poll slicing and the sim heap/handoff do the work; decorators, partitioner and sockets do none",
	},
	{
		name: "fig3_implicit_s2", backend: "sim", procs: 32, upp: 22, heavy: 10 * second, light: 5 * second, shards: 2, hashPeer: "fig3_implicit",
		why: "same workload on two event-loop shards: windows, mailboxes and barriers instead of the serial loop, so a serial gain that costs the sharded path shows",
	},
	{
		name: "wide_fine", backend: "sim", procs: 128, upp: 16, heavy: 1 * second, light: second / 2,
		why: "fine units on a wide machine: steal request/nack traffic through policy, mol, dmcs and sim send/deliver outweighs poll slices, the opposite mix from fig3_implicit",
	},
	{
		name: "fig3_chaos", backend: "sim", procs: 32, upp: 6, heavy: 10 * second, light: 5 * second, wire: true, faults: "drop=0.01,dup=0.01", reliable: true,
		why: "DMCS reliable mode over wire.Wrap and faulty.Wrap with loss and duplication: the only run with ARQ, codec round trips and conservation under message loss",
	},
	{
		name: "fig3_traced", backend: "sim", procs: 16, upp: 14, heavy: 10 * second, light: 5 * second, traced: true,
		why: "trace.Wrap recording, then Summarize and the Chrome export: the observer does most of the work and every other workload bypasses it",
	},
	{
		name: "fig3_parmetis", backend: "parmetis", procs: 64, upp: 64, heavy: 10 * second, light: 5 * second,
		why: "stop-and-repartition model: partition/parmetis do the work, no PREMA stack at all; the control on which stack, seam and trace changes predict no change",
	},
	{
		name: "dist2_fig3", backend: "dist", procs: 16, upp: 16, heavy: 10 * second, light: 5 * second, timeScale: 0.01,
		why: "two spawned premad processes over localhost TCP: the only run with real sockets, goroutine concurrency and the wall-clock endpoint; sim is not involved",
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// splitmix is the SplitMix64 step; it spreads consecutive -seed values over
// the whole seed space so seed 1 and seed 2 share nothing.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// instance is a workload generated from a seed: the exact inputs the
// program under test receives.
type instance struct {
	wl        *workload
	w         Workload
	plan      FaultPlan
	faultSeed int64
}

// subSeeds is how many inputs one -seed yields per workload.
const subSeeds = 5

// generate builds input k of seed. Every workload shares the Workload.Seed
// of (seed, k) (fig3_implicit and its sharded twin must, to hash alike); the
// fault seed is a second draw. quick shrinks the batch to an eighth.
func (wl *workload) generate(seed int64, k int, quick bool) (*instance, error) {
	procs, upp := wl.procs, wl.upp
	if quick {
		procs, upp = procs/2, max(upp/4, 2)
	}
	draw := splitmix(uint64(seed)*subSeeds + uint64(k))
	in := &instance{
		wl:        wl,
		w:         figure3(procs, upp, wl.heavy, wl.light, int64(draw>>1)),
		faultSeed: int64(splitmix(draw) >> 1),
	}
	in.w.Shards = wl.shards
	var err error
	if in.plan, err = parsePlan(wl.faults); err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	return in, nil
}
