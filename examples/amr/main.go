// AMR: a miniature parallel adaptive mesh refinement loop — the workload
// class the paper is about. A grid of subdomains (mobile objects) is
// refined over a number of iterations; each iteration a localized
// "interesting region" (think crack tip, shock front, flame sheet) sits
// somewhere else, so the computational weight of a subdomain changes
// drastically and unpredictably between iterations. Hints lag reality by
// one iteration.
//
// The example runs the same workload twice — PREMA with explicit polling
// and PREMA with implicit (preemptive) load balancing — and prints the
// makespans, reproducing the paper's core observation at laptop scale.
//
// The refinement loop is written against substrate.Endpoint, so it runs
// unchanged on the deterministic simulator (default) or on the
// real-concurrency goroutine backend:
//
//	go run ./examples/amr                  # deterministic simulator
//	go run ./examples/amr -backend=real    # goroutine backend
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"prema/internal/core"
	"prema/internal/dmcs"
	"prema/internal/ilb"
	"prema/internal/mol"
	"prema/internal/policy"
	"prema/internal/rtm"
	"prema/internal/sim"
	"prema/internal/substrate"
)

const (
	procs      = 8
	subdomains = 64
	iterations = 6
	lightWork  = 40 * substrate.Millisecond
	heavyWork  = 640 * substrate.Millisecond
	spikeSize  = 8 // subdomains inside the interesting region
)

var (
	backend   = flag.String("backend", "sim", "execution substrate: sim (deterministic) | real (goroutines)")
	timescale = flag.Float64("timescale", 1e-3, "real backend: wall seconds per virtual second")
)

// weight returns the true refinement cost of a subdomain at an iteration:
// a contiguous block of spikeSize subdomains (at a pseudo-random offset per
// iteration) is 16x heavier than the rest.
func weight(spikes []int, sub, iter int) substrate.Time {
	off := spikes[iter]
	pos := sub - off
	if pos < 0 {
		pos += subdomains
	}
	if pos < spikeSize {
		return heavyWork
	}
	return lightWork
}

func newMachine() substrate.Machine {
	switch *backend {
	case "sim":
		return sim.NewMachine(sim.Config{Seed: 4})
	case "real":
		cfg := rtm.DefaultConfig()
		cfg.Seed = 4
		cfg.TimeScale = *timescale
		return rtm.New(cfg)
	default:
		fmt.Fprintf(os.Stderr, "unknown backend %q (want sim or real)\n", *backend)
		os.Exit(2)
		return nil
	}
}

func run(mode ilb.Mode) substrate.Time {
	rng := rand.New(rand.NewSource(3))
	spikes := make([]int, iterations)
	for i := range spikes {
		spikes[i] = rng.Intn(subdomains)
	}

	m := newMachine()
	for p := 0; p < procs; p++ {
		m.Spawn(fmt.Sprintf("p%d", p), func(ep substrate.Endpoint) {
			opts := core.DefaultOptions(mode)
			opts.LB.WaterMark = 0.2
			ws := policy.DefaultWSConfig()
			ws.MaxObjects = 1
			opts.Policy = policy.NewWorkStealing(ws)
			// A "well-tuned" refinement loop: the application only posts a
			// poll every 4 subdomain refinements. Explicit balancing decays;
			// implicit balancing does not care.
			opts.LB.PollEvery = 4
			r := core.NewRuntime(ep, opts)

			finished := 0
			var hDone dmcs.HandlerID
			hDone = r.Comm().Register(func(c *dmcs.Comm, src int, data any, size int) {
				finished++
				if finished == subdomains {
					r.StopAll()
				}
			})
			var hRefine mol.HandlerID
			hRefine = r.RegisterHandler(func(l *mol.Layer, obj *mol.Object, src int, data any, size int) {
				sub := obj.Data.(int)
				iter := data.(int)
				w := weight(spikes, sub, iter)
				r.Compute(w)
				if iter+1 < iterations {
					// Chain the next refinement; the only hint available is
					// this iteration's cost — the persistence guess the
					// moving spike keeps breaking.
					r.Message(obj.MP, hRefine, iter+1, 16, w.Seconds())
					return
				}
				r.Comm().SendTagged(0, hDone, nil, 8, substrate.TagApp)
			})
			for sub := 0; sub < subdomains; sub++ {
				if sub*procs/subdomains == ep.ID() {
					mp := r.Register(sub, 32<<10)
					r.Message(mp, hRefine, 0, 16, lightWork.Seconds())
				}
			}
			r.Run()
		})
	}
	if err := m.Run(); err != nil {
		panic(err)
	}
	return m.Makespan()
}

func main() {
	flag.Parse()
	total := substrate.Time(0)
	// Ideal: all iterations' work spread perfectly.
	perIter := substrate.Time(spikeSize)*heavyWork + substrate.Time(subdomains-spikeSize)*lightWork
	total = substrate.Time(iterations) * perIter
	fmt.Printf("workload: %d subdomains x %d iterations, moving 16x spike; ideal %v on %d procs\n",
		subdomains, iterations, total/procs, procs)

	explicit := run(ilb.Explicit)
	implicit := run(ilb.Implicit)
	fmt.Printf("PREMA explicit polling:  makespan %v\n", explicit)
	fmt.Printf("PREMA implicit (preempt): makespan %v\n", implicit)
	fmt.Printf("implicit is %.0f%% faster — balancer messages are served "+
		"mid-refinement instead of waiting for the next poll\n",
		100*(1-implicit.Seconds()/explicit.Seconds()))
}
