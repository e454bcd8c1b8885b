// Quickstart: the paper's Figure 2 example — performing a task over every
// node of a tree — ported from sequential code to the PREMA runtime.
//
// Sequential version (top of Figure 2):
//
//	func (n *treeNode) doWork() {
//		if n.left != nil  { n.left.doWork() }
//		if n.right != nil { n.right.doWork() }
//		// ... do more work here for the local node ...
//	}
//
// PREMA version (bottom of Figure 2): local pointers between tree nodes
// become mobile pointers, and direct calls become messages that invoke
// do_work_handler at whichever processor currently hosts the node. The
// runtime is then free to migrate nodes for load balance; the traversal
// code does not change.
//
// The application body is written against substrate.Endpoint, so the same
// code runs on the deterministic simulator (default) or with genuine
// parallelism — one goroutine per processor — on the real-concurrency
// backend:
//
//	go run ./examples/quickstart                  # deterministic simulator
//	go run ./examples/quickstart -backend=real    # goroutine backend
package main

import (
	"flag"
	"fmt"
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

// treeNode is the application datum registered as a mobile object. Children
// are held by mobile pointer, never by memory address, so the tree stays
// traversable as nodes migrate between processors.
type treeNode struct {
	depth       int
	left, right mol.MobilePtr
}

const (
	procs     = 4
	treeDepth = 6
	nodeWork  = 50 * substrate.Millisecond
	seed      = 7
)

func newMachine(backend string, timescale float64) substrate.Machine {
	switch backend {
	case "sim":
		return sim.NewMachine(sim.Config{Seed: seed})
	case "real":
		cfg := rtm.DefaultConfig()
		cfg.Seed = seed
		cfg.TimeScale = timescale
		return rtm.New(cfg)
	default:
		fmt.Fprintf(os.Stderr, "unknown backend %q (want sim or real)\n", backend)
		os.Exit(2)
		return nil
	}
}

func main() {
	backend := flag.String("backend", "sim", "execution substrate: sim (deterministic) | real (goroutines)")
	timescale := flag.Float64("timescale", 1e-3, "real backend: wall seconds per virtual second")
	flag.Parse()

	m := newMachine(*backend, *timescale)
	total := 1<<(treeDepth+1) - 1 // nodes in a complete binary tree

	for p := 0; p < procs; p++ {
		m.Spawn(fmt.Sprintf("p%d", p), func(ep substrate.Endpoint) {
			opts := core.DefaultOptions(ilb.Implicit)
			opts.LB.WaterMark = 0.1
			opts.Policy = policy.NewWorkStealing(policy.DefaultWSConfig())
			r := core.NewRuntime(ep, opts)

			visited := 0
			var hDone dmcs.HandlerID
			hDone = r.Comm().Register(func(c *dmcs.Comm, src int, data any, size int) {
				visited++
				if visited == total {
					fmt.Printf("all %d nodes visited; makespan %v\n", total, ep.Now())
					r.StopAll()
				}
			})

			// do_work_handler: runs at the node's current host. It forwards
			// the traversal to the children through their mobile pointers
			// (ilb_message in the paper's API), then does the local work.
			var hWork mol.HandlerID
			hWork = r.RegisterHandler(func(l *mol.Layer, obj *mol.Object, src int, data any, size int) {
				node := obj.Data.(*treeNode)
				if !node.left.IsNil() {
					r.Message(node.left, hWork, nil, 8, nodeWork.Seconds())
				}
				if !node.right.IsNil() {
					r.Message(node.right, hWork, nil, 8, nodeWork.Seconds())
				}
				r.Compute(nodeWork) // ... do more work here for local node ...
				r.Comm().SendTagged(0, hDone, nil, 8, substrate.TagApp)
			})

			// Processor 0 builds the whole tree locally — a deliberately
			// terrible initial distribution that the work stealing policy
			// must fix at runtime.
			if ep.ID() == 0 {
				var build func(depth int) mol.MobilePtr
				build = func(depth int) mol.MobilePtr {
					n := &treeNode{depth: depth, left: mol.Nil, right: mol.Nil}
					if depth < treeDepth {
						n.left = build(depth + 1)
						n.right = build(depth + 1)
					}
					return r.Register(n, 256)
				}
				root := build(0)
				r.Message(root, hWork, nil, 8, nodeWork.Seconds())
			}
			r.Run()

			if ep.ID() == 0 {
				fmt.Printf("proc 0 migrations out: %d\n", r.Mol().Stats.MigrationsOut)
			}
		})
	}
	if err := m.Run(); err != nil {
		panic(err)
	}

	fmt.Println("\nper-processor computation (work started on processor 0 only):")
	serial := substrate.Time(total) * nodeWork
	for i := 0; i < procs; i++ {
		a := m.Account(i)
		fmt.Printf("  p%d: compute %v, idle %v\n", i, a[substrate.CatCompute], a[substrate.CatIdle])
	}
	fmt.Printf("serial time %v, parallel makespan %v (%.1fx speedup)\n",
		serial, m.Makespan(), serial.Seconds()/m.Makespan().Seconds())
}
