// Package conformance is the one cross-backend conformance program: the
// backend tests run it on their machine (or a decorator around one) and
// compare the outcome with the simulator's.
package conformance

import (
	"encoding/binary"
	"fmt"
	"sort"

	"prema/internal/core"
	"prema/internal/dmcs"
	"prema/internal/ilb"
	"prema/internal/mol"
	"prema/internal/substrate"
	"prema/internal/wire"
)

type object struct {
	got int // messages received so far
}

// The objects migrate, so on a wire-wrapped or distributed machine their
// data crosses the codec; the marshal hooks are what a real application
// would install alongside Register.
func init() {
	mol.RegisterDataCodec(wire.KindUser+1, &object{},
		func(data any) []byte { return binary.BigEndian.AppendUint32(nil, uint32(data.(*object).got)) },
		func(b []byte) any {
			if len(b) != 4 {
				return &object{}
			}
			return &object{got: int(binary.BigEndian.Uint32(b))}
		})
}

// Run executes a fully program-driven workload (no load balancing policy,
// migrations decided by the application before any work messages) on m and
// returns each processor's MOL statistics and final object placement. With
// per-(src,dst) FIFO guaranteed by every backend, all counts and the
// placement are deterministic — identical across backends even though
// timings differ. On a machine that hosts only a share of the ranks, only
// the hosted ranks' slots are filled.
//
// Shape: processor 0 registers `objects` mobile objects, migrates object i
// to processor i%procs, announces readiness, and then every processor sends
// one work message to every object (routed via the home directory; origin
// notification is off so the routing is timing-independent). An object that
// has heard from every processor reports completion to processor 0, which
// stops the machine once all objects have reported.
func Run(m substrate.Machine, procs, objects int) ([]mol.Stats, [][]int, error) {
	stats := make([]mol.Stats, procs)
	placement := make([][]int, procs)
	err := run(m, procs, objects, dmcs.RelConfig{}, func(self int, l *mol.Layer) {
		var local []int
		for mp := range l.Local() {
			local = append(local, mp.Index)
		}
		sort.Ints(local)
		placement[self] = local
		stats[self] = l.Stats
	})
	return stats, placement, err
}

// RunReliable executes the same program over DMCS reliable mode, for
// machines that lose, duplicate or reorder messages. There the protocol
// counters are timing-dependent but the application-level outcome must not
// be, so it returns each processor's final residents as object index →
// messages delivered to that object.
func RunReliable(m substrate.Machine, procs, objects int, rel dmcs.RelConfig) ([]map[int]int, error) {
	heard := make([]map[int]int, procs)
	err := run(m, procs, objects, rel, func(self int, l *mol.Layer) {
		mine := make(map[int]int)
		for mp, obj := range l.Local() {
			mine[mp.Index] = obj.Data.(*object).got
		}
		heard[self] = mine
	})
	return heard, err
}

// run spawns the program on every rank of m and runs the machine; finish
// reads each processor's outcome off its MOL layer once its runtime stops.
func run(m substrate.Machine, procs, objects int, rel dmcs.RelConfig, finish func(self int, l *mol.Layer)) error {
	for p := 0; p < procs; p++ {
		m.Spawn(fmt.Sprintf("p%d", p), func(ep substrate.Endpoint) {
			opts := core.DefaultOptions(ilb.Explicit)
			opts.Mol.NotifyOrigin = false // keep routing independent of notify timing
			opts.Rel = rel
			r := core.NewRuntime(ep, opts)

			done := 0
			hDone := r.Comm().Register(func(c *dmcs.Comm, src int, data any, size int) {
				done++
				if done == objects {
					r.StopAll()
				}
			})
			hWork := r.RegisterHandler(func(l *mol.Layer, obj *mol.Object, src int, data any, size int) {
				o := obj.Data.(*object)
				o.got++
				r.Compute(2 * substrate.Millisecond)
				if o.got == procs {
					r.Comm().SendTagged(0, hDone, nil, 8, substrate.TagApp)
				}
			})
			sendAll := func() {
				for i := 0; i < objects; i++ {
					r.Message(mol.MobilePtr{Home: 0, Index: i}, hWork, nil, 8, 0.002)
				}
			}
			hReady := r.Comm().Register(func(c *dmcs.Comm, src int, data any, size int) {
				sendAll()
			})

			if ep.ID() == 0 {
				for i := 0; i < objects; i++ {
					r.Register(&object{}, 128)
				}
				for i := 0; i < objects; i++ {
					if dst := i % procs; dst != 0 {
						if err := r.Mol().Migrate(mol.MobilePtr{Home: 0, Index: i}, dst); err != nil {
							panic(err)
						}
					}
				}
				// Per-(src,dst) FIFO: the ready announcement arrives after
				// the migrations, so peers send work only once their
				// residents are installed.
				for q := 1; q < procs; q++ {
					r.Comm().SendTagged(q, hReady, nil, 8, substrate.TagApp)
				}
				sendAll()
			}
			r.Run()
			finish(ep.ID(), r.Mol())
		})
	}
	return m.Run()
}
