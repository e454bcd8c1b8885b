// Package coll provides the two collective operations — barrier and
// all-gather — that the loosely synchronous phases of the paper's
// future-work direction (§6, end-to-end applications mixing asynchronous and
// loosely synchronous phases) need, built on the DMCS active-message layer.
// PREMA itself never needs them (its whole point is avoiding global
// synchronization); this repository's hybrid experiment is their one user.
//
// Both are root-gathered, linear-fan implementations (gather to processor
// 0, scatter back): simple, deterministic, and a fair model of small-cluster
// MPI collectives over Ethernet. Every processor must construct its Coll in
// the same SPMD order and call the same sequence of collectives; each call
// site blocks until the collective completes, with blocked time charged to
// substrate.CatSync. The payloads have no wire codec, so a collective sent
// through wire.Wrap panics naming its type.
package coll

import (
	"fmt"

	"prema/internal/dmcs"
	"prema/internal/substrate"
)

// Coll is a processor-local endpoint for collective operations.
type Coll struct {
	c  *dmcs.Comm
	n  int
	me int

	seq      int                 // collective sequence number
	gathered map[int]map[int]any // root: contributions keyed by seq then proc
	released bool                // non-root: result arrived
	result   any                 // the combined result
	hGather  dmcs.HandlerID      // contribution to root
	hRelease dmcs.HandlerID      // root -> all: result
}

type contribution struct {
	Seq  int
	Proc int
	Data any
}

type release struct {
	Seq  int
	Data any
}

// New builds a collective endpoint; SPMD construction order applies.
func New(c *dmcs.Comm) *Coll {
	cl := &Coll{c: c, n: c.Proc().NumPeers(), me: c.Proc().ID(),
		gathered: make(map[int]map[int]any)}
	cl.hGather = c.Register(func(cc *dmcs.Comm, src int, data any, size int) {
		ct := data.(contribution)
		// A fast processor may already be contributing to the next
		// collective while the root still works between two of its own
		// calls — buffer by sequence number. Contributions for an already
		// completed collective would indicate a protocol bug.
		if ct.Seq <= cl.seq && cl.me == 0 && cl.gathered[ct.Seq] == nil {
			panic(fmt.Sprintf("coll: proc %d got stale contribution for collective %d during %d",
				cl.me, ct.Seq, cl.seq))
		}
		if cl.gathered[ct.Seq] == nil {
			cl.gathered[ct.Seq] = make(map[int]any)
		}
		cl.gathered[ct.Seq][ct.Proc] = ct.Data
	})
	cl.hRelease = c.Register(func(cc *dmcs.Comm, src int, data any, size int) {
		r := data.(release)
		if r.Seq != cl.seq {
			panic(fmt.Sprintf("coll: proc %d got release for collective %d during %d",
				cl.me, r.Seq, cl.seq))
		}
		cl.released = true
		cl.result = r.Data
	})
	return cl
}

// run executes one collective: contribute data (size bytes), the root
// combines all contributions with combine, and everyone returns the
// combined result. Waiting time lands in substrate.CatSync.
func (cl *Coll) run(data any, size int, combine func(map[int]any) (any, int)) any {
	cl.seq++
	if cl.me == 0 {
		if cl.gathered[cl.seq] == nil {
			cl.gathered[cl.seq] = make(map[int]any)
		}
		cl.gathered[cl.seq][0] = data
		for len(cl.gathered[cl.seq]) < cl.n {
			cl.c.Proc().WaitMsg(substrate.CatSync)
			cl.c.Poll()
		}
		out, outSize := combine(cl.gathered[cl.seq])
		delete(cl.gathered, cl.seq)
		for q := 1; q < cl.n; q++ {
			cl.c.SendTagged(q, cl.hRelease, release{Seq: cl.seq, Data: out}, outSize, substrate.TagSystem)
		}
		return out
	}
	cl.released = false
	cl.c.SendTagged(0, cl.hGather, contribution{Seq: cl.seq, Proc: cl.me, Data: data}, size+16, substrate.TagSystem)
	for !cl.released {
		cl.c.Proc().WaitMsg(substrate.CatSync)
		cl.c.Poll()
	}
	return cl.result
}

// Barrier blocks until every processor has entered it.
func (cl *Coll) Barrier() {
	cl.run(nil, 8, func(map[int]any) (any, int) { return nil, 8 })
}

// AllGather returns every processor's contribution, indexed by processor.
func (cl *Coll) AllGather(data any, size int) []any {
	out := cl.run(data, size, func(g map[int]any) (any, int) {
		all := make([]any, cl.n)
		for p, d := range g {
			all[p] = d
		}
		return all, size * cl.n
	})
	return out.([]any)
}
