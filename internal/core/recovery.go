package core

import (
	"prema/internal/recov"
	"prema/internal/substrate"
)

// This file is the runtime's crash-recovery coordinator: it reacts to
// failure-detector verdicts surfaced by the ILB scheduler's heartbeat
// (handleDown) and re-introduces rejoined processors to their peers
// (AnnounceRejoin). The mechanics live below — checkpoints and verdicts in
// internal/recov, directory repair and replay in internal/mol, dead-peer
// transport handling in internal/dmcs.

// handleDown runs once per crash verdict on every live processor: the
// transport stops waiting on the dead peer and the directory drops cached
// pointers to it. The verdict's coordinator additionally re-homes the dead
// processor's orphaned objects round-robin over the survivors and replays
// every logged envelope not known executed.
func (r *Runtime) handleDown(d recov.Down) {
	r.c.MarkDead(d.Proc)
	r.l.PeerDown(d.Proc)
	if !d.Coordinator {
		return
	}
	plan := r.rp.RecoveryPlan(d.Proc)
	if len(plan) == 0 {
		return
	}
	surv := r.rp.Store().Survivors()
	next := 0
	for i := range plan {
		ck := &plan[i]
		host := ck.Loc
		if ck.Orphan {
			host = surv[next%len(surv)]
			next++
			r.rp.Assign(ck.ID, host)
		}
		r.l.Restore(ck, host)
	}
}

// AnnounceRejoin introduces a freshly re-spawned incarnation to the machine.
// The second incarnation's body calls it after handler registration and
// before Run: live peers get a hello (their transport resumes sequenced
// delivery to us), while peers that died during our downtime are marked dead
// locally so we never wait on them.
func (r *Runtime) AnnounceRejoin() {
	if r.rp == nil {
		return
	}
	n := r.p.NumPeers()
	for q := 0; q < n; q++ {
		if q == r.p.ID() {
			continue
		}
		if r.rp.IsDown(q) {
			r.c.MarkDead(q)
			continue
		}
		r.c.SendTagged(q, r.hHello, nil, 8, substrate.TagSystem)
	}
}
