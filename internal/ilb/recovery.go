package ilb

import (
	"prema/internal/recov"
	"prema/internal/trace"
)

// This file is the ILB half of the crash-recovery protocol: the scheduler
// loop doubles as the failure detector's heartbeat (recovTick runs at every
// Step and every implicit-mode polling-thread wake-up), drives the periodic
// object checkpoints, and guards unit execution with the store's
// exactly-once watermarks.

// DownAware is an optional Policy extension: policies that track peers (work
// stealing partners, diffusion neighbours) implement it to drop a dead
// processor from their working state.
type DownAware interface {
	// OnProcDown fires once per live processor per crash verdict.
	OnProcDown(s *Scheduler, dead int)
}

// AttachRecov connects the scheduler to its crash-recovery handle. Call
// right after New, before the run starts.
func (s *Scheduler) AttachRecov(rp *recov.Proc) { s.rp = rp }

// OnProcDown registers a callback invoked once for every crash verdict this
// processor observes (the core runtime hangs directory repair and orphan
// re-homing here).
func (s *Scheduler) OnProcDown(fn func(recov.Down)) {
	s.onDown = append(s.onDown, fn)
}

// PeerDown reports whether processor q is under a down verdict. Policies use
// it to skip dead partners; always false when recovery is off.
func (s *Scheduler) PeerDown(q int) bool {
	if s.rp == nil {
		return false
	}
	return s.rp.IsDown(q)
}

// recovTick is one heartbeat of the recovery subsystem: renew the lease,
// surface fresh crash verdicts, take a periodic checkpoint when due, and
// retry envelopes parked during directory repair. It neither consumes
// virtual time nor touches the ledger (the store totals the modeled
// checkpoint cost), so runs without a crash stay byte-identical with
// recovery enabled.
func (s *Scheduler) recovTick() {
	if s.rp == nil {
		return
	}
	for _, d := range s.rp.Tick() {
		coord := int64(0)
		if d.Coordinator {
			coord = 1
		}
		s.tr.Instant(trace.EvSuspect, s.p.Now(), int64(d.Proc), coord, 0)
		// Runtime callbacks first (transport dead-marking, directory repair,
		// orphan re-homing), then the policy reacts to the repaired world.
		for _, fn := range s.onDown {
			fn(d)
		}
		if da, ok := s.policy.(DownAware); ok {
			da.OnProcDown(s, d.Proc)
		}
	}
	if s.rp.CheckpointDue() {
		objects, bytes := s.l.CheckpointLocal()
		s.rp.FinishCheckpoint(objects, bytes)
		s.tr.Instant(trace.EvCheckpoint, s.p.Now(), int64(objects), int64(bytes), 0)
	}
	s.l.RetryHeld()
}
