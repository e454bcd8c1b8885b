package mol

import (
	"sort"

	"prema/internal/recov"
	"prema/internal/substrate"
	"prema/internal/trace"
)

// This file is the MOL half of the crash-recovery protocol (internal/recov
// holds the stable store, internal/core the coordinator wiring):
//
//   - every registered/migrated object keeps its manifest entry and
//     checkpoint fresh in the store (hooks in mol.go);
//   - every sent envelope is logged at its origin until its work unit is
//     known executed (Message hook);
//   - after a crash verdict, bestGuess routes around the dead processor via
//     the manifest, forward() parks chain-dead-end envelopes instead of
//     dropping them, and the coordinator calls Restore for each recovery
//     plan entry: orphaned objects re-install from their checkpoints and
//     pending envelopes are re-sent. The per-origin sequence discipline
//     already built into arrive() absorbs every duplicate this creates, so
//     delivery stays exactly-once per (object, origin).

// oid restates a mobile pointer as the recovery store's object ID.
func oid(mp MobilePtr) recov.ObjID { return recov.ObjID{Home: mp.Home, Index: mp.Index} }

// AttachRecov connects the layer to a crash-recovery store. Call right after
// New, before objects are registered or traffic flows.
func (l *Layer) AttachRecov(rp *recov.Proc) { l.rp = rp }

// PeerDown reacts to a failure-detector verdict: location-cache entries
// pointing at the dead processor are purged, so bestGuess stops routing
// through the black hole and consults the recovery manifest instead.
func (l *Layer) PeerDown(dead int) {
	for mp, loc := range l.lastKnown {
		if loc == dead {
			delete(l.lastKnown, mp)
		}
	}
}

// CheckpointLocal snapshots every locally resident object into the recovery
// store, in deterministic (home, index) order, returning the object count
// and total modeled bytes. The caller (the ILB scheduler's recovery tick)
// records the modeled cost in the store; nothing here advances virtual time.
func (l *Layer) CheckpointLocal() (objects, bytes int) {
	if l.rp == nil {
		return 0, 0
	}
	mps := make([]MobilePtr, 0, len(l.objects))
	for mp := range l.objects {
		mps = append(mps, mp)
	}
	sort.Slice(mps, func(i, j int) bool {
		if mps[i].Home != mps[j].Home {
			return mps[i].Home < mps[j].Home
		}
		return mps[i].Index < mps[j].Index
	})
	for _, mp := range mps {
		obj := l.objects[mp]
		l.rp.ObjectHome(oid(mp), obj.Data, obj.Size, obj.Weight)
		objects++
		bytes += obj.Size
	}
	return objects, bytes
}

// Restore executes one recovery-plan entry on the coordinator: re-install
// the object at host if it was orphaned, then re-send every logged envelope
// not known executed. Replays follow the restore on the same system-tagged
// stream, so the object is installed before its replayed traffic arrives;
// per-origin sequence numbers make the whole operation idempotent.
func (l *Layer) Restore(ck *recov.Checkpoint, host int) {
	me := l.Proc().ID()
	mp := MobilePtr{Home: ck.ID.Home, Index: ck.ID.Index}
	if ck.Orphan {
		if host == me {
			l.installRecovered(ck)
		} else {
			l.c.SendTagged(host, l.hRestore, ck, ck.Size+migrateFixed, substrate.TagSystem)
			if _, resident := l.objects[mp]; !resident {
				l.lastKnown[mp] = host
			}
		}
	}
	for _, re := range ck.Replay {
		env, ok := re.Env.(*Envelope)
		if !ok {
			continue
		}
		// Replay a copy: the original may still be referenced by an in-flight
		// retransmission buffer, and a fresh hop count keeps the forwarding
		// loop guard honest across repeated recoveries.
		cp := *env
		cp.Hops = 0
		l.tr.Instant(trace.EvReplay, l.Proc().Now(), trace.ObjKey(mp.Home, mp.Index), int64(re.Origin), int64(re.Seq))
		if host == me {
			l.arrive(&cp)
		} else {
			l.c.SendTagged(host, l.hEnvelope, &cp, cp.Size+envelopeHeader, substrate.TagSystem)
		}
	}
}

// installRecovered installs an orphaned object from its checkpoint, with the
// per-origin reorder expectations reset to the execution watermarks — so
// replayed envelopes that already ran are discarded as stale while everything
// genuinely lost runs in order. Idempotent: if the object is already resident
// (two verdicts raced across a coordinator crash), the copy is dropped.
func (l *Layer) installRecovered(ck *recov.Checkpoint) {
	mp := MobilePtr{Home: ck.ID.Home, Index: ck.ID.Index}
	if _, resident := l.objects[mp]; resident {
		l.Stats.MigrationsDup++
		return
	}
	l.Stats.Recovered++
	l.tr.Instant(trace.EvRepair, l.Proc().Now(), trace.ObjKey(mp.Home, mp.Index), int64(ck.Loc), int64(ck.Size))
	expect := make(map[int]uint64, len(ck.Done))
	for o, s := range ck.Done {
		expect[o] = s
	}
	obj := &Object{
		MP:     mp,
		Data:   ck.Data,
		Size:   ck.Size,
		Weight: ck.Weight,
		expect: expect,
		hold:   make(map[holdKey]*Envelope),
	}
	l.install(obj)
	if l.rp != nil {
		l.rp.ObjectHome(oid(mp), obj.Data, obj.Size, obj.Weight)
	}
	if mp.Home != l.Proc().ID() {
		l.c.SendTagged(mp.Home, l.hLocation, &locationUpdate{mp, l.Proc().ID()}, 16, substrate.TagSystem)
	}
	l.drainRestoreHold(mp)
}

// RetryHeld re-runs envelopes parked by forward() once directory repair may
// have re-resolved their objects. Called from the scheduler's recovery tick;
// envelopes that still resolve nowhere live simply park again.
func (l *Layer) RetryHeld() {
	if l.rp == nil || len(l.restoreHold) == 0 {
		return
	}
	held := l.restoreHold
	l.restoreHold = nil
	for _, env := range held {
		l.arrive(env)
	}
}

// drainRestoreHold re-runs parked envelopes addressed to mp, which just
// became resident here.
func (l *Layer) drainRestoreHold(mp MobilePtr) {
	if len(l.restoreHold) == 0 {
		return
	}
	keep := l.restoreHold[:0]
	var redeliver []*Envelope
	for _, env := range l.restoreHold {
		if env.MP == mp {
			redeliver = append(redeliver, env)
		} else {
			keep = append(keep, env)
		}
	}
	l.restoreHold = keep
	for _, env := range redeliver {
		l.arrive(env)
	}
}
