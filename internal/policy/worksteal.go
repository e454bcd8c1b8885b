// Package policy provides the dynamic load balancing strategies shipped with
// PREMA: Work Stealing (the paper's featured policy, §4), Diffusion
// (Cybenko, JPDC 1989), and Multi-list Scheduling (Wu, CMU PhD thesis 1993).
// All are asynchronous: they exchange system-tagged messages within small
// processor neighborhoods and never introduce global synchronization.
package policy

import (
	"prema/internal/dmcs"
	"prema/internal/ilb"
	"prema/internal/substrate"
)

// WSConfig tunes the work stealing policy.
type WSConfig struct {
	// MaxObjects caps how many mobile objects migrate per grant. 1 models
	// particularly coarse-grained objects; larger values migrate several
	// finer-grained objects at once (paper footnote 2).
	MaxObjects int
}

// DefaultWSConfig returns the work stealing configuration used in the
// experiments.
func DefaultWSConfig() WSConfig {
	return WSConfig{MaxObjects: 4}
}

const (
	// keepFactor is the fraction of the victim's estimated load it must
	// retain; a victim donates only down to keepFactor*load, and never below
	// one queued unit.
	keepFactor = 0.5
	// backoff is how long a requester rests after a full unsuccessful sweep
	// of potential victims.
	backoff = 250 * substrate.Millisecond
	// requestSize is the payload bytes of request and control messages.
	requestSize = 32
)

// WSStats counts work stealing activity on one processor.
type WSStats struct {
	Requests       int
	GrantsReceived int
	GrantsServed   int
	NacksReceived  int
	NacksServed    int
	ObjectsSent    int
}

// WorkStealing implements the paper's featured ILB policy: an underloaded
// processor asks a partner for work; the partner migrates mobile objects or
// answers with a negative acknowledgement, in which case the requester picks
// another partner. All traffic is system-tagged, so in implicit mode victims
// answer from the polling thread in the middle of coarse work units — the
// paper's key mechanism.
type WorkStealing struct {
	cfg WSConfig

	partner      int
	outstanding  bool
	nacksInSweep int
	backoffUntil substrate.Time

	hRequest dmcs.HandlerID
	hGrant   dmcs.HandlerID
	hNack    dmcs.HandlerID

	Stats WSStats
}

// NewWorkStealing returns a work stealing policy instance (one per
// processor).
func NewWorkStealing(cfg WSConfig) *WorkStealing {
	if cfg.MaxObjects <= 0 {
		cfg.MaxObjects = 1
	}
	return &WorkStealing{cfg: cfg}
}

type stealRequest struct {
	Load float64 // requester's estimated local load (hinted seconds)
}

// Setup implements ilb.Policy.
func (w *WorkStealing) Setup(s *ilb.Scheduler) {
	me := s.Proc().ID()
	n := s.Proc().NumPeers()
	// Initial pairing: partner with the adjacent processor (paper §4:
	// "processors are paired with a single neighbor").
	w.partner = me ^ 1
	if w.partner >= n {
		w.partner = (me + 1) % n
	}
	c := s.Comm()
	w.hRequest = c.Register(func(c *dmcs.Comm, src int, data any, size int) {
		w.serveRequest(s, src, data.(stealRequest))
	})
	w.hGrant = c.Register(func(c *dmcs.Comm, src int, data any, size int) {
		w.Stats.GrantsReceived++
		w.outstanding = false
		w.nacksInSweep = 0
	})
	w.hNack = c.Register(func(c *dmcs.Comm, src int, data any, size int) {
		w.Stats.NacksReceived++
		w.outstanding = false
		w.nacksInSweep++
		w.advancePartner(s)
		if w.nacksInSweep >= s.Proc().NumPeers()-1 {
			// Full unsuccessful sweep: the machine looks empty; rest.
			w.nacksInSweep = 0
			w.backoffUntil = s.Proc().Now() + backoff
			return
		}
		w.maybeRequest(s)
	})
}

// advancePartner picks the next steal victim after a refusal: a uniformly
// random other processor. Randomization spreads concurrent requesters over
// all potential victims instead of marching them in lock-step onto the same
// one (deterministic via the engine RNG).
func (w *WorkStealing) advancePartner(s *ilb.Scheduler) {
	n := s.Proc().NumPeers()
	if n <= 1 {
		return
	}
	rng := s.Proc().Rand()
	// Redraw on crashed peers (recovery mode only; PeerDown is always false
	// otherwise, so RNG consumption — and hence determinism — is unchanged
	// in crash-free runs).
	for tries := 0; tries < n; tries++ {
		next := rng.Intn(n - 1)
		if next >= s.Proc().ID() {
			next++
		}
		if !s.PeerDown(next) {
			w.partner = next
			return
		}
	}
}

// maybeRequest issues a steal request if none is outstanding and the policy
// is not backing off.
func (w *WorkStealing) maybeRequest(s *ilb.Scheduler) {
	if w.outstanding || s.Stopped() || s.Proc().NumPeers() <= 1 {
		return
	}
	if s.Proc().Now() < w.backoffUntil {
		return
	}
	if s.PeerDown(w.partner) {
		w.advancePartner(s)
		if s.PeerDown(w.partner) {
			return // no live victim to ask
		}
	}
	w.outstanding = true
	w.Stats.Requests++
	s.Comm().SendTagged(w.partner, w.hRequest, stealRequest{Load: s.Load()}, requestSize, substrate.TagSystem)
}

// serveRequest runs at the victim (at a poll in explicit mode; from the
// polling thread mid-unit in implicit mode).
func (w *WorkStealing) serveRequest(s *ilb.Scheduler, src int, req stealRequest) {
	donated := w.donate(s, src, req.Load)
	if donated == 0 {
		w.Stats.NacksServed++
		s.Comm().SendTagged(src, w.hNack, nil, requestSize, substrate.TagSystem)
		return
	}
	w.Stats.GrantsServed++
	w.Stats.ObjectsSent += donated
	s.Comm().SendTagged(src, w.hGrant, donated, requestSize, substrate.TagSystem)
}

// donate migrates up to MaxObjects queued objects toward equalizing the two
// loads, returning how many objects moved.
func (w *WorkStealing) donate(s *ilb.Scheduler, dst int, requesterLoad float64) int {
	candidates := s.StealableObjects()
	if len(candidates) <= 1 {
		// Keep at least one queued unit locally: a victim that gives away
		// its whole queue just swaps roles with the requester.
		return 0
	}
	myLoad := s.Load()
	target := (myLoad - requesterLoad) / 2
	keep := myLoad * keepFactor
	if target <= 0 {
		return 0
	}
	moved := 0
	var sent float64
	for _, obj := range candidates {
		if moved >= w.cfg.MaxObjects || moved >= len(candidates)-1 {
			break
		}
		wgt := s.QueuedWeight(obj)
		if myLoad-sent-wgt < keep && moved > 0 {
			break
		}
		if err := s.Mol().Migrate(obj.MP, dst); err != nil {
			continue
		}
		sent += wgt
		moved++
		if sent >= target {
			break
		}
	}
	return moved
}

// OnProcDown implements ilb.DownAware: a crashed processor can neither
// answer our outstanding steal request nor serve as a future victim.
func (w *WorkStealing) OnProcDown(s *ilb.Scheduler, dead int) {
	if w.outstanding && w.partner == dead {
		// The victim died holding our request: treat it as a refusal (without
		// an RTT sample — the response never existed) and move on.
		w.outstanding = false
		w.nacksInSweep++
	}
	if w.partner == dead {
		w.advancePartner(s)
	}
	w.maybeRequest(s)
}

// OnLowLoad implements ilb.Policy.
func (w *WorkStealing) OnLowLoad(s *ilb.Scheduler) { w.maybeRequest(s) }

// OnIdle implements ilb.Policy.
func (w *WorkStealing) OnIdle(s *ilb.Scheduler) { w.maybeRequest(s) }

// OnPoll implements ilb.Policy.
func (w *WorkStealing) OnPoll(s *ilb.Scheduler) {}
