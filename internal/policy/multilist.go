package policy

import (
	"sort"

	"prema/internal/dmcs"
	"prema/internal/ilb"
	"prema/internal/mol"
	"prema/internal/substrate"
)

// MLConfig tunes the multi-list scheduling policy.
type MLConfig struct {
	// HighMark: a processor with more hinted load than this advertises its
	// surplus on a bulletin list.
	HighMark float64
	// LowMark: a processor with less hinted load than this fetches from the
	// lists.
	LowMark float64
}

// DefaultMLConfig returns the configuration the prema-multilist system
// starts from.
func DefaultMLConfig() MLConfig {
	return MLConfig{HighMark: 30, LowMark: 10}
}

// MLStats counts multi-list activity on one processor.
type MLStats struct {
	AdsPosted     int
	Fetches       int
	ClaimsServed  int
	ClaimsExpired int
	ObjectsSent   int
}

// MultiList implements a distributed variant of Wu's multi-list scheduling
// (CMU, 1993): every processor owns one of P bulletin lists. Overloaded
// processors post advertisements for their heaviest queued objects to a
// deterministic-random list; underloaded processors fetch from lists (their
// own first), and the list owner redirects the claim to the advertiser,
// which migrates the object if it is still queued. The global lists give
// better machine-wide balance than pairwise stealing at the cost of an extra
// indirection — the trade-off Wu's thesis studies. Advertisements never
// expire: staleness is caught at claim time, and expiry would starve
// consumers that go hungry long after producers advertised.
type MultiList struct {
	cfg MLConfig

	ads        []ad // the list this processor owns
	advertised map[mol.MobilePtr]bool
	fetchPos   int
	fetching   bool

	hPost  dmcs.HandlerID
	hFetch dmcs.HandlerID
	hClaim dmcs.HandlerID
	hReply dmcs.HandlerID

	Stats MLStats
}

type ad struct {
	mp     mol.MobilePtr
	host   int
	weight float64
}

// NewMultiList returns a multi-list policy instance (one per processor).
func NewMultiList(cfg MLConfig) *MultiList {
	return &MultiList{cfg: cfg, advertised: make(map[mol.MobilePtr]bool)}
}

type claimMsg struct {
	mp      mol.MobilePtr
	claimer int
}

// Setup implements ilb.Policy.
func (m *MultiList) Setup(s *ilb.Scheduler) {
	c := s.Comm()
	m.hPost = c.Register(func(c *dmcs.Comm, src int, data any, size int) {
		m.ads = append(m.ads, data.(ad))
	})
	m.hFetch = c.Register(func(c *dmcs.Comm, src int, data any, size int) {
		m.serveFetch(s, src)
	})
	m.hClaim = c.Register(func(c *dmcs.Comm, src int, data any, size int) {
		m.serveClaim(s, data.(claimMsg))
	})
	m.hReply = c.Register(func(c *dmcs.Comm, src int, data any, size int) {
		// granted reports whether an object is on its way.
		if granted := data.(bool); !granted {
			m.fetching = false
			m.maybeFetch(s)
		} else {
			m.fetching = false
		}
	})
}

// post advertises surplus objects beyond HighMark.
func (m *MultiList) post(s *ilb.Scheduler) {
	surplus := s.Load() - m.cfg.HighMark
	if surplus <= 0 {
		return
	}
	objs := s.StealableObjects()
	sort.SliceStable(objs, func(i, j int) bool {
		return s.QueuedWeight(objs[i]) > s.QueuedWeight(objs[j])
	})
	n := s.Proc().NumPeers()
	rng := s.Proc().Rand()
	for _, obj := range objs {
		if surplus <= 0 {
			break
		}
		if m.advertised[obj.MP] {
			continue
		}
		w := s.QueuedWeight(obj)
		a := ad{mp: obj.MP, host: s.Proc().ID(), weight: w}
		list := rng.Intn(n)
		m.advertised[obj.MP] = true
		m.Stats.AdsPosted++
		if list == s.Proc().ID() {
			m.ads = append(m.ads, a)
		} else {
			s.Comm().SendTagged(list, m.hPost, a, 48, substrate.TagSystem)
		}
		surplus -= w
	}
}

// maybeFetch asks a list for work when below LowMark.
func (m *MultiList) maybeFetch(s *ilb.Scheduler) {
	if m.fetching || s.Stopped() || s.Load() >= m.cfg.LowMark {
		return
	}
	n := s.Proc().NumPeers()
	if n <= 1 {
		return
	}
	m.fetching = true
	m.Stats.Fetches++
	// Own list first, then sweep round-robin.
	list := (s.Proc().ID() + m.fetchPos) % n
	m.fetchPos++
	if list == s.Proc().ID() {
		m.serveFetch(s, s.Proc().ID())
		return
	}
	s.Comm().SendTagged(list, m.hFetch, nil, 16, substrate.TagSystem)
}

// serveFetch (at a list owner) hands the heaviest advertisement to the
// claimer by redirecting to the advertiser.
func (m *MultiList) serveFetch(s *ilb.Scheduler, claimer int) {
	best, bestIdx := ad{}, -1
	for i, a := range m.ads {
		if bestIdx < 0 || a.weight > best.weight {
			best, bestIdx = a, i
		}
	}
	if bestIdx < 0 {
		m.reply(s, claimer, false)
		return
	}
	m.ads = append(m.ads[:bestIdx], m.ads[bestIdx+1:]...)
	claim := claimMsg{mp: best.mp, claimer: claimer}
	if best.host == s.Proc().ID() {
		m.serveClaim(s, claim)
		return
	}
	s.Comm().SendTagged(best.host, m.hClaim, claim, 32, substrate.TagSystem)
}

// serveClaim (at the advertiser) migrates the object if it is still queued.
func (m *MultiList) serveClaim(s *ilb.Scheduler, cl claimMsg) {
	delete(m.advertised, cl.mp)
	stillQueued := false
	for _, obj := range s.StealableObjects() {
		if obj.MP == cl.mp {
			stillQueued = true
			break
		}
	}
	if !stillQueued || cl.claimer == s.Proc().ID() {
		m.Stats.ClaimsExpired++
		m.reply(s, cl.claimer, false)
		return
	}
	if err := s.Mol().Migrate(cl.mp, cl.claimer); err != nil {
		m.Stats.ClaimsExpired++
		m.reply(s, cl.claimer, false)
		return
	}
	m.Stats.ClaimsServed++
	m.Stats.ObjectsSent++
	m.reply(s, cl.claimer, true)
}

func (m *MultiList) reply(s *ilb.Scheduler, to int, granted bool) {
	if to == s.Proc().ID() {
		m.fetching = false
		return
	}
	s.Comm().SendTagged(to, m.hReply, granted, 16, substrate.TagSystem)
}

// OnPoll implements ilb.Policy.
func (m *MultiList) OnPoll(s *ilb.Scheduler) { m.post(s) }

// OnLowLoad implements ilb.Policy.
func (m *MultiList) OnLowLoad(s *ilb.Scheduler) { m.maybeFetch(s) }

// OnIdle implements ilb.Policy.
func (m *MultiList) OnIdle(s *ilb.Scheduler) { m.maybeFetch(s) }
