package policy

import (
	"prema/internal/dmcs"
	"prema/internal/ilb"
	"prema/internal/substrate"
)

// DiffConfig tunes the diffusion policy.
type DiffConfig struct {
	// Period between load-information exchanges with the neighborhood.
	Period substrate.Time
	// MinTransfer is the smallest load difference (hinted seconds) worth a
	// migration; differences below it are left to even out naturally.
	MinTransfer float64
	// MaxObjects caps migrations per neighbor per exchange.
	MaxObjects int
}

// DefaultDiffConfig returns the configuration the prema-diffusion system
// starts from.
func DefaultDiffConfig() DiffConfig {
	return DiffConfig{
		Period:      100 * substrate.Millisecond,
		MinTransfer: 1.0,
		MaxObjects:  8,
	}
}

// DiffStats counts diffusion activity on one processor.
type DiffStats struct {
	Exchanges   int
	ObjectsSent int
}

// Diffusion implements Cybenko-style first-order diffusive load balancing
// within a fixed neighborhood (hypercube when the processor count is a power
// of two, ring otherwise). Each period a processor advertises its load to
// its neighbors; on hearing a lighter neighbor it pushes alpha times the
// difference. Entirely asynchronous: no barriers, only neighborhood
// messages, matching the paper's description of PREMA's policy suite.
type Diffusion struct {
	cfg       DiffConfig
	neighbors []int
	// alpha is the diffusion coefficient: the fraction of a pairwise load
	// difference pushed per exchange, Cybenko's stable choice 1/(d+1) for d
	// neighbors.
	alpha float64
	next  substrate.Time
	hLoad dmcs.HandlerID
	Stats DiffStats
}

// NewDiffusion returns a diffusion policy instance (one per processor).
func NewDiffusion(cfg DiffConfig) *Diffusion {
	if cfg.Period <= 0 {
		cfg.Period = DefaultDiffConfig().Period
	}
	if cfg.MaxObjects <= 0 {
		cfg.MaxObjects = 1
	}
	return &Diffusion{cfg: cfg}
}

// Setup implements ilb.Policy.
func (d *Diffusion) Setup(s *ilb.Scheduler) {
	me := s.Proc().ID()
	n := s.Proc().NumPeers()
	d.neighbors = neighborhood(me, n)
	d.alpha = 1.0 / float64(len(d.neighbors)+1)
	d.hLoad = s.Comm().Register(func(c *dmcs.Comm, src int, data any, size int) {
		d.onLoadInfo(s, src, data.(float64))
	})
}

// neighborhood returns hypercube neighbors when n is a power of two (and
// n > 1), else ring neighbors.
func neighborhood(me, n int) []int {
	if n <= 1 {
		return nil
	}
	if n&(n-1) == 0 {
		var nb []int
		for bit := 1; bit < n; bit <<= 1 {
			nb = append(nb, me^bit)
		}
		return nb
	}
	left, right := (me+n-1)%n, (me+1)%n
	if left == right {
		return []int{left}
	}
	return []int{left, right}
}

func (d *Diffusion) broadcast(s *ilb.Scheduler) {
	d.Stats.Exchanges++
	for _, nb := range d.neighbors {
		s.Comm().SendTagged(nb, d.hLoad, s.Load(), 16, substrate.TagSystem)
	}
}

// onLoadInfo reacts to a neighbor's advertised load by pushing surplus.
func (d *Diffusion) onLoadInfo(s *ilb.Scheduler, src int, theirLoad float64) {
	diff := s.Load() - theirLoad
	if diff <= d.cfg.MinTransfer {
		return
	}
	want := d.alpha * diff
	moved, sent := 0, 0.0
	for _, obj := range s.StealableObjects() {
		if moved >= d.cfg.MaxObjects || sent >= want {
			break
		}
		wgt := s.QueuedWeight(obj)
		if wgt > want-sent+d.cfg.MinTransfer && moved > 0 {
			continue
		}
		if err := s.Mol().Migrate(obj.MP, src); err != nil {
			continue
		}
		sent += wgt
		moved++
	}
	d.Stats.ObjectsSent += moved
}

// OnPoll implements ilb.Policy: drive the periodic exchange.
func (d *Diffusion) OnPoll(s *ilb.Scheduler) {
	if now := s.Proc().Now(); now >= d.next {
		d.next = now + d.cfg.Period
		d.broadcast(s)
	}
}

// OnLowLoad implements ilb.Policy: advertise hunger immediately rather than
// waiting out the period.
func (d *Diffusion) OnLowLoad(s *ilb.Scheduler) {
	if now := s.Proc().Now(); now >= d.next-d.cfg.Period/2 {
		d.next = now + d.cfg.Period
		d.broadcast(s)
	}
}

// OnIdle implements ilb.Policy.
func (d *Diffusion) OnIdle(s *ilb.Scheduler) { d.OnLowLoad(s) }
