// Package rtm is the real-time machine: a substrate backend that executes
// the PREMA stack with genuine parallelism. Each processor is a goroutine,
// the network is one buffered channel per processor with per-(src,dst) FIFO
// delivery and a configurable injected latency/bandwidth model — the sender
// stamps each message's arrival time and the receiver releases it then —
// Compute sleeps through scaled wall-clock, and time accounting uses the
// host's monotonic clock, so a timer's overshoot is charged as time taken.
// A polled computation (Endpoint.AdvancePolled) is one such wait per quiet
// stretch, up to the first poll that would find a message or a deadline,
// not one per poll interval; its skipped polls are charged at their
// nominal cost.
//
// Where the discrete-event simulator (internal/sim) trades parallelism for
// byte-identical determinism, rtm trades determinism for real concurrency:
// runs race the host scheduler, so timings vary, but the PREMA protocol
// invariants (per-pair FIFO, in-order mobile-object delivery, migration
// transparency) must and do hold — the cross-backend conformance test and
// the race detector are the guards.
//
// Synchronization model: every endpoint's state is confined to its own
// goroutine; the only cross-goroutine edges are channel handoffs of *Msg
// values. A sender must not touch a message (or payload objects whose
// ownership it transfers, such as migrating mobile objects) after Send —
// the same discipline the shared-memory simulator relies on, here enforced
// by the race detector.
//
// A machine may host only a share of the ranks (NewShare): the driver still
// spawns every rank, a message for a rank outside the share leaves through
// one remote-link function, and Inject is the way back in. internal/dist
// puts sockets and a session around a share; this package knows neither
// codecs nor connections, so every wall-clock run fills one ledger.
package rtm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"sync"
	"time"

	"prema/internal/substrate"
)

var errKilled = errors.New("rtm: processor killed")

// Config parameterizes a Machine.
type Config struct {
	// TimeScale is wall-clock seconds burned per virtual second. 1.0 runs
	// in real time; the default 1e-3 compresses a 1000-virtual-second
	// benchmark into about one wall second. Every wait is a timer sleep
	// whose overshoot is charged as measured time: an idle Go process wakes
	// for timers with millisecond granularity, so a virtual duration whose
	// scaled wall equivalent is near a millisecond loses fidelity — lower
	// TimeScale trades accuracy for speed.
	TimeScale float64
	// Network is the injected cost model, in virtual time: the arrival
	// stamp each send gets, and the per-message CPU occupancies burned on
	// the endpoints via Advance. nil runs the paper's Fast Ethernet
	// (substrate.DefaultNetwork), as the simulator does; any other value is
	// copied at construction and used as written, so &substrate.Network{}
	// is free.
	Network *substrate.Network
	// Seed seeds the per-endpoint random sources (Seed+ID each).
	Seed int64
}

// ChanCap is the capacity of every delivery queue: endpoint inbox feeds and
// the per-peer queues a remote link puts behind a share. A sender blocks only
// while its destination's queue is full — the destination has not looked at
// its inbox for ChanCap messages — so it sits above the largest plausible
// in-flight burst.
const ChanCap = 4096

// DefaultConfig returns the paper's Fast Ethernet network at a 1e-3 time
// scale.
func DefaultConfig() Config { return Config{TimeScale: 1e-3} }

// Machine is a real-concurrency execution substrate. Create one with New
// (or NewShare), add processors with Spawn, then call Run; Run returns once
// every hosted processor body has finished.
type Machine struct {
	cfg    Config
	lo, hi int                       // hosted rank range
	remote func(*substrate.Msg) bool // link to the ranks outside it; nil for a whole machine
	eps    []*Endpoint               // by rank, hosted or not

	start   time.Time
	stop    chan struct{}
	stopped sync.Once
	ran     bool

	mu  sync.Mutex
	err error
}

// New returns a machine that hosts every rank.
func New(cfg Config) *Machine { return NewShare(cfg, 0, math.MaxInt, nil) }

// NewShare returns a machine that hosts ranks [lo, hi) of a larger one. A
// message for any other rank is handed to remote on the sender's goroutine,
// stamped and already charged its send CPU; what the hop costs is the link's
// business. remote may block while its queue is full but must return once
// the machine has stopped (Stopped), and reports false when it did not take
// the message because a machine stopped: the sender dies if that machine is
// its own, else the message was a dead letter. Another share's Inject is
// such a link.
func NewShare(cfg Config, lo, hi int, remote func(*substrate.Msg) bool) *Machine {
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = DefaultConfig().TimeScale
	}
	net := substrate.DefaultNetwork()
	if cfg.Network != nil {
		net = *cfg.Network
	}
	cfg.Network = &net
	return &Machine{cfg: cfg, lo: lo, hi: hi, remote: remote, stop: make(chan struct{})}
}

// Spawn registers the body of the next rank (rank = spawn order,
// machine-wide). All Spawn calls must precede Run. A share's driver spawns
// every rank exactly as on a whole machine; bodies of ranks hosted elsewhere
// are dropped, and their ledgers read as zero.
func (m *Machine) Spawn(name string, body func(substrate.Endpoint)) {
	if m.ran {
		panic("rtm: Spawn after Run")
	}
	e := &Endpoint{m: m, id: len(m.eps), name: name}
	if m.hosts(e.id) {
		e.body = body
		e.in = make(chan *substrate.Msg, ChanCap)
		e.done = make(chan struct{})
		e.rng = rand.New(rand.NewSource(m.cfg.Seed + int64(e.id)))
	}
	m.eps = append(m.eps, e)
}

func (m *Machine) hosts(rank int) bool { return rank >= m.lo && rank < m.hi }

// NumProcs implements substrate.Machine: the machine-wide processor count.
func (m *Machine) NumProcs() int { return len(m.eps) }

// Account implements substrate.Machine. Only read it after Run returns: the
// ledger is owned by the processor's goroutine while the machine runs.
func (m *Machine) Account(i int) *substrate.Account { return &m.eps[i].acct }

// Now returns virtual time elapsed since the epoch.
func (m *Machine) Now() substrate.Time {
	return substrate.Time(float64(time.Since(m.start)) / m.cfg.TimeScale)
}

// SetEpoch fixes the instant virtual time counts from; without it the epoch
// is the moment Run starts. Shares of one machine agree on an epoch so their
// clocks are comparable, and must set it before anything can Inject — a
// peer released a hair earlier may deliver before the local bodies launch.
func (m *Machine) SetEpoch(t time.Time) { m.start = t }

// Stopped returns a channel that is closed once the machine has stopped:
// every hosted body returned, Fail was called, or a processor panicked.
func (m *Machine) Stopped() <-chan struct{} { return m.stop }

// Inject delivers a message that reached this share over a remote link: it
// stamps the arrival with this machine's clock and feeds the inbox of
// msg.Dst, which must be a hosted rank, blocking while that inbox is full.
// A message for a rank whose body has returned is a dead letter, dropped at
// once. It reports false — the message is dropped — once the machine has
// stopped.
func (m *Machine) Inject(msg *substrate.Msg) bool {
	select {
	case <-m.stop:
		return false
	default:
	}
	msg.ArrivedAt = m.Now()
	dst := m.eps[msg.Dst]
	select {
	case dst.in <- msg:
	case <-dst.done:
	case <-m.stop:
		return false
	}
	return true
}

// Makespan returns the latest hosted processor finish time (after Run).
func (m *Machine) Makespan() substrate.Time {
	var t substrate.Time
	for _, e := range m.eps {
		if e.finishedAt > t {
			t = e.finishedAt
		}
	}
	return t
}

// Fail tears the machine down early: processors blocked in (or next
// entering) a substrate call are killed, as in the simulator's teardown.
// The first non-nil err is what Run returns.
func (m *Machine) Fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	m.mu.Unlock()
	m.stopped.Do(func() { close(m.stop) })
}

// Err returns the first failure recorded so far, a processor panic or Fail.
func (m *Machine) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// Run launches every hosted processor goroutine, waits for all bodies to
// finish, and returns the first processor panic (if any) as an error.
func (m *Machine) Run() error {
	if m.ran {
		panic("rtm: Run called twice")
	}
	m.ran = true
	hosted := m.eps[min(m.lo, len(m.eps)):min(m.hi, len(m.eps))]
	if m.start.IsZero() {
		m.start = time.Now()
	}

	var wg sync.WaitGroup
	for _, e := range hosted {
		e.fifo = make([]substrate.Time, len(m.eps))
		wg.Add(1)
		go func(e *Endpoint) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil && r != errKilled {
					m.Fail(fmt.Errorf("rtm: processor %q panicked: %v\n%s", e.name, r, debug.Stack()))
				}
				e.finishedAt = m.Now()
				close(e.done)
			}()
			e.body(e)
		}(e)
	}
	wg.Wait()
	m.stopped.Do(func() { close(m.stop) }) // from here on Inject discards
	return m.Err()
}

// wall converts a virtual duration to a wall-clock duration.
func (m *Machine) wall(v substrate.Time) time.Duration {
	return time.Duration(float64(v) * m.cfg.TimeScale)
}
