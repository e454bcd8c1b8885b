package dist

import (
	"fmt"
	"net"
	"sync"
	"time"

	"prema/internal/substrate"
	"prema/internal/wire"
)

// CoordConfig parameterizes a session coordinator. The session deadlines
// are DefaultJoinTimeout and DefaultDrainTimeout, and frames are bounded by
// wire.DefaultMaxFrame.
type CoordConfig struct {
	// Listen is the control-plane listen address (host:port; port 0 picks a
	// free one — read it back with Addr before starting nodes).
	Listen string
	// Nodes is the number of node processes that must join.
	Nodes int
	// Procs is the total processor count, split across nodes by RangeOf.
	Procs int
}

// Coordinator owns a session's control plane: it collects node joins,
// broadcasts the roster and the start release, then referees the drain.
// It hosts no processors itself.
type Coordinator struct {
	cfg CoordConfig
	ln  net.Listener
}

// Summary is what a completed session yields on the coordinator side.
type Summary struct {
	// Makespan is the latest processor finish time across all nodes.
	Makespan substrate.Time
	// Accounts holds every processor's final ledger, indexed by rank.
	Accounts []substrate.Account
	// Reports holds each node's driver result blob, indexed by node id.
	Reports [][]byte
}

// Listen opens the coordinator's control listener. Nodes may be started
// before or after; they retry dialing until their join deadline.
func Listen(cfg CoordConfig) (*Coordinator, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("dist: coordinator needs at least 1 node, got %d", cfg.Nodes)
	}
	if cfg.Procs < cfg.Nodes {
		return nil, fmt.Errorf("dist: %d processors cannot cover %d nodes", cfg.Procs, cfg.Nodes)
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("dist: coordinator listener on %s: %w", cfg.Listen, err)
	}
	return &Coordinator{cfg: cfg, ln: ln}, nil
}

// Addr returns the bound control address (useful with port 0).
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Close releases the control listener (Run closes it itself).
func (c *Coordinator) Close() error { return c.ln.Close() }

// Run drives one full session: join → roster → ready barrier → start →
// done collection → fin broadcast. spec is the opaque scenario payload
// handed verbatim to every node. Any node missing a phase deadline aborts
// the whole session with an error; closing the control connections then
// makes the surviving node processes exit nonzero rather than hang.
func (c *Coordinator) Run(spec []byte) (*Summary, error) {
	cfg := c.cfg
	links, addrs, err := c.join()
	if err != nil {
		return nil, err
	}
	closeAll := func() {
		for _, l := range links {
			l.c.Close()
		}
	}
	fail := func(err error) (*Summary, error) {
		closeAll()
		return nil, err
	}

	// Roster: every node learns the machine shape and the spec.
	ro := &Roster{Procs: int32(cfg.Procs), Nodes: addrs, Spec: spec}
	for id, l := range links {
		if err := l.send(ro, DefaultJoinTimeout); err != nil {
			return fail(fmt.Errorf("dist: roster to node %d: %w", id, err))
		}
	}

	// Ready barrier: every node has built its mesh and spawned processors.
	for id, l := range links {
		if _, err := recvAs[*Ready](l, DefaultJoinTimeout, fmt.Sprintf("ready from node %d", id)); err != nil {
			return fail(err)
		}
	}

	// Start release: nodes stamp their wall-clock epoch on receipt, so the
	// machine-wide epoch skew is bounded by this broadcast's spread.
	for id, l := range links {
		if err := l.send(&Start{}, DefaultJoinTimeout); err != nil {
			return fail(fmt.Errorf("dist: start to node %d: %w", id, err))
		}
	}

	// Done collection: no deadline until the first node finishes (the run
	// itself is unbounded), then the drain timeout arms for the stragglers —
	// a finished machine must not hang on one wedged node.
	type doneRes struct {
		id  int
		d   *Done
		err error
	}
	doneCh := make(chan doneRes, cfg.Nodes)
	for id, l := range links {
		go func(id int, l *ctl) {
			d, err := recvAs[*Done](l, 0, fmt.Sprintf("done from node %d", id))
			doneCh <- doneRes{id, d, err}
		}(id, l)
	}
	dones := make([]*Done, cfg.Nodes)
	for got := 0; got < cfg.Nodes; got++ {
		r := <-doneCh
		if r.err != nil {
			return fail(r.err)
		}
		lo, hi := RangeOf(cfg.Procs, cfg.Nodes, r.id)
		if len(r.d.Accounts) != hi-lo {
			return fail(fmt.Errorf("dist: node %d reported %d accounts, hosts %d ranks", r.id, len(r.d.Accounts), hi-lo))
		}
		dones[r.id] = r.d
		if got == 0 {
			// Arm the drain deadline on every still-pending connection; a
			// deadline set concurrently unblocks the reader goroutines'
			// in-flight reads.
			dl := time.Now().Add(DefaultDrainTimeout)
			for id, l := range links {
				if dones[id] == nil && id != r.id {
					l.c.SetReadDeadline(dl)
				}
			}
		}
	}

	sum := &Summary{Accounts: make([]substrate.Account, cfg.Procs), Reports: make([][]byte, cfg.Nodes)}
	for id, d := range dones {
		sum.Makespan = max(sum.Makespan, d.FinishedAt)
		lo, _ := RangeOf(cfg.Procs, cfg.Nodes, id)
		copy(sum.Accounts[lo:], d.Accounts)
		sum.Reports[id] = d.Blob
	}

	// Fin broadcast: release the drain barrier.
	for id, l := range links {
		if err := l.send(&Fin{}, DefaultDrainTimeout); err != nil {
			return fail(fmt.Errorf("dist: fin to node %d: %w", id, err))
		}
	}
	closeAll()
	return sum, nil
}

// join accepts connections until every node id in [0, Nodes) is claimed by
// a Hello, all within one join deadline, and returns each member's control
// link and data address by id. Each connection's Hello is read in its own
// goroutine, so a connection that never speaks holds up no one; every
// connection without a valid Hello is closed when the join ends. A claim
// outside the roster or a second claim of one id fails the join. On return
// the listener is closed and join's goroutines have exited.
func (c *Coordinator) join() (links []*ctl, addrs []string, err error) {
	var wg sync.WaitGroup
	defer wg.Wait() // last: the listener, stop and every non-member are closed by then
	defer c.ln.Close()
	n := c.cfg.Nodes
	deadline := time.Now().Add(DefaultJoinTimeout)
	if tl, ok := c.ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}
	type hello struct {
		l   *ctl
		h   *Hello
		err error
	}
	conns := make(chan net.Conn)
	hellos := make(chan hello)
	acceptErr := make(chan error, 1)
	stop := make(chan struct{})
	defer close(stop)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := c.ln.Accept()
			if err != nil {
				acceptErr <- err
				return
			}
			select {
			case conns <- conn:
			case <-stop:
				conn.Close()
				return
			}
		}
	}()

	pending := map[*ctl]bool{} // accepted, not (yet) a member
	links, addrs = make([]*ctl, n), make([]string, n)
	end := func(err error) ([]*ctl, []string, error) {
		for l := range pending {
			l.c.Close()
		}
		if err != nil {
			for _, l := range links {
				if l != nil {
					l.c.Close()
				}
			}
			return nil, nil, err
		}
		return links, addrs, nil
	}
	for joined := 0; joined < n; {
		select {
		case conn := <-conns:
			l := newCtl(conn, wire.DefaultMaxFrame)
			pending[l] = true
			wg.Add(1)
			go func() {
				defer wg.Done()
				h, err := recvAs[*Hello](l, time.Until(deadline), "hello")
				select {
				case hellos <- hello{l, h, err}:
				case <-stop:
				}
			}()
		case j := <-hellos:
			if j.err != nil {
				delete(pending, j.l)
				j.l.c.Close() // not a member (port scan, stray connect); keep accepting
				continue
			}
			switch id := int(j.h.Node); {
			case id < 0 || id >= n:
				return end(fmt.Errorf("dist: node claimed id %d, roster has %d slots", id, n))
			case links[id] != nil:
				return end(fmt.Errorf("dist: node id %d claimed twice", id))
			default:
				delete(pending, j.l)
				links[id], addrs[id] = j.l, j.h.Addr
				joined++
			}
		case err := <-acceptErr:
			return end(fmt.Errorf("dist: %d of %d nodes joined: %w", joined, n, err))
		}
	}
	return end(nil)
}
