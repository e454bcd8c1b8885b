package dist

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"prema/internal/substrate"
	"prema/internal/wire"
)

// Default session deadlines. Join covers everything up to the start
// barrier (dial retries, roster, mesh); drain covers everything after the
// last local processor finishes (Done → Fin).
const (
	DefaultJoinTimeout  = 30 * time.Second
	DefaultDrainTimeout = 30 * time.Second
)

// NodeConfig parameterizes one node process's session with a coordinator.
type NodeConfig struct {
	// Coord is the coordinator's control address (host:port). Join dials it
	// with retries until JoinTimeout, so nodes may start before the
	// coordinator is listening.
	Coord string
	// Listen is the data-plane listen address for peer connections
	// (default 127.0.0.1:0 — any free localhost port). On a real network
	// this must name an interface the other nodes can reach.
	Listen string
	// Node is the node id to claim, in [0, nodes): it fixes the rank range
	// the node hosts.
	Node int
	// JoinTimeout bounds the join handshake (0 = DefaultJoinTimeout).
	JoinTimeout time.Duration
	// DrainTimeout bounds the shutdown handshake (0 = DefaultDrainTimeout).
	DrainTimeout time.Duration
	// MaxFrame is the largest frame accepted from the wire
	// (0 = wire.DefaultMaxFrame).
	MaxFrame int
}

func (c NodeConfig) withDefaults() NodeConfig {
	if c.Listen == "" {
		c.Listen = "127.0.0.1:0"
	}
	if c.JoinTimeout <= 0 {
		c.JoinTimeout = DefaultJoinTimeout
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = DefaultDrainTimeout
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = wire.DefaultMaxFrame
	}
	return c
}

// peer is one established data link: the connection plus the buffered
// reader that already consumed the link handshake.
type peer struct {
	c net.Conn
	r *bufio.Reader
}

// Node is one joined member of a distributed machine: the coordinator
// control link, the full peer mesh, and the roster (processor→node map)
// every member agreed on. Create one with Join, build a Machine with
// NewMachine and Run it, send the driver's result blob with Finish, then
// Close.
type Node struct {
	cfg      NodeConfig
	id       int
	nodes    int
	procs    int
	spec     []byte
	coord    *ctl
	peers    []*peer  // by node id; nil for self
	procNode []int    // global rank → hosting node
	m        *Machine // built by NewMachine; Finish reports its ledger

	closeOnce sync.Once
}

// RangeOf returns the contiguous rank range [lo, hi) that a node hosts
// under the canonical block assignment: node i of n gets ranks
// [i*procs/n, (i+1)*procs/n). Coordinator and nodes compute it from the
// same roster, so the processor→node map is identical everywhere.
func RangeOf(procs, nodes, node int) (lo, hi int) {
	return node * procs / nodes, (node + 1) * procs / nodes
}

// Join dials the coordinator, claims cfg.Node with the hello → roster
// handshake, and builds the full peer mesh (dialing lower-numbered nodes,
// accepting from higher-numbered ones). On return every member holds an
// identical roster and a connection to every other member.
func Join(cfg NodeConfig) (*Node, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("dist: data listener on %s: %w", cfg.Listen, err)
	}
	deadline := time.Now().Add(cfg.JoinTimeout)

	// The coordinator may not be listening yet (attach mode starts the
	// node daemons first); retry until the join deadline.
	var conn net.Conn
	for {
		conn, err = net.DialTimeout("tcp", cfg.Coord, time.Second)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			ln.Close()
			return nil, fmt.Errorf("dist: dialing coordinator %s: %w", cfg.Coord, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	coord := newCtl(conn, cfg.MaxFrame)
	fail := func(err error) (*Node, error) {
		conn.Close()
		ln.Close()
		return nil, err
	}
	if err := coord.send(&Hello{Node: int32(cfg.Node), Addr: ln.Addr().String()}, cfg.JoinTimeout); err != nil {
		return fail(fmt.Errorf("dist: hello: %w", err))
	}
	ro, err := recvAs[*Roster](coord, cfg.JoinTimeout, "roster")
	if err != nil {
		return fail(err)
	}
	nodes := len(ro.Nodes)
	if cfg.Node < 0 || cfg.Node >= nodes || ro.Procs < 0 {
		return fail(fmt.Errorf("dist: implausible roster for node %d: nodes=%d procs=%d", cfg.Node, nodes, ro.Procs))
	}
	n := &Node{
		cfg:   cfg,
		id:    cfg.Node,
		nodes: nodes,
		procs: int(ro.Procs),
		spec:  ro.Spec,
		coord: coord,
		peers: make([]*peer, nodes),
	}
	n.procNode = make([]int, n.procs)
	for node := 0; node < nodes; node++ {
		lo, hi := RangeOf(n.procs, nodes, node)
		for p := lo; p < hi; p++ {
			n.procNode[p] = node
		}
	}

	meshFail := func(err error) (*Node, error) {
		n.closeAll()
		ln.Close()
		return nil, err
	}
	// Dial every lower-numbered node, announcing who we are.
	for j := 0; j < n.id; j++ {
		var pc net.Conn
		for {
			pc, err = net.DialTimeout("tcp", ro.Nodes[j], time.Second)
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return meshFail(fmt.Errorf("dist: node %d dialing peer %d at %s: %w", n.id, j, ro.Nodes[j], err))
			}
			time.Sleep(50 * time.Millisecond)
		}
		pc.SetWriteDeadline(deadline)
		if _, err := pc.Write(encodeCtl(&PeerHello{Node: int32(n.id)})); err != nil {
			pc.Close()
			return meshFail(fmt.Errorf("dist: node %d peer hello to %d: %w", n.id, j, err))
		}
		pc.SetWriteDeadline(time.Time{})
		n.peers[j] = &peer{c: pc, r: bufio.NewReader(pc)}
	}
	// Accept every higher-numbered node, which dials and identifies itself.
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}
	for need := nodes - 1 - n.id; need > 0; {
		pc, err := ln.Accept()
		if err != nil {
			return meshFail(fmt.Errorf("dist: node %d waiting for %d peer connections: %w", n.id, need, err))
		}
		r := bufio.NewReader(pc)
		pc.SetReadDeadline(deadline)
		frame, err := wire.ReadFrame(r, cfg.MaxFrame)
		if err != nil {
			pc.Close() // not a member; keep accepting
			continue
		}
		v, err := decodeCtl(frame)
		if err != nil {
			pc.Close()
			continue
		}
		ph, ok := v.(*PeerHello)
		if !ok || int(ph.Node) <= n.id || int(ph.Node) >= nodes || n.peers[ph.Node] != nil {
			pc.Close()
			continue
		}
		pc.SetReadDeadline(time.Time{})
		n.peers[ph.Node] = &peer{c: pc, r: r}
		need--
	}
	ln.Close()
	return n, nil
}

// NodeID returns this node's id in the roster.
func (n *Node) NodeID() int { return n.id }

// Range returns the contiguous rank range [lo, hi) this node hosts.
func (n *Node) Range() (lo, hi int) { return RangeOf(n.procs, n.nodes, n.id) }

// Spec returns the coordinator's opaque scenario payload.
func (n *Node) Spec() []byte { return n.spec }

// Finish ends the session for this node: it sends Done — the hosted
// ranks' finish time and ledgers from the machine's Run, plus the driver's
// result blob — waits for the coordinator's Fin under the drain deadline,
// then tears down the transport. Call it after the machine's Run returned
// without error.
func (n *Node) Finish(blob []byte) error {
	m := n.m
	if m == nil || m.fin == nil {
		return fmt.Errorf("dist: node %d: Finish before the machine's Run", n.id)
	}
	defer m.stopTransport()
	lo, hi := n.Range()
	done := &Done{FinishedAt: m.Makespan(), Accounts: make([]substrate.Account, hi-lo), Blob: blob}
	for p := lo; p < hi; p++ {
		done.Accounts[p-lo] = *m.Account(p)
	}
	if err := n.coord.send(done, n.cfg.DrainTimeout); err != nil {
		return m.fail(fmt.Errorf("dist: node %d done: %w", n.id, err))
	}
	select {
	case <-m.fin:
	case <-time.After(n.cfg.DrainTimeout):
		m.fail(fmt.Errorf("dist: node %d: no Fin from coordinator within %v (drain deadline)", n.id, n.cfg.DrainTimeout))
	}
	return m.Err()
}

// closePeers tears down the data mesh (idempotent per conn).
func (n *Node) closePeers() {
	for _, p := range n.peers {
		if p != nil {
			p.c.Close()
		}
	}
}

// closeAll tears down every connection, peers and coordinator alike.
func (n *Node) closeAll() {
	n.closeOnce.Do(func() {
		n.closePeers()
		n.coord.c.Close()
	})
}

// Close releases the node's connections and, when Finish did not, stops
// its machine's transport. It is safe to call more than once, but not
// while the machine's Run is in progress.
func (n *Node) Close() error {
	n.closeAll()
	if n.m != nil {
		n.m.stopTransport()
	}
	return nil
}
