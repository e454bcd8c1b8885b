// Package dist is the distributed machine: a substrate backend whose
// processors live in separate OS processes connected by length-prefixed
// wire.Frames over TCP. One coordinator process (Listen + Coordinator.Run)
// referees the session; each node process (Join) hosts a contiguous rank
// range, builds a full TCP mesh to its peers, and runs the same driver the
// in-process backends run — SPMD, like the MPI applications PREMA hosts.
//
// The processors themselves are an rtm share: endpoints, inboxes, clock,
// cost model between hosted ranks and the ledger are internal/rtm's. This
// package adds sockets and a session. A message for a rank on another node
// is encoded and queued on that node's connection; the far side's read loop
// hands it to its share's Inject, which stamps the arrival with the
// receiver's clock — so a remote hop costs what the real network costs,
// scaled by TimeScale. Per-(src,dst) FIFO holds end to end: sender program
// order → per-peer queue → TCP byte order → single reader. Exact timings
// are not comparable across backends; protocol invariants and
// message/migration counts are (DESIGN.md §3, §12).
package dist

import (
	"bufio"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"prema/internal/rtm"
	"prema/internal/substrate"
	"prema/internal/wire"
)

// Machine is one node's share of a distributed machine: an rtm share plus
// the session and the transport around it. The driver must Spawn a body for
// every global rank, in rank order, exactly as on the in-process backends;
// only the ranks this node hosts run. Run passes the start barrier
// (Ready → Start), so it starts in lockstep with every other node, and
// returns an error — never hangs — if the coordinator or a peer dies
// mid-run. The node's Finish passes the drain barrier (Done → Fin).
type Machine struct {
	*rtm.Machine
	node *Node
	outs []chan []byte // outbound frame queue by peer node id; nil for self
	fin  chan struct{} // closed once the Fin release arrived or the session failed
	tr   sync.WaitGroup

	frames, drift atomic.Int64
	stopOnce      sync.Once
}

var _ substrate.Machine = (*Machine)(nil)

// NewMachine builds this node's Machine from its roster. cfg.Network's cost
// model (nil: substrate.DefaultNetwork) applies between hosted ranks; remote
// messages pay the real network instead (its SendCPU and RecvCPU are charged
// on every message either way).
func (n *Node) NewMachine(cfg rtm.Config) *Machine {
	m := &Machine{node: n, outs: make([]chan []byte, n.nodes)}
	n.m = m
	for id, p := range n.peers {
		if p != nil {
			m.outs[id] = make(chan []byte, rtm.ChanCap)
		}
	}
	lo, hi := n.Range()
	m.Machine = rtm.NewShare(cfg, lo, hi, m.sendRemote)
	return m
}

// sendRemote is the share's remote link: encode, count, queue on the
// destination node's connection. Encoding panics on an unregistered payload
// type, surfacing the programming error exactly as wire.Wrap does.
func (m *Machine) sendRemote(msg *substrate.Msg) bool {
	frame, plen := wire.EncodeMsg(msg)
	m.frames.Add(1)
	if plen > msg.Size {
		m.drift.Add(1)
	}
	select {
	case m.outs[m.node.procNode[msg.Dst]] <- frame:
		return true
	case <-m.Stopped():
		return false
	}
}

// Range returns the hosted rank range [lo, hi).
func (m *Machine) Range() (lo, hi int) { return m.node.Range() }

// Frames returns the number of frames sent to remote nodes (it satisfies
// bench's wireStats probe, so dist runs report wire telemetry).
func (m *Machine) Frames() uint64 { return uint64(m.frames.Load()) }

// SizeDrift returns how many remote frames carried an encoded payload
// larger than the modeled Msg.Size.
func (m *Machine) SizeDrift() uint64 { return uint64(m.drift.Load()) }

// fail kills the hosted processors with err and aborts the session: closing
// the connections unblocks every peer and the coordinator, so the failure
// propagates instead of hanging. It returns the first failure recorded.
func (m *Machine) fail(err error) error {
	m.Fail(err)
	m.node.closeAll()
	return m.Err()
}

// stopped reports whether the share has stopped — from then on inbound data
// is dead-letter and a peer hanging up is normal teardown.
func (m *Machine) stopped() bool {
	select {
	case <-m.Stopped():
		return true
	default:
		return false
	}
}

// Run executes this node's share of the machine: it reports Ready, waits
// for the Start release, and runs the share with the transport pumping
// underneath. It returns once every hosted body has returned; the pumps
// stay up until the node's Finish or Close. The returned error is the first
// local failure — a processor panic, a lost coordinator or peer connection,
// or a missed session deadline.
func (m *Machine) Run() error {
	n := m.node
	if m.NumProcs() != n.procs {
		return fmt.Errorf("dist: driver spawned %d processors, roster expects %d", m.NumProcs(), n.procs)
	}
	if err := n.coord.send(&Ready{}, n.cfg.JoinTimeout); err != nil {
		return m.fail(fmt.Errorf("dist: node %d ready: %w", n.id, err))
	}
	if _, err := recvAs[*Start](n.coord, n.cfg.JoinTimeout, fmt.Sprintf("node %d: Start release", n.id)); err != nil {
		return m.fail(err)
	}
	// The machine epoch is the receipt of the release, and it is set before
	// the first read loop exists: a peer released a hair earlier can deliver
	// a frame before the local bodies launch.
	m.SetEpoch(time.Now())
	m.fin = make(chan struct{})
	m.tr.Add(1)
	go m.awaitFin()

	// One write pump and one read loop per peer connection. The pumps
	// outlive the share — a body's last sends still go out — and end in
	// stopTransport, after every body has returned.
	for peerID, p := range n.peers {
		if p != nil {
			m.tr.Add(2)
			go m.writeLoop(p, m.outs[peerID])
			go m.readLoop(peerID, p)
		}
	}

	// Once every hosted processor has returned the share is stopped and
	// Inject discards: the read loops keep consuming, so no peer deadlocks
	// on back-pressure while finishing its own drain.
	if err := m.Machine.Run(); err != nil {
		return m.fail(err)
	}
	return nil
}

// stopTransport ends the pumps: the write queues close, the mesh closes
// under the read loops, and it waits for every pump and the Fin reader to
// return. It runs once; it must not run while hosted bodies can still send.
func (m *Machine) stopTransport() {
	m.stopOnce.Do(func() {
		for _, out := range m.outs {
			if out != nil {
				close(out)
			}
		}
		m.node.closePeers() // unblock the read loops
		m.tr.Wait()
	})
}

// awaitFin reads the coordinator connection from the Start release on; the
// one message due is the Fin drain release, and fin is closed on it — or
// without it when the session fails first. Losing the connection is a
// session abort, not a hang.
func (m *Machine) awaitFin() {
	defer m.tr.Done()
	defer close(m.fin)
	v, err := m.node.coord.recv(0)
	if err != nil {
		m.fail(fmt.Errorf("dist: node %d lost coordinator connection: %v", m.node.id, err))
	} else if _, ok := v.(*Fin); !ok {
		m.fail(fmt.Errorf("dist: node %d: unexpected control message %T", m.node.id, v))
	}
}

// writeLoop is the per-peer send pump: it batches whatever is queued into
// one buffered write, then flushes — coalescing bursts into few syscalls
// while keeping latency at one channel handoff when traffic is sparse.
func (m *Machine) writeLoop(p *peer, out chan []byte) {
	defer m.tr.Done()
	bw := bufio.NewWriter(p.c)
	for frame := range out {
		bw.Write(frame)
		for queued := len(out); queued > 0; queued-- { // sole consumer: these cannot block
			bw.Write(<-out)
		}
		if err := bw.Flush(); err != nil {
			if !m.stopped() {
				m.fail(fmt.Errorf("dist: node %d: write to peer: %w", m.node.id, err))
			}
			return
		}
	}
}

// readLoop is the per-peer receive pump: frames are length-checked before
// allocation (ReadFrame), decoded strictly, validated to target a hosted
// rank, and injected into the share, which stamps them with the local clock.
func (m *Machine) readLoop(peerID int, p *peer) {
	defer m.tr.Done()
	lo, hi := m.Range()
	for {
		frame, err := wire.ReadFrame(p.r, m.node.cfg.MaxFrame)
		if err != nil {
			// A peer hanging up after this share stopped is normal teardown:
			// nodes that get their Fin first close their mesh connections
			// while slower ones are still waiting for theirs.
			if !m.stopped() {
				m.fail(fmt.Errorf("dist: node %d: link from node %d: %w", m.node.id, peerID, err))
			}
			return
		}
		msg, err := wire.DecodeMsg(frame)
		if err != nil {
			m.fail(fmt.Errorf("dist: node %d: corrupt frame from node %d: %w", m.node.id, peerID, err))
			return
		}
		if msg.Dst < lo || msg.Dst >= hi {
			m.fail(fmt.Errorf("dist: node %d: frame from node %d misrouted to rank %d (hosting [%d,%d))", m.node.id, peerID, msg.Dst, lo, hi))
			return
		}
		m.Inject(msg) // false once the share stopped: dead letter
	}
}
