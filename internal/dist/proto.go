package dist

import (
	"fmt"

	"prema/internal/substrate"
	"prema/internal/wire"
)

// The session control plane rides the same self-delimiting wire.Frames as
// application traffic: every control payload below is a registered codec in
// the dist Kind range (112–127), so handshake and roster messages are
// covered by the frame fuzzer's corpus and by TestRegistryTotality exactly
// like any other message the stack sends. Control frames travel as
// substrate.Msg values with Src = Dst = ctlRank, outside every processor's
// rank space.

// ctlRank is the Src/Dst stamped on control-plane frames; no processor ever
// owns it, so a control frame misdelivered onto a data link is detected.
const ctlRank = -1

// Hello is the first frame a node sends on its coordinator connection:
// the node id it claims and the address its data listener accepts peer
// connections on.
type Hello struct {
	// Node is the claimed node id, in [0, nodes).
	Node int32
	// Addr is the node's data-plane listen address (host:port).
	Addr string
}

// Roster is the coordinator's reply to every Hello once all nodes have
// joined: the global machine shape, the per-node data addresses, and the
// opaque scenario spec the coordinator wants each node to run. All nodes
// receive the same roster, so every process starts with an identical
// processor→node map.
type Roster struct {
	// Procs is the total processor count across all nodes.
	Procs int32
	// Nodes lists every node's data-plane address, indexed by node id.
	Nodes []string
	// Spec is the coordinator's opaque scenario payload (an encoded bench.RunSpec).
	Spec []byte
}

// PeerHello is the first frame on a freshly dialed data connection: the
// dialing node identifies itself so the accepting side can index the link.
type PeerHello struct {
	// Node is the dialer's node id.
	Node int32
}

// Ready tells the coordinator this node has finished building its peer
// mesh and spawning processors, and is waiting at the start barrier.
type Ready struct{}

// Start releases the start barrier: every node sets its share's clock epoch
// (rtm.Machine.SetEpoch) on receipt.
type Start struct{}

// Done reports that every processor hosted by a node has finished and its
// driver is through: the node's local makespan, the final per-processor
// time ledgers for the node's rank range, and the driver's result blob.
type Done struct {
	// FinishedAt is the latest local processor finish time (virtual).
	FinishedAt substrate.Time
	// Accounts holds the ledgers of the node's ranks, lo..hi in order.
	Accounts []substrate.Account
	// Blob is an opaque driver payload (bench partial-result encoding).
	Blob []byte
}

// Fin is the coordinator's drain release once every node reported Done.
type Fin struct{}

func encodeString(w *wire.Writer, s string) { w.Bytes([]byte(s)) }
func decodeString(r *wire.Reader) string    { return string(r.Bytes()) }

func init() {
	wire.Register(wire.KindDistHello, &Hello{Node: 1, Addr: "127.0.0.1:7421"},
		func(w *wire.Writer, v any) {
			h := v.(*Hello)
			w.I32(h.Node)
			encodeString(w, h.Addr)
		},
		func(r *wire.Reader) any {
			return &Hello{Node: r.I32(), Addr: decodeString(r)}
		})
	wire.Register(wire.KindDistRoster,
		&Roster{Procs: 8, Nodes: []string{"127.0.0.1:7431", "127.0.0.1:7432"}, Spec: []byte{1, 2, 3}},
		func(w *wire.Writer, v any) {
			ro := v.(*Roster)
			w.I32(ro.Procs)
			w.U32(uint32(len(ro.Nodes)))
			for _, a := range ro.Nodes {
				encodeString(w, a)
			}
			w.Bytes(ro.Spec)
		},
		func(r *wire.Reader) any {
			ro := &Roster{Procs: r.I32()}
			n := r.Count(4) // each address carries at least a u32 length
			if n > 0 {
				ro.Nodes = make([]string, n)
				for i := range ro.Nodes {
					ro.Nodes[i] = decodeString(r)
				}
			}
			ro.Spec = r.Bytes()
			return ro
		})
	wire.Register(wire.KindDistPeerHello, &PeerHello{Node: 1},
		func(w *wire.Writer, v any) { w.I32(v.(*PeerHello).Node) },
		func(r *wire.Reader) any { return &PeerHello{Node: r.I32()} })
	wire.Register(wire.KindDistReady, &Ready{},
		func(w *wire.Writer, v any) {},
		func(r *wire.Reader) any { return &Ready{} })
	wire.Register(wire.KindDistStart, &Start{},
		func(w *wire.Writer, v any) {},
		func(r *wire.Reader) any { return &Start{} })
	wire.Register(wire.KindDistDone,
		&Done{FinishedAt: 42 * substrate.Second, Accounts: []substrate.Account{{1, 2, 3}}, Blob: []byte{4, 5}},
		func(w *wire.Writer, v any) {
			d := v.(*Done)
			w.I64(int64(d.FinishedAt))
			w.U32(uint32(len(d.Accounts)))
			for i := range d.Accounts {
				for _, t := range d.Accounts[i] {
					w.I64(int64(t))
				}
			}
			w.Bytes(d.Blob)
		},
		func(r *wire.Reader) any {
			d := &Done{FinishedAt: substrate.Time(r.I64())}
			n := r.Count(int(substrate.NumCategories) * 8)
			if n > 0 {
				d.Accounts = make([]substrate.Account, n)
				for i := range d.Accounts {
					for c := range d.Accounts[i] {
						d.Accounts[i][c] = substrate.Time(r.I64())
					}
				}
			}
			d.Blob = r.Bytes()
			return d
		})
	wire.Register(wire.KindDistFin, &Fin{},
		func(w *wire.Writer, v any) {},
		func(r *wire.Reader) any { return &Fin{} })
}

// encodeCtl frames a control payload as a wire frame.
func encodeCtl(payload any) []byte {
	frame, _ := wire.EncodeMsg(&substrate.Msg{Src: ctlRank, Dst: ctlRank, Kind: ctlRank, Tag: substrate.TagSystem, Data: payload})
	return frame
}

// decodeCtl unwraps a control frame, checking that it is one (and not a
// stray data frame).
func decodeCtl(frame []byte) (any, error) {
	m, err := wire.DecodeMsg(frame)
	if err != nil {
		return nil, err
	}
	if m.Dst != ctlRank {
		return nil, fmt.Errorf("dist: data frame for rank %d on the control link", m.Dst)
	}
	return m.Data, nil
}
