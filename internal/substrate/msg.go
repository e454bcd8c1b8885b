package substrate

// Msg is a message in flight between processors. The substrate treats the
// payload as opaque; higher layers (DMCS, MOL, the baselines) interpret Kind
// and Data. Size is the modeled wire size in bytes and is what the network
// cost model charges for — Data itself is shared memory, standing in for
// serialized bytes. On the real-time backend the channel handoff of the Msg
// pointer is the synchronization point: a sender must not touch the message
// (or payload objects it transfers ownership of) after Send.
//
// A delivered message belongs to its receiver. No backend or decorator may
// keep, or deliver a second time, a pointer it has handed up: a backend
// forgets the slot it popped, a decorator that duplicates a delivery hands
// up a copy, and one that records a message copies its fields. dmcs relies
// on this to reuse every message it has consumed for its next send.
type Msg struct {
	// Src and Dst are processor IDs.
	Src, Dst int
	// Kind discriminates message types at whatever layer consumes the
	// message. The substrate does not interpret it.
	Kind int
	// Tag separates traffic classes. By convention TagSystem messages are
	// load-balancer traffic eligible for preemptive (polling-thread)
	// processing; TagApp messages are application traffic handled only at
	// application-posted polls, mirroring PREMA's tag mechanism (§4.2).
	Tag int
	// Data is the payload.
	Data any
	// Size is the modeled payload size in bytes.
	Size int
	// Seq is a layered-protocol sequence number. The substrate itself never
	// reads or writes it; reliable-delivery layers (dmcs's reliable mode)
	// stamp per-stream sequence numbers here so receivers can deduplicate
	// and reorder, and a cumulative ack carries the acknowledged sequence
	// number here, in the header, as TCP's does. Zero on a data message
	// means "unsequenced".
	Seq uint64
	// SentAt and ArrivedAt are stamped by the substrate.
	SentAt, ArrivedAt Time
}

// Traffic-class tags. See Msg.Tag.
const (
	TagApp = iota
	TagSystem
)
