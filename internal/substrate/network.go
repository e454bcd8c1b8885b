package substrate

// Network is the interconnect cost model both machines price messages with:
// a switched commodity cluster with a simple latency + bandwidth
// (LogP-flavored) cost per message. The interconnect is flat: every link
// costs the same Latency, which is what lets the simulator's sharded engine
// compute its windows from one scalar. Every field means what it says, so
// the zero value is a free network.
type Network struct {
	// Latency is the end-to-end wire + stack latency for a zero-byte message.
	Latency Time
	// PerByte is the transmission time per payload byte (inverse bandwidth).
	// Fast Ethernet ~ 12.5 MB/s => 80 ns/byte.
	PerByte Time
	// SendCPU is sender-side CPU occupancy per message (the "o" of LogP),
	// charged to the category the sender names.
	SendCPU Time
	// RecvCPU is receiver-side CPU occupancy per message when it is pulled
	// out of the inbox, charged to the category the receiver names.
	RecvCPU Time
}

// DefaultNetwork returns the paper's testbed interconnect: LAM/MPI over Fast
// Ethernet between 333 MHz UltraSPARC 2i nodes. A machine configured with a
// nil network runs on it.
func DefaultNetwork() Network {
	return Network{
		Latency: 60 * Microsecond,
		PerByte: 80 * Nanosecond,
		SendCPU: 15 * Microsecond,
		RecvCPU: 15 * Microsecond,
	}
}

// Arrival returns when a message of size bytes sent at now arrives, keeping
// per-(src,dst) FIFO order, the in-order guarantee of the MPI point-to-point
// channels PREMA's DMCS layer is built on. next is the sender's slot for one
// destination: one past its last arrival there, the earliest the next may
// land, so the zero value of a pair not yet used bounds nothing — a first
// arrival at time 0 on a free network included. Arrival moves the slot past
// the result. The FIFO bump only ever moves arrivals later, so Latency stays
// a lower bound on time in flight.
func (n *Network) Arrival(now Time, size int, next *Time) Time {
	t := max(now+n.Latency+Time(size)*n.PerByte, *next)
	*next = t + 1
	return t
}
