package sim

// NetworkConfig models a switched commodity cluster interconnect with a
// simple latency + bandwidth (LogP-flavored) cost model. The defaults
// approximate the paper's platform: Fast Ethernet with a user-level MPI
// stack (LAM) on 333 MHz UltraSPARC 2i nodes. The interconnect is flat:
// every link costs the same Latency, which is what lets the sharded engine
// compute its windows from one scalar (see engine.go).
type NetworkConfig struct {
	// Latency is the end-to-end wire + stack latency for a zero-byte message.
	Latency Time
	// PerByte is the transmission time per payload byte (inverse bandwidth).
	// Fast Ethernet ~ 12.5 MB/s => 80 ns/byte.
	PerByte Time
	// SendCPU is sender-side CPU occupancy per message (the "o" of LogP);
	// accounted to CatMessaging on the sender.
	SendCPU Time
	// RecvCPU is receiver-side CPU occupancy per message when it is pulled
	// out of the inbox; accounted to CatMessaging on the receiver.
	RecvCPU Time
}

// DefaultNetwork returns a configuration approximating LAM/MPI over Fast
// Ethernet (the paper's testbed interconnect).
func DefaultNetwork() NetworkConfig {
	return NetworkConfig{
		Latency: 60 * Microsecond,
		PerByte: 80 * Nanosecond,
		SendCPU: 15 * Microsecond,
		RecvCPU: 15 * Microsecond,
	}
}

// MinLatency returns the smallest latency any link can have — the sharded
// engine's conservative lookahead, which must be positive. Every link of the
// flat network costs Latency.
func (c NetworkConfig) MinLatency() Time { return c.Latency }

// network tracks per-(src,dst) last-arrival times so that delivery between a
// pair of processors is FIFO, matching the in-order guarantee of the MPI
// point-to-point channels PREMA's DMCS layer is built on.
type network struct {
	cfg         NetworkConfig
	lastArrival map[pair]Time
}

type pair struct{ src, dst int }

func newNetwork(cfg NetworkConfig) *network {
	return &network{cfg: cfg, lastArrival: make(map[pair]Time)}
}

// arrivalTime computes when a message of the given size sent now from src
// arrives at dst, enforcing FIFO ordering per (src,dst) pair. The FIFO bump
// only ever moves arrivals later, so Latency stays a valid lower bound on
// time in flight — the property the sharded engine's windows rely on.
func (n *network) arrivalTime(now Time, src, dst, size int) Time {
	t := now + n.cfg.Latency + Time(size)*n.cfg.PerByte
	p := pair{src, dst}
	if last, ok := n.lastArrival[p]; ok && t <= last {
		t = last + 1
	}
	n.lastArrival[p] = t
	return t
}
