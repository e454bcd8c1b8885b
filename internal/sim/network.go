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

// arrival computes when a message of the given size that p sends now
// arrives at dst, enforcing FIFO order per (src, dst) pair, matching the
// in-order guarantee of the MPI point-to-point channels PREMA's DMCS layer is
// built on. The sender owns the state: p.fifo[dst] is one past its last
// arrival at dst, the earliest its next may land, and the zero value of a
// pair not yet used bounds nothing — a first arrival at time 0 on a
// zero-latency network included. Owned by the sender, it is the same under
// any partition and needs no lock. The FIFO bump only ever moves arrivals
// later, so Latency stays a valid lower bound on time in flight — the
// property the sharded engine's windows and run-ahead rely on.
func (p *Proc) arrival(dst, size int) Time {
	c := &p.sh.net
	t := p.now + c.Latency + Time(size)*c.PerByte
	if dst >= len(p.fifo) {
		n := max(dst+1, len(p.sh.eng.procs))
		p.fifo = append(p.fifo, make([]Time, n-len(p.fifo))...)
	}
	if f := p.fifo[dst]; t < f {
		t = f
	}
	p.fifo[dst] = t + 1
	return t
}
