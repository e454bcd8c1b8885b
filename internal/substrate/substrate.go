// Package substrate defines the execution-substrate abstraction the PREMA
// stack is written against. Every layer above it — dmcs (active messages),
// mol (mobile objects), ilb (load balancing), policy (the balancing
// strategies), and core (the assembled runtime) — depends only on the small
// interfaces in this package, never on a concrete machine. Two machines
// implement them:
//
//   - internal/sim: the deterministic discrete-event simulator. One host
//     thread, virtual time, a seeded RNG — byte-identical reports across
//     runs, used for all paper-figure reproduction.
//   - internal/rtm: the real-time machine. Each processor is a goroutine,
//     the network is one buffered channel per processor with per-(src,dst)
//     FIFO delivery and injected latency (the receiver releases a message at
//     its arrival time), and time accounting uses the host's monotonic clock
//     — genuine parallelism, validated under the race detector. It hosts
//     every rank in one process, or a share of them with internal/dist's
//     sockets and session around it.
//
// The split mirrors the paper's own layering: DMCS is specified as handlers
// over an opaque transport, so the transport (and the clock that prices it)
// is exactly the seam where a simulator and a real machine can be swapped
// without touching application or runtime code.
package substrate

import "math/rand"

// Clock provides the substrate's notion of the current time. In the
// simulator this is virtual time driven by the event loop; in the real-time
// machine it is scaled monotonic wall-clock time.
type Clock interface {
	// Now returns the current time on this substrate.
	Now() Time
}

// Endpoint is one processor's view of the machine: identity, time, the
// message transport, and the per-category time ledger. All methods must be
// called from the processor's own execution context (its simulated body or
// its goroutine); Endpoints are not safe for cross-processor sharing.
type Endpoint interface {
	Clock

	// ID returns the processor's dense ID (spawn order).
	ID() int
	// NumPeers returns the machine size (total number of endpoints,
	// including this one).
	NumPeers() int
	// Rand returns a random source usable from this endpoint's context.
	// Both machines hand each endpoint its own stream seeded seed+procID —
	// never a shared one — so goroutines never share unsynchronized state
	// and a simulation's random choices do not depend on how processors
	// are partitioned across event-loop shards.
	Rand() *rand.Rand

	// Advance consumes d of CPU time, attributed to cat. The simulator
	// advances virtual time; the real-time machine sleeps through the
	// scaled wall-clock equivalent and charges what it measured.
	Advance(d Time, cat Category)
	// AdvancePolled runs one quiet stretch of a polled computation of d
	// under ps and returns how much of d was computed and how many polls
	// woke; the caller owes the poll that ended the stretch when compute
	// remains. An endpoint that cannot skip a poll returns (0, 0) and the
	// caller steps (StepPolled). The contract is in polled.go.
	AdvancePolled(d Time, ps PollSpec) (done Time, polls int)

	// Send transmits m, stamping Src and SentAt and charging the sender's
	// per-message CPU overhead to cat. Delivery is asynchronous and FIFO
	// per (src,dst) pair.
	Send(m *Msg, cat Category)
	// InboxLen returns the number of queued, undelivered messages.
	InboxLen() int
	// TryRecv pops the oldest queued message, charging receive CPU overhead
	// to cat. It returns nil when no message is queued.
	TryRecv(cat Category) *Msg
	// TryRecvTag pops the oldest queued message with the given tag,
	// preserving the relative order of the remaining messages. It returns
	// nil when no such message is queued.
	TryRecvTag(tag int, cat Category) *Msg
	// Recv blocks until a message is available and returns it, attributing
	// blocked time to waitCat and receive overhead to CatMessaging.
	Recv(waitCat Category) *Msg
	// WaitMsg blocks until at least one message is queued, attributing the
	// wait to cat.
	WaitMsg(cat Category)
	// WaitMsgFor blocks until a message is queued or d elapses, attributing
	// the wait to cat. It reports whether a message is available.
	WaitMsgFor(d Time, cat Category) bool
}

// Machine is a whole execution substrate: a set of endpoints plus the global
// clock. Drivers spawn one body per processor, call Run, then read the
// per-processor accounts and the makespan.
type Machine interface {
	// Spawn adds a processor whose behaviour is body. IDs are assigned
	// densely in spawn order. All Spawn calls must precede Run.
	Spawn(name string, body func(Endpoint))
	// Run executes all processor bodies to completion and returns the first
	// processor panic (if any) as an error.
	Run() error
	// NumProcs returns the number of spawned processors.
	NumProcs() int
	// Now returns the machine's current time.
	Now() Time
	// Makespan returns the latest processor finish time; only meaningful
	// after Run returns.
	Makespan() Time
	// Account returns processor i's time ledger; read it after Run.
	Account(i int) *Account
}

// Find walks m's decorator chain — m itself, then whatever each layer's
// Unwrap() Machine returns — and returns the first layer that is a T: a
// concrete decorator (*faulty.Machine for its rejoin hook) or a telemetry
// surface (the simulator's event counters, the wire loopback's audit). A
// chain ends at the first layer without Unwrap.
func Find[T any](m Machine) (T, bool) {
	for {
		if v, ok := m.(T); ok {
			return v, true
		}
		u, ok := m.(interface{ Unwrap() Machine })
		if !ok {
			var zero T
			return zero, false
		}
		m = u.Unwrap()
	}
}
