// Command premad is the PREMA node daemon of the distributed backend: one
// process hosting a contiguous range of a machine's processors, connected
// to its peers by TCP.
//
// Usage:
//
//	premad -coord HOST:PORT -node N [-listen 127.0.0.1:0] \
//	       [-sessions 1] [-join-timeout 30s] [-drain-timeout 30s] \
//	       [-max-frame 1048576]
//
// The daemon dials the coordinator (retrying until -join-timeout, so it
// may be started before the coordinator is listening), claims node id N,
// receives the roster and scenario, runs its share of the benchmark, and
// finishes the session with its partial result. With -sessions 1 (the
// default) it exits after one session; -sessions 0 loops forever, serving
// session after session — the attach-mode deployment where daemons outlive
// coordinators.
//
// -node is required: node N of n hosts the rank range
// [N*procs/n, (N+1)*procs/n), and the coordinator refuses a session in
// which an id is claimed twice or is not below n.
//
// Any session failure — lost coordinator connection, a peer dying mid-run,
// a missed drain deadline — makes the daemon exit with status 1 and a
// clear error instead of hanging.
package main

import (
	"flag"
	"fmt"
	"os"

	"prema/internal/bench"
	"prema/internal/dist"
)

func main() {
	coord := flag.String("coord", "", "coordinator control address (host:port; required)")
	listen := flag.String("listen", "127.0.0.1:0", "data-plane listen address for peer connections")
	node := flag.Int("node", -1, "node id to claim, 0 <= N < nodes (required)")
	sessions := flag.Int("sessions", 1, "sessions to serve before exiting (0 = loop forever)")
	joinTimeout := flag.Duration("join-timeout", dist.DefaultJoinTimeout, "bound on the join handshake (dial retries, roster, mesh)")
	drainTimeout := flag.Duration("drain-timeout", dist.DefaultDrainTimeout, "bound on the shutdown handshake after the last local processor finishes")
	maxFrame := flag.Int("max-frame", 0, "largest wire frame accepted from a peer, in bytes (0 = 1 MiB default)")
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "premad: unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}
	if *coord == "" || *node < 0 {
		fmt.Fprintln(os.Stderr, "premad: -coord and -node are required (-node >= 0)")
		os.Exit(2)
	}
	if *sessions < 0 {
		fmt.Fprintf(os.Stderr, "premad: -sessions must be >= 0 (got %d)\n", *sessions)
		os.Exit(2)
	}
	if *joinTimeout <= 0 || *drainTimeout <= 0 {
		fmt.Fprintf(os.Stderr, "premad: -join-timeout and -drain-timeout must be positive (got %v, %v)\n", *joinTimeout, *drainTimeout)
		os.Exit(2)
	}
	if *maxFrame < 0 {
		fmt.Fprintf(os.Stderr, "premad: -max-frame must be >= 0 (got %d)\n", *maxFrame)
		os.Exit(2)
	}

	cfg := dist.NodeConfig{
		Coord:        *coord,
		Listen:       *listen,
		Node:         *node,
		JoinTimeout:  *joinTimeout,
		DrainTimeout: *drainTimeout,
		MaxFrame:     *maxFrame,
	}
	for s := 0; *sessions == 0 || s < *sessions; s++ {
		if err := serve(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "premad:", err)
			os.Exit(1)
		}
	}
}

// serve joins one session, runs this node's share, and finishes with its
// result.
func serve(cfg dist.NodeConfig) error {
	n, err := dist.Join(cfg)
	if err != nil {
		return err
	}
	defer n.Close()
	return bench.RunDistNode(n)
}
