package bench

import (
	"flag"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"prema/internal/dist"
)

// stubPremadEnv, when set, turns the re-exec'd test binary into a premad
// stand-in (see stubPremad); its value is the directory for exit markers.
const stubPremadEnv = "PREMA_BENCH_STUB_PREMAD"

func TestMain(m *testing.M) {
	if dir := os.Getenv(stubPremadEnv); dir != "" {
		os.Exit(stubPremad(dir))
	}
	os.Exit(m.Run())
}

// stubPremad serves one session exactly as premad does, then misbehaves on
// the way out: node 0 exits 1 at once, every other node lingers before
// leaving a marker file and exiting 0 — so a coordinator that stops reaping
// at the first failure returns before the markers exist.
func stubPremad(dir string) int {
	fs := flag.NewFlagSet("stub-premad", flag.ContinueOnError)
	coord := fs.String("coord", "", "")
	fs.String("listen", "", "")
	node := fs.Int("node", -1, "")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	n, err := dist.Join(dist.NodeConfig{Coord: *coord, Node: *node})
	if err != nil {
		return 2
	}
	err = RunDistNode(n)
	n.Close()
	if err != nil {
		return 2
	}
	if *node == 0 {
		return 1
	}
	time.Sleep(200 * time.Millisecond)
	if err := os.WriteFile(filepath.Join(dir, "exited."+strconv.Itoa(*node)), nil, 0o644); err != nil {
		return 2
	}
	return 0
}

// TestDistReapsEveryChild: when a spawned premad exits nonzero after a
// successful session, RunDist must still wait for every other child before
// returning, and report the lowest-numbered failure.
func TestDistReapsEveryChild(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test in -short mode")
	}
	dir := t.TempDir()
	t.Setenv(stubPremadEnv, dir)
	const nodes = 3
	spec := NewDistSpec("none", PaperWorkload(Figures()[0], nodes, 1))
	spec.TimeScale = 1e-4
	_, err := RunDist(spec, DistOptions{Nodes: nodes, Listen: "127.0.0.1:0", Premad: os.Args[0]})
	if err == nil || !strings.Contains(err.Error(), "premad node 0") {
		t.Fatalf("RunDist error = %v, want node 0's exit status", err)
	}
	for i := 1; i < nodes; i++ {
		if _, err := os.Stat(filepath.Join(dir, "exited."+strconv.Itoa(i))); err != nil {
			t.Errorf("RunDist returned before node %d was reaped: %v", i, err)
		}
	}
}

// freeAddr reserves a localhost port for a coordinator that has not started
// listening yet, so in-process nodes can be pointed at it up front (Join
// retries the dial until its timeout).
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// runDistInProcess drives a full coordinator+nodes session with the node
// daemons as goroutines (real localhost TCP, shared address space), using
// the exact driver premad runs.
func runDistInProcess(t *testing.T, spec RunSpec, nodes int) *Result {
	t.Helper()
	addr := freeAddr(t)
	errCh := make(chan error, nodes)
	for i := 0; i < nodes; i++ {
		go func(i int) {
			n, err := dist.Join(dist.NodeConfig{Coord: addr, Node: i})
			if err != nil {
				errCh <- err
				return
			}
			defer n.Close()
			errCh <- RunDistNode(n)
		}(i)
	}
	res, err := RunDist(spec, DistOptions{Nodes: nodes, Listen: addr, Attach: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nodes; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	return res
}

// TestDistNoneMatchesSim: a distributed 4-node run of the unbalanced
// baseline must produce the same application-level counters and final
// residency as the deterministic simulator — the bench-driver flavor of the
// cross-backend conformance guarantee.
func TestDistNoneMatchesSim(t *testing.T) {
	fig, err := FigureByID(3)
	if err != nil {
		t.Fatal(err)
	}
	w := PaperWorkload(fig, 8, 2)
	simRes, err := RunSystem("none", w)
	if err != nil {
		t.Fatal(err)
	}

	spec := NewDistSpec("none", w)
	spec.TimeScale = 1e-4
	res := runDistInProcess(t, spec, 4)

	if res.System != "none" {
		t.Errorf("merged system = %q, want none", res.System)
	}
	if !reflect.DeepEqual(simRes.Counters, res.Counters) {
		t.Errorf("counters diverge:\n sim:  %v\n dist: %v", simRes.Counters, res.Counters)
	}
	if !reflect.DeepEqual(simRes.Resident, res.Resident) {
		t.Errorf("residency diverges:\n sim:  %v\n dist: %v", simRes.Resident, res.Resident)
	}
	if err := res.CheckConservation(); err != nil {
		t.Error(err)
	}
	if res.Makespan <= 0 {
		t.Errorf("dist makespan = %v, want > 0", res.Makespan)
	}
	if res.WireFrames == 0 {
		t.Error("a 4-node run encoded no wire frames")
	}
	if len(res.Accounts) != w.Procs {
		t.Errorf("merged %d accounts, want %d", len(res.Accounts), w.Procs)
	}
}

// TestDistPremaImplicitConserves: the full PREMA stack (implicit ILB +
// work stealing) over 4 node processes-worth of mesh must conserve work —
// every unit runs exactly once, every object ends resident somewhere —
// even though the stealing pattern itself is timing-dependent.
func TestDistPremaImplicitConserves(t *testing.T) {
	fig, err := FigureByID(3)
	if err != nil {
		t.Fatal(err)
	}
	w := PaperWorkload(fig, 8, 2)
	spec := NewDistSpec("prema-implicit", w)
	spec.TimeScale = 1e-4
	res := runDistInProcess(t, spec, 4)

	if res.System != "prema-implicit" {
		t.Errorf("merged system = %q, want prema-implicit", res.System)
	}
	if err := res.CheckConservation(); err != nil {
		t.Error(err)
	}
	if res.Makespan <= 0 {
		t.Errorf("makespan = %v, want > 0", res.Makespan)
	}
}

// TestDistReliableConserves: DMCS reliable mode over real sockets, under
// loss and duplication, still conserves work. Its cumulative acks cross TCP
// as header-only frames (the acked sequence in the frame's seq field), a
// path no simulator run takes. What each node's injector dropped and
// duplicated reaches the merged result.
func TestDistReliableConserves(t *testing.T) {
	fig, err := FigureByID(3)
	if err != nil {
		t.Fatal(err)
	}
	spec := NewDistSpec("prema-implicit", PaperWorkload(fig, 8, 2))
	spec.TimeScale = 1e-3
	spec.Reliable = true
	spec.FaultPlan = "drop=0.05,dup=0.05"
	res := runDistInProcess(t, spec, 2)
	if err := res.CheckConservation(); err != nil {
		t.Error(err)
	}
	if res.Counters["rel_acks"] <= 0 {
		t.Errorf("rel_acks = %d, want acks sent", res.Counters["rel_acks"])
	}
	if f := res.Faults; f.Dropped <= 0 || f.Dupped <= 0 {
		t.Errorf("merged faults %+v, want drops and duplicates from the nodes", f)
	}
}

// TestDistPingPong: the two-rank transport probe over two node processes
// (in-process here) reports its round count and a positive wall-clock
// total through the partial-result merge.
func TestDistPingPong(t *testing.T) {
	w := Workload{Procs: 2, Units: 50, UnitBytes: 64, Seed: 7}
	spec := NewDistSpec("pingpong", w)
	res := runDistInProcess(t, spec, 2)

	if got := res.Counters["pingpong_rounds"]; got != 50 {
		t.Errorf("pingpong_rounds = %d, want 50", got)
	}
	if res.Counters["pingpong_ns_total"] <= 0 {
		t.Error("pingpong_ns_total not positive")
	}
	// One frame out and one back per round, and nothing else on the wire.
	if want := uint64(2 * w.Units); res.WireFrames != want {
		t.Errorf("WireFrames = %d, want 2 per round = %d", res.WireFrames, want)
	}
}
