package dist_test

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"prema/internal/conformance"
	"prema/internal/dist"
	"prema/internal/mol"
	"prema/internal/rtm"
	"prema/internal/sim"
	"prema/internal/substrate"
	"prema/internal/wire"
)

const testTimeout = 30 * time.Second

// TestMain doubles as the node-process entry point for the multi-process
// conformance test: when PREMA_DIST_CHILD is set, the re-exec'd test binary
// runs one conformance node and exits instead of running the test suite.
func TestMain(m *testing.M) {
	if os.Getenv("PREMA_DIST_CHILD") != "" {
		os.Exit(childMain())
	}
	os.Exit(m.Run())
}

// nodeShare is one node's conformance outcome, gob-encoded into its Done
// blob by the multi-process child (and passed over a channel in-process).
type nodeShare struct {
	Lo, Hi int
	Stats  []mol.Stats
	Place  [][]int
}

// mergeShares assembles per-rank stats/placement from per-node shares.
func mergeShares(shares []nodeShare, procs int) ([]mol.Stats, [][]int) {
	stats := make([]mol.Stats, procs)
	place := make([][]int, procs)
	for _, s := range shares {
		for p := s.Lo; p < s.Hi; p++ {
			stats[p] = s.Stats[p]
			place[p] = s.Place[p]
		}
	}
	return stats, place
}

// simConformance runs the reference workload on the deterministic simulator.
func simConformance(t *testing.T, procs, objects int) ([]mol.Stats, [][]int) {
	t.Helper()
	stats, place, err := conformance.Run(sim.NewMachine(sim.Config{Seed: 9}), procs, objects)
	if err != nil {
		t.Fatal(err)
	}
	return stats, place
}

// TestDistConformance: the multi-node (in-process, real localhost TCP)
// machine must agree exactly with the simulator and rtm on message counts,
// migration counts, forwards, and final object placement.
func TestDistConformance(t *testing.T) {
	const nodes, procs, objects = 4, 8, 16
	simStats, simPlace := simConformance(t, procs, objects)

	rc := rtm.DefaultConfig()
	rc.Seed = 9
	rtmStats, rtmPlace, err := conformance.Run(rtm.New(rc), procs, objects)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(simStats, rtmStats) || !reflect.DeepEqual(simPlace, rtmPlace) {
		t.Fatalf("sim and rtm diverge before dist even runs:\n sim: %+v\n rtm: %+v", simStats, rtmStats)
	}

	c, err := dist.Listen(dist.CoordConfig{Listen: "127.0.0.1:0", Nodes: nodes, Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	shareCh := make(chan nodeShare, nodes)
	errCh := make(chan error, nodes)
	for i := 0; i < nodes; i++ {
		go func(i int) {
			n, err := dist.Join(dist.NodeConfig{Coord: c.Addr(), Node: i})
			if err != nil {
				errCh <- fmt.Errorf("node %d: %w", i, err)
				return
			}
			defer n.Close()
			mc := rtm.DefaultConfig()
			mc.Seed = 9
			stats, place, err := conformance.Run(n.NewMachine(mc), procs, objects)
			if err != nil {
				errCh <- fmt.Errorf("node %d: %w", i, err)
				return
			}
			if err := n.Finish(nil); err != nil {
				errCh <- err
				return
			}
			lo, hi := n.Range()
			shareCh <- nodeShare{Lo: lo, Hi: hi, Stats: stats, Place: place}
		}(i)
	}
	if _, err := c.Run(nil); err != nil {
		t.Fatal(err)
	}
	var shares []nodeShare
	for i := 0; i < nodes; i++ {
		select {
		case s := <-shareCh:
			shares = append(shares, s)
		case err := <-errCh:
			t.Fatal(err)
		}
	}
	distStats, distPlace := mergeShares(shares, procs)

	if !reflect.DeepEqual(simStats, distStats) {
		t.Errorf("MOL statistics diverge:\n sim:  %+v\n dist: %+v", simStats, distStats)
	}
	if !reflect.DeepEqual(simPlace, distPlace) {
		t.Errorf("final placement diverges:\n sim:  %v\n dist: %v", simPlace, distPlace)
	}
}

// childMain is the multi-process test's node body: join the coordinator
// named in the environment, run the conformance share, finish with it
// gob-encoded.
func childMain() int {
	nodeID, _ := strconv.Atoi(os.Getenv("PREMA_DIST_NODE"))
	n, err := dist.Join(dist.NodeConfig{Coord: os.Getenv("PREMA_DIST_COORD"), Node: nodeID})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer n.Close()
	r := wire.NewReader(n.Spec())
	procs, objects := r.Int(), r.Int()
	if err := r.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	mc := rtm.DefaultConfig()
	mc.Seed = 9
	stats, place, err := conformance.Run(n.NewMachine(mc), procs, objects)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	lo, hi := n.Range()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(nodeShare{Lo: lo, Hi: hi, Stats: stats, Place: place}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := n.Finish(buf.Bytes()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// TestDistMultiProcessConformance re-execs the test binary as real node
// processes — separate address spaces, localhost TCP between them — and
// checks the merged outcome against the simulator.
func TestDistMultiProcessConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test in -short mode")
	}
	const nodes, procs, objects = 4, 8, 16
	simStats, simPlace := simConformance(t, procs, objects)

	c, err := dist.Listen(dist.CoordConfig{Listen: "127.0.0.1:0", Nodes: nodes, Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	var spec wire.Writer
	spec.Int(procs)
	spec.Int(objects)
	var cmds []*exec.Cmd
	for i := 0; i < nodes; i++ {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(),
			"PREMA_DIST_CHILD=1",
			"PREMA_DIST_COORD="+c.Addr(),
			"PREMA_DIST_NODE="+strconv.Itoa(i))
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		cmds = append(cmds, cmd)
		t.Cleanup(func() {
			if cmd.ProcessState == nil {
				cmd.Process.Kill()
				cmd.Wait()
			}
		})
	}
	sum, err := c.Run(spec.Buf())
	if err != nil {
		t.Fatal(err)
	}
	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			t.Fatalf("node process %d: %v", i, err)
		}
	}
	var shares []nodeShare
	for node, blob := range sum.Reports {
		var s nodeShare
		if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&s); err != nil {
			t.Fatalf("node %d report: %v", node, err)
		}
		shares = append(shares, s)
	}
	distStats, distPlace := mergeShares(shares, procs)
	if !reflect.DeepEqual(simStats, distStats) {
		t.Errorf("MOL statistics diverge:\n sim:  %+v\n dist: %+v", simStats, distStats)
	}
	if !reflect.DeepEqual(simPlace, distPlace) {
		t.Errorf("final placement diverges:\n sim:  %v\n dist: %v", simPlace, distPlace)
	}
	if sum.Makespan <= 0 {
		t.Errorf("summary makespan = %v, want > 0", sum.Makespan)
	}
}

// fakeCoord speaks the coordinator protocol far enough to get a single-node
// session to a chosen phase, then misbehaves however the test dictates.
type fakeCoord struct {
	t     *testing.T
	ln    net.Listener
	conn  net.Conn
	frame []byte
}

func newFakeCoord(t *testing.T) *fakeCoord {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return &fakeCoord{t: t, ln: ln}
}

func (f *fakeCoord) addr() string { return f.ln.Addr().String() }

// accept takes the node's connection and reads its Hello.
func (f *fakeCoord) accept() {
	f.t.Helper()
	conn, err := f.ln.Accept()
	if err != nil {
		f.t.Fatal(err)
	}
	f.conn = conn
	f.t.Cleanup(func() { conn.Close() })
	f.read() // Hello
}

func (f *fakeCoord) read() *substrate.Msg {
	f.t.Helper()
	f.conn.SetReadDeadline(time.Now().Add(testTimeout))
	frame, err := wire.ReadFrame(f.conn, 0)
	if err != nil {
		f.t.Fatal(err)
	}
	m, err := wire.DecodeMsg(frame)
	if err != nil {
		f.t.Fatal(err)
	}
	return m
}

func (f *fakeCoord) send(payload any) {
	f.t.Helper()
	frame, _ := wire.EncodeMsg(&substrate.Msg{Src: -1, Dst: -1, Kind: -1, Tag: substrate.TagSystem, Data: payload})
	if _, err := f.conn.Write(frame); err != nil {
		f.t.Fatal(err)
	}
}

// startLoneNode drives one node (hosting both ranks of a 2-processor
// machine) through join + ready + start against the fake coordinator and
// returns the result channel of the machine's Run followed by the node's
// Finish. With block set, rank 0 parks in Recv forever after one exchange —
// a "mid-run" machine whose teardown must come from the session machinery;
// without it, both bodies finish on their own and Finish drives the drain
// handshake.
func startLoneNode(t *testing.T, f *fakeCoord, drain time.Duration, block bool) chan error {
	t.Helper()
	joinErr := make(chan error, 1)
	nodeCh := make(chan *dist.Node, 1)
	go func() {
		n, err := dist.Join(dist.NodeConfig{Coord: f.addr(), Node: 0, DrainTimeout: drain})
		if err != nil {
			joinErr <- err
			return
		}
		nodeCh <- n
	}()
	f.accept()
	f.send(&dist.Roster{Procs: 2, Nodes: []string{"unused"}})
	var n *dist.Node
	select {
	case n = <-nodeCh:
	case err := <-joinErr:
		t.Fatal(err)
	case <-time.After(testTimeout):
		t.Fatal("join did not complete")
	}
	t.Cleanup(func() { n.Close() })

	m := n.NewMachine(rtm.DefaultConfig())
	for p := 0; p < 2; p++ {
		m.Spawn(fmt.Sprintf("p%d", p), func(ep substrate.Endpoint) {
			if ep.ID() == 0 {
				ep.Send(&substrate.Msg{Dst: 1, Tag: substrate.TagApp, Data: 1, Size: 8}, substrate.CatMessaging)
				if block {
					ep.Recv(substrate.CatIdle) // nothing ever arrives
				}
				return
			}
			ep.Recv(substrate.CatIdle)
		})
	}
	runErr := make(chan error, 1)
	go func() {
		if err := m.Run(); err != nil {
			runErr <- err
			return
		}
		runErr <- n.Finish(nil)
	}()
	f.read() // Ready
	f.send(&dist.Start{})
	return runErr
}

// TestNodeAbortsOnLostCoordinator: a node whose coordinator connection dies
// mid-run must abort with a clear error — processors blocked in Recv are
// killed, Run returns nonzero — rather than hang.
func TestNodeAbortsOnLostCoordinator(t *testing.T) {
	f := newFakeCoord(t)
	runErr := startLoneNode(t, f, testTimeout, true)
	time.Sleep(50 * time.Millisecond) // let the run get going
	f.conn.Close()                    // coordinator "crashes"
	select {
	case err := <-runErr:
		if err == nil {
			t.Fatal("Run returned nil after losing the coordinator")
		}
		if want := "lost coordinator connection"; !strings.Contains(err.Error(), want) {
			t.Fatalf("Run error %q does not mention %q", err, want)
		}
	case <-time.After(testTimeout):
		t.Fatal("Run hung after losing the coordinator")
	}
}

// TestNodeDrainDeadline: a coordinator that accepts Done but never releases
// Fin must not wedge the node — the drain deadline expires and Finish errors.
func TestNodeDrainDeadline(t *testing.T) {
	f := newFakeCoord(t)
	runErr := startLoneNode(t, f, 500*time.Millisecond, false)
	f.read() // Done — then withhold Fin
	select {
	case err := <-runErr:
		if err == nil {
			t.Fatal("Finish returned nil despite the withheld Fin")
		}
		if want := "drain deadline"; !strings.Contains(err.Error(), want) {
			t.Fatalf("Finish error %q does not mention %q", err, want)
		}
	case <-time.After(testTimeout):
		t.Fatal("Finish hung past the drain deadline")
	}
}

// runNode is one in-process node of a 2-processor session: it claims id,
// runs a body per rank (rank 0 sends rank 1 one message, so the message
// crosses the mesh when the ranks live on different nodes) and, unless
// failBeforeFinish is set, finishes; either way it closes the node.
func runNode(cfg dist.NodeConfig, failBeforeFinish bool) error {
	n, err := dist.Join(cfg)
	if err != nil {
		return err
	}
	defer n.Close()
	m := n.NewMachine(rtm.DefaultConfig())
	for p := 0; p < 2; p++ {
		m.Spawn(fmt.Sprintf("p%d", p), func(ep substrate.Endpoint) {
			if ep.ID() == 0 {
				ep.Send(&substrate.Msg{Dst: 1, Tag: substrate.TagApp, Data: 1, Size: 8}, substrate.CatMessaging)
			} else {
				ep.Recv(substrate.CatIdle)
			}
		})
	}
	if err := m.Run(); err != nil {
		return err
	}
	if failBeforeFinish {
		return fmt.Errorf("node %d: driver failed after Run", cfg.Node)
	}
	return n.Finish([]byte{byte(cfg.Node)})
}

// session runs a coordinator for 2 processors on len(claims) nodes and
// one in-process node per claimed id, and returns the coordinator's result,
// every node's error and the coordinator's error. It fails the test if anything is still running
// after 10 s.
func session(t *testing.T, claims []int, join time.Duration, failBeforeFinish bool, extra func(addr string)) (*dist.Summary, []error, error) {
	t.Helper()
	c, err := dist.Listen(dist.CoordConfig{Listen: "127.0.0.1:0", Nodes: len(claims), Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if extra != nil {
		extra(c.Addr())
	}
	errs := make(chan error, len(claims))
	for _, id := range claims {
		go func() {
			errs <- runNode(dist.NodeConfig{Coord: c.Addr(), Node: id, JoinTimeout: join}, failBeforeFinish)
		}()
	}
	type result struct {
		sum *dist.Summary
		err error
	}
	coord := make(chan result, 1)
	go func() {
		sum, err := c.Run(nil)
		coord <- result{sum, err}
	}()
	timeout := time.After(10 * time.Second)
	var r result
	select {
	case r = <-coord:
	case <-timeout:
		t.Fatal("coordinator still running after 10 s")
	}
	var nodeErrs []error
	for range claims {
		select {
		case err := <-errs:
			nodeErrs = append(nodeErrs, err)
		case <-timeout:
			t.Fatal("a node still running after 10 s")
		}
	}
	return r.sum, nodeErrs, r.err
}

// TestJoinSurvivesSilentConnection: a connection that never sends its Hello
// holds up no one — the nodes behind it in the accept queue join, and the
// session completes well inside the join deadline.
func TestJoinSurvivesSilentConnection(t *testing.T) {
	var silent net.Conn
	t0 := time.Now()
	sum, nodeErrs, err := session(t, []int{0, 1}, 0, false, func(addr string) {
		var err error
		if silent, err = net.Dial("tcp", addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { silent.Close() })
	})
	if err != nil {
		t.Fatalf("session with a silent connection: %v", err)
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Errorf("session took %v with a silent connection, want < 5 s", d)
	}
	for _, err := range nodeErrs {
		if err != nil {
			t.Error(err)
		}
	}
	if !reflect.DeepEqual(sum.Reports, [][]byte{{0}, {1}}) {
		t.Errorf("reports = %v, want each node's id", sum.Reports)
	}
	// The join closed the connection that never spoke.
	silent.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := silent.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("silent connection still open after the join: %v", err)
	}
}

// TestJoinRejectsBadClaims: a second claim of one id, or a claim outside
// the roster, fails the session, and every node that joined sees an error
// within seconds instead of hanging.
func TestJoinRejectsBadClaims(t *testing.T) {
	for _, tc := range []struct {
		claims []int
		want   string
	}{
		{[]int{0, 0}, "node id 0 claimed twice"},
		{[]int{0, 2}, "node claimed id 2, roster has 2 slots"},
	} {
		t.Run(tc.want, func(t *testing.T) {
			_, nodeErrs, err := session(t, tc.claims, 3*time.Second, false, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("coordinator error %v, want %q", err, tc.want)
			}
			for i, err := range nodeErrs {
				if err == nil {
					t.Errorf("node %d of a refused session returned nil", i)
				}
			}
		})
	}
}

// TestCloseWithoutFinishStopsPumps: a driver that fails between Run and
// Finish closes its node (which, like any node failure, aborts its peers'
// runs); the pumps, the Fin reader and the coordinator's
// readers all end, so the goroutine count settles back to where it was.
func TestCloseWithoutFinishStopsPumps(t *testing.T) {
	before := runtime.NumGoroutine()
	_, nodeErrs, err := session(t, []int{0, 1}, 0, true, nil)
	if err == nil {
		t.Error("coordinator succeeded though no node finished")
	}
	for i, err := range nodeErrs {
		if err == nil {
			t.Errorf("node %d of a failed session returned nil", i)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before the session, %d after Close:\n%s", before, now, buf[:runtime.Stack(buf, true)])
	}
}
