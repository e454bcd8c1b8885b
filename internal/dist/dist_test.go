package dist_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"net"
	"os"
	"os/exec"
	"reflect"
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

// nodeShare is one node's conformance outcome, gob-encoded into its Report
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

	c, err := dist.Listen(dist.CoordConfig{
		Listen: "127.0.0.1:0", Nodes: nodes, Procs: procs,
		JoinTimeout: testTimeout, DrainTimeout: testTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	shareCh := make(chan nodeShare, nodes)
	errCh := make(chan error, nodes)
	for i := 0; i < nodes; i++ {
		go func(i int) {
			n, err := dist.Join(dist.NodeConfig{
				Coord: c.Addr(), Node: i,
				JoinTimeout: testTimeout, DrainTimeout: testTimeout,
			})
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
			if err := n.Report(nil); err != nil {
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
// named in the environment, run the conformance share, report it gob-encoded.
func childMain() int {
	nodeID, _ := strconv.Atoi(os.Getenv("PREMA_DIST_NODE"))
	n, err := dist.Join(dist.NodeConfig{
		Coord: os.Getenv("PREMA_DIST_COORD"), Node: nodeID,
		JoinTimeout: testTimeout, DrainTimeout: testTimeout,
	})
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
	if err := n.Report(buf.Bytes()); err != nil {
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

	c, err := dist.Listen(dist.CoordConfig{
		Listen: "127.0.0.1:0", Nodes: nodes, Procs: procs,
		JoinTimeout: testTimeout, DrainTimeout: testTimeout,
	})
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
// returns the machine's Run result channel. With block set, rank 0 parks in
// Recv forever after one exchange — a "mid-run" machine whose teardown must
// come from the session machinery; without it, both bodies finish on their
// own and the machine proceeds to its drain handshake.
func startLoneNode(t *testing.T, f *fakeCoord, drain time.Duration, block bool) chan error {
	t.Helper()
	joinErr := make(chan error, 1)
	nodeCh := make(chan *dist.Node, 1)
	go func() {
		n, err := dist.Join(dist.NodeConfig{
			Coord: f.addr(), Node: 0,
			JoinTimeout: testTimeout, DrainTimeout: drain,
		})
		if err != nil {
			joinErr <- err
			return
		}
		nodeCh <- n
	}()
	f.accept()
	f.send(&dist.Roster{You: 0, Procs: 2, Nodes: []string{"unused"}})
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
	go func() { runErr <- m.Run() }()
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
// Fin must not wedge the node — the drain deadline expires and Run errors.
func TestNodeDrainDeadline(t *testing.T) {
	f := newFakeCoord(t)
	runErr := startLoneNode(t, f, 500*time.Millisecond, false)
	f.read() // Done — then withhold Fin
	select {
	case err := <-runErr:
		if err == nil {
			t.Fatal("Run returned nil despite the withheld Fin")
		}
		if want := "drain deadline"; !strings.Contains(err.Error(), want) {
			t.Fatalf("Run error %q does not mention %q", err, want)
		}
	case <-time.After(testTimeout):
		t.Fatal("Run hung past the drain deadline")
	}
}
