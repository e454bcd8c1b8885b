package bench

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"time"

	"prema/internal/dist"
	"prema/internal/substrate"
	"prema/internal/wire"
)

// NewDistSpec builds the spec of a distributed (multi-process) run of system
// on w with default machine tuning.
func NewDistSpec(system string, w Workload) RunSpec {
	return RunSpec{System: system, W: w, Backend: BackendDist}
}

// runSpecVersion guards the travelling form of a RunSpec: a version byte,
// then every leaf field in declaration order as one uvarint (most are
// zero) — an integer's two's complement, a bool's 0/1, a float's IEEE bits,
// a string's length followed by its bytes. The coordinator ships it to
// every node as the Roster's opaque Spec bytes, so every node runs exactly
// the configuration the coordinator decided — SPMD with centrally
// distributed parameters.
const runSpecVersion = 6

// Encode serializes the spec for Roster.Spec.
func (s RunSpec) Encode() []byte {
	return appendLeaves(append(make([]byte, 0, 256), runSpecVersion), reflect.ValueOf(s))
}

func appendLeaves(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			b = appendLeaves(b, v.Field(i))
		}
		return b
	case reflect.String:
		return append(binary.AppendUvarint(b, uint64(v.Len())), v.String()...)
	case reflect.Float64:
		return binary.AppendUvarint(b, math.Float64bits(v.Float()))
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	default: // the integer kinds; anything else panics in Int
		return binary.AppendUvarint(b, uint64(v.Int()))
	}
}

// DecodeRunSpec parses an encoded spec, rejecting corrupt, truncated,
// trailing or version-mismatched input.
func DecodeRunSpec(b []byte) (RunSpec, error) {
	if len(b) == 0 || b[0] != runSpecVersion {
		return RunSpec{}, fmt.Errorf("bench: run spec is empty or not version %d", runSpecVersion)
	}
	var s RunSpec
	if rest, ok := readLeaves(b[1:], reflect.ValueOf(&s).Elem()); !ok {
		return RunSpec{}, fmt.Errorf("bench: corrupt run spec")
	} else if len(rest) != 0 {
		return RunSpec{}, fmt.Errorf("bench: %d trailing bytes after run spec", len(rest))
	}
	return s, nil
}

// readLeaves is appendLeaves in reverse: it fills v from b and returns the
// unread rest, or false at the first malformed leaf.
func readLeaves(b []byte, v reflect.Value) (rest []byte, ok bool) {
	if v.Kind() == reflect.Struct {
		ok = true
		for i := 0; ok && i < v.NumField(); i++ {
			b, ok = readLeaves(b, v.Field(i))
		}
		return b, ok
	}
	u, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, false
	}
	b = b[n:]
	switch v.Kind() {
	case reflect.String:
		if u > uint64(len(b)) {
			return nil, false
		}
		v.SetString(string(b[:u]))
		b = b[u:]
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(u))
	case reflect.Bool:
		v.SetBool(u == 1)
		ok = u <= 1
		return b, ok
	default:
		v.SetInt(int64(u))
	}
	return b, true
}

// RunDistNode is the node-side driver: it decodes the session's RunSpec from
// the roster, builds this node's machine stack with the shared builder,
// runs the selected system (the same driver code the in-process backends
// run), writes the node's timeline when the spec traces (as FILE.nodeN, on
// this node's filesystem), and reports the node's partial result to the
// coordinator. premad calls it once per session.
func RunDistNode(n *dist.Node) error {
	spec, err := DecodeRunSpec(n.Spec())
	if err != nil {
		return err
	}
	if err := spec.check(); err != nil {
		return err
	}
	d := lookupSystem(spec.System)
	st, err := spec.buildStack(d, n)
	if err != nil {
		return err
	}
	res, err := spec.runOn(d, st)
	if err != nil {
		return err
	}
	if err := spec.ExportTrace(io.Discard, "", res, fmt.Sprintf("node%d", n.NodeID())); err != nil {
		return err
	}
	return n.Report(encodeDistPartial(res))
}

// runPingPong is the transport round-trip probe: rank 0 bounces Units
// messages off rank 1 and measures the wall-clock total. With the standard
// two-node split the two ranks live in different processes, so the
// measured time is TCP round trips through the full encode/frame/decode
// path.
func runPingPong(dm *dist.Machine, w Workload) (*Result, error) {
	if w.Procs != 2 {
		return nil, fmt.Errorf("bench: pingpong needs exactly 2 processors, got %d", w.Procs)
	}
	rounds := w.Units
	var nsTotal int64
	dm.Spawn("p000", func(ep substrate.Endpoint) {
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			ep.Send(&substrate.Msg{Dst: 1, Tag: substrate.TagApp, Data: i, Size: 8}, substrate.CatMessaging)
			ep.Recv(substrate.CatIdle)
		}
		nsTotal = time.Since(t0).Nanoseconds()
	})
	dm.Spawn("p001", func(ep substrate.Endpoint) {
		for i := 0; i < rounds; i++ {
			msg := ep.Recv(substrate.CatIdle)
			ep.Send(&substrate.Msg{Dst: 0, Tag: substrate.TagApp, Data: msg.Data, Size: 8}, substrate.CatMessaging)
		}
	})
	if err := dm.Run(); err != nil {
		return nil, fmt.Errorf("bench pingpong: %w", err)
	}
	res := collect("pingpong", w, dm)
	if lo, _ := dm.Range(); lo == 0 {
		// Only the rank-0 host reports, so the merged counters are not
		// double-counted.
		res.Counters["pingpong_rounds"] = rounds
		res.Counters["pingpong_ns_total"] = int(nsTotal)
	}
	return res, nil
}

const distPartialVersion = 1

// encodeDistPartial serializes the node-local share of a Result: counters,
// residency, and wire telemetry. Makespan and accounts travel separately in
// the session's Done/Fin frames.
func encodeDistPartial(res *Result) []byte {
	var w wire.Writer
	w.U8(distPartialVersion)
	w.Bytes([]byte(res.System))
	keys := make([]string, 0, len(res.Counters))
	for k := range res.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		w.Bytes([]byte(k))
		w.Int(res.Counters[k])
	}
	w.U32(uint32(len(res.Resident)))
	for _, n := range res.Resident {
		w.Int(n)
	}
	w.U64(res.WireFrames)
	w.U64(res.WireDrift)
	return w.Buf()
}

// distPartial is one node's decoded share.
type distPartial struct {
	system     string
	counters   map[string]int
	resident   []int
	wireFrames uint64
	wireDrift  uint64
}

func decodeDistPartial(b []byte) (*distPartial, error) {
	r := wire.NewReader(b)
	if v := r.U8(); r.Err() == nil && v != distPartialVersion {
		return nil, fmt.Errorf("bench: dist partial version %d, want %d", v, distPartialVersion)
	}
	p := &distPartial{system: string(r.Bytes()), counters: map[string]int{}}
	for i, n := 0, r.Count(5); i < n; i++ { // key length u32 + >=1 byte + int
		k := string(r.Bytes())
		p.counters[k] = r.Int()
	}
	if n := r.Count(1); n > 0 {
		p.resident = make([]int, n)
		for i := range p.resident {
			p.resident[i] = r.Int()
		}
	}
	p.wireFrames = r.U64()
	p.wireDrift = r.U64()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("bench: corrupt dist partial: %w", err)
	}
	return p, nil
}

// DistOptions configures the coordinator side of a distributed run.
type DistOptions struct {
	// Nodes is the node process count.
	Nodes int
	// Listen is the coordinator's control listen address (host:port; port 0
	// picks a free one).
	Listen string
	// Premad is the node daemon binary to spawn ("" resolves premad next
	// to the running executable, then on PATH). Ignored with Attach.
	Premad string
	// Attach skips spawning: the node daemons were started externally and
	// will dial the coordinator themselves.
	Attach bool
	// JoinTimeout and DrainTimeout bound the session phases (zero = dist
	// defaults).
	JoinTimeout  time.Duration
	DrainTimeout time.Duration
}

// premadName is the node daemon's binary name, and the name of the flag
// that overrides where to find it.
const premadName = "premad"

// resolvePremad finds the node daemon binary: an explicit path wins, then a
// premad next to the running executable (the common "go build ./..." layout),
// then PATH.
func resolvePremad(explicit string) (string, error) {
	if explicit != "" {
		return explicit, nil
	}
	if self, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(self), premadName)
		if st, err := os.Stat(cand); err == nil && !st.IsDir() {
			return cand, nil
		}
	}
	path, err := exec.LookPath(premadName)
	if err != nil {
		return "", fmt.Errorf("bench: premad binary not found (build cmd/premad and pass its path, or put it on PATH): %w", err)
	}
	return path, nil
}

// RunDist executes one distributed run end to end from the coordinator
// side: listen, spawn (or await) the node daemons, run the session, and
// merge the per-node partial results into one Result comparable with the
// in-process backends' (same counters, same residency, summed per-node).
// opt is the coordinator configuration in effect; it replaces spec.Dist.
func RunDist(spec RunSpec, opt DistOptions) (*Result, error) {
	spec.Backend, spec.Dist = BackendDist, opt
	if err := spec.check(); err != nil {
		return nil, err
	}
	c, err := dist.Listen(dist.CoordConfig{
		Listen:       opt.Listen,
		Nodes:        opt.Nodes,
		Procs:        spec.W.Procs,
		JoinTimeout:  opt.JoinTimeout,
		DrainTimeout: opt.DrainTimeout,
	})
	if err != nil {
		return nil, err
	}

	var cmds []*exec.Cmd
	killAll := func() {
		for _, cmd := range cmds {
			if cmd.Process != nil {
				cmd.Process.Kill()
			}
			cmd.Wait()
		}
	}
	if !opt.Attach {
		premad, err := resolvePremad(opt.Premad)
		if err != nil {
			c.Close()
			return nil, err
		}
		for i := 0; i < opt.Nodes; i++ {
			cmd := exec.Command(premad,
				"-coord", c.Addr(),
				"-listen", "127.0.0.1:0",
				"-node", strconv.Itoa(i))
			cmd.Stdout = os.Stderr
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				killAll()
				c.Close()
				return nil, fmt.Errorf("bench: spawning premad node %d: %w", i, err)
			}
			cmds = append(cmds, cmd)
		}
	}

	sum, err := c.Run(spec.Encode())
	if err != nil {
		killAll()
		return nil, err
	}
	// The session is complete; the daemons exit on their own after the
	// goodbye. Reap every spawned one, then surface the lowest-numbered
	// nonzero exit.
	var exitErr error
	for i, cmd := range cmds {
		if werr := cmd.Wait(); werr != nil && exitErr == nil {
			exitErr = fmt.Errorf("bench: premad node %d: %w", i, werr)
		}
	}
	if exitErr != nil {
		return nil, exitErr
	}

	res := &Result{
		W:        spec.W,
		Makespan: sum.Makespan,
		Accounts: sum.Accounts,
		Counters: map[string]int{},
	}
	for node, blob := range sum.Reports {
		p, err := decodeDistPartial(blob)
		if err != nil {
			return nil, fmt.Errorf("node %d report: %w", node, err)
		}
		if res.System == "" {
			res.System = p.system
		} else if res.System != p.system {
			return nil, fmt.Errorf("bench: node %d ran system %q, node 0 ran %q", node, p.system, res.System)
		}
		for k, v := range p.counters {
			res.Counters[k] += v
		}
		if p.resident != nil {
			if res.Resident == nil {
				res.Resident = make([]int, spec.W.Procs)
			}
			if len(p.resident) != spec.W.Procs {
				return nil, fmt.Errorf("bench: node %d reported %d residency slots, want %d", node, len(p.resident), spec.W.Procs)
			}
			for i, n := range p.resident {
				res.Resident[i] += n
			}
		}
		res.WireFrames += p.wireFrames
		res.WireDrift += p.wireDrift
	}
	return res, nil
}
