package bench

import (
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// validSpec is a spelled-out spec every rule accepts: prema-implicit on an
// 8-processor simulator.
func validSpec() RunSpec {
	return RunSpec{System: "prema-implicit", W: Workload{Procs: 8, Units: 64}}.WithDefaults()
}

// onDist moves a spec onto the distributed backend with its required flags.
func onDist(s *RunSpec) {
	s.Backend = BackendDist
	s.Dist = DistOptions{Nodes: 2, Listen: "127.0.0.1:0"}
}

// validateCases drives Validate: per rule row, specs the rule rejects (want
// names a flag the message must mention) and neighbouring specs that pass
// (want == ""). The "repro" rows are the drifted invocations ISSUE 13
// recorded at the parent commit, one per CLI line.
var validateCases = []struct {
	rule, name string
	mut        func(*RunSpec)
	want       string
}{
	{"procs-range", "no processors", func(s *RunSpec) { s.W.Procs = 0 }, "-procs"},
	{"procs-range", "template without units", func(s *RunSpec) { s.W.Units = 0 }, "-units-per-proc"},
	{"procs-range", "template with units-per-proc", func(s *RunSpec) { s.W.Units, s.UnitsPerProc = 0, 8 }, ""},
	{"stride-range", "negative", func(s *RunSpec) { s.Stride = -1 }, "-stride"},
	{"stride-range", "summaries only", func(s *RunSpec) { s.Stride = 0 }, ""},
	{"jobs-range", "negative", func(s *RunSpec) { s.Jobs = -1 }, "-jobs"},
	{"jobs-range", "explicit", func(s *RunSpec) { s.Jobs = 3 }, ""},
	{"shards-range", "zero", func(s *RunSpec) { s.W.Shards = 0 }, "-shards"},
	{"shards-range", "four", func(s *RunSpec) { s.W.Shards = 4 }, ""},
	{"timescale-range", "zero", func(s *RunSpec) { s.TimeScale = 0 }, "-timescale"},
	{"timescale-range", "NaN", func(s *RunSpec) { s.TimeScale = math.NaN() }, "-timescale"},
	{"timescale-range", "infinite", func(s *RunSpec) { s.TimeScale = math.Inf(1) }, "-timescale"},
	{"timescale-range", "slow", func(s *RunSpec) { s.TimeScale = 0.5 }, ""},
	{"rto-range", "zero", func(s *RunSpec) { s.RTO = 0 }, "-rto"},
	{"rto-range", "1ms", func(s *RunSpec) { s.Reliable, s.RTO = true, 1_000_000 }, ""},
	{"recov-timers", "negative lease", func(s *RunSpec) { s.LeaseTimeout = -1 }, "-lease-timeout"},
	{"recov-timers", "negative interval", func(s *RunSpec) { s.CheckpointInterval = -1 }, "-checkpoint-interval"},
	{"recov-timers", "explicit", func(s *RunSpec) { s.Recover, s.LeaseTimeout, s.CheckpointInterval = true, 1e9, 2e9 }, ""},
	{"trace-ring-range", "repro: figures -trace t.json -trace-ring 0", func(s *RunSpec) {
		s.System, s.TracePath, s.TraceRing = "", "t.json", 0
	}, "-trace-ring"},
	{"trace-ring-range", "rejected even when not tracing", func(s *RunSpec) { s.TraceRing = -5 }, "-trace-ring"},
	{"trace-ring-range", "tiny", func(s *RunSpec) { s.Trace, s.TraceRing = true, 1 }, ""},
	{"backend-name", "repro: premabench -backend bogus -fault-plan drop=0.1 -reliable", func(s *RunSpec) {
		s.Backend, s.FaultPlan, s.Reliable = "bogus", "drop=0.1", true
	}, "-backend"},
	{"backend-name", "real", func(s *RunSpec) { s.Backend = BackendReal }, ""},
	{"system-name", "unknown", func(s *RunSpec) { s.System = "none,quantum" }, "-system \"quantum\""},
	{"system-name", "figure template", func(s *RunSpec) { s.System = "" }, ""},

	{"dist-needs", "no listen address", func(s *RunSpec) { onDist(s); s.Dist.Listen = "" }, "-dist-listen"},
	{"dist-needs", "no nodes", func(s *RunSpec) { onDist(s); s.Dist.Nodes = 0 }, "-nodes"},
	{"dist-needs", "both", onDist, ""},
	{"dist-only", "nodes on sim", func(s *RunSpec) { s.Dist.Nodes = 4 }, "-nodes"},
	{"dist-only", "premad on real", func(s *RunSpec) { s.Backend, s.Dist.Premad = BackendReal, "/bin/premad" }, "-premad"},
	{"dist-only", "attach", func(s *RunSpec) { onDist(s); s.Dist.Attach = true }, ""},
	{"dist-nodes", "more nodes than processors", func(s *RunSpec) { onDist(s); s.Dist.Nodes = 9 }, "-nodes"},
	{"dist-nodes", "one processor per node", func(s *RunSpec) { onDist(s); s.Dist.Nodes = 8 }, ""},
	{"probe", "pingpong on sim", func(s *RunSpec) { s.System = "pingpong" }, "-backend=dist"},
	{"probe", "pingpong on dist", func(s *RunSpec) { onDist(s); s.System = "pingpong" }, ""},

	{"shards-sim", "real", func(s *RunSpec) { s.Backend, s.W.Shards = BackendReal, 2 }, "-shards"},
	{"shards-sim", "dist", func(s *RunSpec) { onDist(s); s.W.Shards = 2 }, "-shards"},
	{"shards-sim", "sim", func(s *RunSpec) { s.W.Shards = 2 }, ""},
	{"model-sim", "a list with a cost model on real", func(s *RunSpec) { s.Backend, s.System = BackendReal, "none,parmetis" }, "-system \"parmetis\""},
	{"model-sim", "a list with a cost model on sim", func(s *RunSpec) { s.System = "none, prema-implicit,parmetis,prema-diffusion" }, ""},
	{"model-sim", "a PREMA list on real (runs one after another: TestRunSystemsOrdering)", func(s *RunSpec) {
		s.Backend, s.System = BackendReal, "none,prema-implicit"
	}, ""},
	{"model-sim", "a PREMA list on dist", func(s *RunSpec) { onDist(s); s.System = "none,prema-implicit" }, ""},
	{"model-sim", "repro: premabench -backend real -system parmetis", func(s *RunSpec) {
		s.Backend, s.System = BackendReal, "parmetis"
	}, "-system \"parmetis\""},
	{"model-sim", "repro: premabench -backend real -system parmetis -reliable", func(s *RunSpec) {
		s.Backend, s.System, s.Reliable = BackendReal, "parmetis", true
	}, "-backend=sim"},
	{"model-sim", "charm on dist", func(s *RunSpec) { onDist(s); s.System = "charm" }, "-system \"charm\""},
	{"model-sim", "charm-sync4 on sim", func(s *RunSpec) { s.System = "charm-sync4" }, ""},

	{"transport", "repro: chaosbench -system parmetis", func(s *RunSpec) {
		s.System, s.Reliable, s.FaultPlan = "parmetis", true, "drop=0.2,dup=0.1"
	}, "-fault-plan"},
	{"transport", "wire", func(s *RunSpec) { s.System, s.W.Wire = "charm", true }, "-wire"},
	{"transport", "trace", func(s *RunSpec) { s.System, s.TracePath = "none,charm", "t.json" }, "-trace"},
	{"transport", "metrics", func(s *RunSpec) { s.System, s.MetricsPath = "charm-sync4", "m.txt" }, "-metrics"},
	{"transport", "reliable", func(s *RunSpec) { s.System, s.Reliable = "parmetis", true }, "-reliable"},
	{"transport", "recover", func(s *RunSpec) { s.System, s.Recover = "parmetis", true }, "-recover"},
	{"transport", "everything on a PREMA stack", func(s *RunSpec) {
		s.W.Wire, s.TracePath, s.MetricsPath, s.Reliable, s.FaultPlan = true, "t.json", "m.txt", true, "drop=0.1"
	}, ""},
	{"transport", "inactive plan on a cost model", func(s *RunSpec) { s.System, s.FaultPlan = "parmetis", "none" }, ""},
	{"transport", "repro: premabench -system prema-diffusion -reliable (refused while the policy suite had its own driver)", func(s *RunSpec) {
		s.System, s.Reliable = "prema-diffusion", true
	}, ""},
	{"transport", "the same on -backend dist", func(s *RunSpec) {
		onDist(s)
		s.System, s.Reliable = "prema-diffusion", true
	}, ""},
	{"transport", "policy suite under a fault plan", func(s *RunSpec) { s.System, s.FaultPlan = "prema-multilist", "dup=0.1" }, ""},
	{"transport", "policy suite with recovery", func(s *RunSpec) {
		s.System, s.Recover, s.FaultPlan = "prema-worksteal", true, "crash:3@35s"
	}, ""},

	{"recover-serial", "sharded", func(s *RunSpec) { s.Recover, s.W.Shards = true, 2 }, "-shards=1"},
	{"recover-serial", "serial", func(s *RunSpec) { s.Recover = true }, ""},
	{"recover-dist", "dist", func(s *RunSpec) { onDist(s); s.Recover = true }, "-recover"},
	{"recover-dist", "real", func(s *RunSpec) { s.Backend, s.Recover = BackendReal, true }, ""},
	{"failstop", "crash without recover", func(s *RunSpec) { s.Reliable, s.FaultPlan = true, "crash:3@35s" }, "-recover"},
	{"failstop", "crash on dist", func(s *RunSpec) { onDist(s); s.FaultPlan = "crash:3@35s" }, "-recover"},
	{"failstop", "crash and rejoin with recover", func(s *RunSpec) { s.Recover, s.FaultPlan = true, "crash:3@35s;recover:3@50s" }, ""},
	{"drop-reliable", "repro: premabench -fault-plan drop=0.01 (ran forever)", func(s *RunSpec) { s.FaultPlan = "drop=0.01" }, "-reliable"},
	{"drop-reliable", "a lossy link override", func(s *RunSpec) { s.FaultPlan = "dup=0.1;link:2-3:drop=0.5" }, "-reliable"},
	{"drop-reliable", "lossless faults without it", func(s *RunSpec) { s.FaultPlan = "dup=0.1,delay=0.2,reorder=0.2;stall:2@5s+1s" }, ""},
	{"crash-target", "the head node", func(s *RunSpec) { s.Recover, s.FaultPlan = true, "crash:0@35s" }, "-fault-plan"},
	{"crash-target", "beyond the machine", func(s *RunSpec) { s.Recover, s.FaultPlan = true, "crash:8@35s" }, "-procs"},
	{"crash-target", "first and last crashable", func(s *RunSpec) { s.Recover, s.FaultPlan = true, "crash:1@35s;crash:7@40s" }, ""},

	{"wire-dist", "dist", func(s *RunSpec) { onDist(s); s.W.Wire = true }, "-wire"},
	{"wire-dist", "real", func(s *RunSpec) { s.Backend, s.W.Wire = BackendReal, true }, ""},
	{"metrics-dist", "dist", func(s *RunSpec) { onDist(s); s.MetricsPath = "m.txt" }, "-metrics"},
	{"metrics-dist", "trace on dist", func(s *RunSpec) { onDist(s); s.TracePath = "t.json" }, ""},
	{"metrics-dist", "reliable faults on dist", func(s *RunSpec) { onDist(s); s.Reliable, s.FaultPlan = true, "drop=0.2" }, ""},
}

// TestValidateRuleTable: every case gets the verdict it names from the rule
// it names, every rejection message mentions the offending flag, and every
// rule row has at least one rejected and one accepted case — so a new rule
// cannot land untested.
func TestValidateRuleTable(t *testing.T) {
	msgOf := map[string]string{}
	for _, r := range rules {
		if _, dup := msgOf[r.id]; dup {
			t.Errorf("rule id %q declared twice", r.id)
		}
		msgOf[r.id] = r.msg
	}
	rejected, accepted := map[string]int{}, map[string]int{}
	for _, c := range validateCases {
		msg, known := msgOf[c.rule]
		if !known {
			t.Errorf("case %q names rule %q, which is not in the table", c.name, c.rule)
			continue
		}
		s := validSpec()
		c.mut(&s)
		err := s.Validate()
		label := c.rule + "/" + c.name
		if c.want == "" {
			accepted[c.rule]++
			if err != nil {
				t.Errorf("%s: rejected: %v", label, err)
			}
			continue
		}
		rejected[c.rule]++
		if err == nil {
			t.Errorf("%s: accepted", label)
			continue
		}
		// The rule's message, up to the culprit it interpolates.
		if head, _, _ := strings.Cut(msg, "%q"); !strings.HasPrefix(err.Error(), head) {
			t.Errorf("%s: rejected by another rule: %v", label, err)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: message %q does not name %s", label, err, c.want)
		}
	}
	for _, r := range rules {
		if rejected[r.id] == 0 || accepted[r.id] == 0 {
			t.Errorf("rule %q has %d rejected and %d accepted cases; want at least one of each",
				r.id, rejected[r.id], accepted[r.id])
		}
	}
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("the base spec is invalid: %v", err)
	}
	bad := validSpec()
	bad.FaultPlan = "drop=lots"
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "-fault-plan") {
		t.Errorf("unparsable plan: %v", err)
	}
}

// TestRunValidates: Run spells out zero fields, so a bare programmatic spec
// runs, and refuses what Validate refuses before anything executes.
func TestRunValidates(t *testing.T) {
	w := PaperWorkload(Figures()[0], 4, 2)
	if _, err := (RunSpec{System: "none", W: w}).Run(); err != nil {
		t.Errorf("bare spec: %v", err)
	}
	if _, err := (RunSpec{System: "prema-diffusion", W: w, Reliable: true}).Run(); err != nil {
		t.Errorf("policy system with -reliable: %v", err)
	}
	for name, s := range map[string]RunSpec{
		"cost model with -reliable": {System: "parmetis", W: w, Reliable: true},
		"no system":                 {W: w},
		"negative trace ring":       {System: "none", W: w, Trace: true, TraceRing: -1},
	} {
		if _, err := s.Run(); err == nil {
			t.Errorf("%s: Run accepted it", name)
		}
	}
}

// TestFlagTableBinds: every table row binds, flags write through to the
// spec, and defaults come from the spec the CLI passes in.
func TestFlagTableBinds(t *testing.T) {
	var all []string
	for name := range flagTable {
		all = append(all, name)
	}
	s := RunSpec{W: Workload{Procs: 32}, TimeScale: 1e-2}.WithDefaults()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	s.BindFlags(fs, strings.Join(all, " "))
	if got := fs.Lookup("procs").DefValue; got != "32" {
		t.Errorf("procs default %q, want the bound spec's 32", got)
	}
	if got := fs.Lookup("timescale").DefValue; got != "0.01" {
		t.Errorf("timescale default %q", got)
	}
	err := fs.Parse([]string{"-shards", "4", "-lease-timeout", "3s", "-wire", "-fault-seed", "9", "-nodes", "2", "-system", "a, b"})
	if err != nil {
		t.Fatal(err)
	}
	if s.W.Shards != 4 || s.LeaseTimeout.Duration() != 3*time.Second || !s.W.Wire || s.FaultSeed != 9 || s.Dist.Nodes != 2 {
		t.Errorf("flags did not reach the spec: %+v", s)
	}
	if got := s.Systems(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("Systems() = %q", got)
	}
}

// fullSpec sets every RunSpec field to a distinct non-zero value.
func fullSpec(t *testing.T) RunSpec {
	s := RunSpec{
		System: "prema-explicit",
		W: Workload{
			Procs: 8, Units: 64, HeavyFrac: 0.3, Heavy: 7e9, Light: 3e9, Hints: HintAccurate,
			UnitBytes: 4096, Seed: -1 << 40, Shards: 3, Wire: true,
		},
		Backend: BackendDist, TimeScale: 1.0 / 3,
		Reliable: true, RTO: 5e7,
		FaultPlan: "drop=0.2,dup=0.1;stall:2@100s+20s", FaultSeed: 1<<62 + 1,
		Recover: true, CheckpointInterval: 1e9, LeaseTimeout: 5e8,
		Trace: true, TracePath: "/tmp/t.json", MetricsPath: "m.txt", TraceRing: 4096,
		Dist:         DistOptions{Nodes: 4, Listen: "127.0.0.1:0", Premad: "/bin/premad", Attach: true},
		UnitsPerProc: 8, Jobs: 2, Stride: 4,
	}
	var zero func(path string, v reflect.Value)
	zero = func(path string, v reflect.Value) {
		if v.Kind() == reflect.Struct {
			for i := 0; i < v.NumField(); i++ {
				zero(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		} else if v.IsZero() {
			t.Errorf("fullSpec leaves %s zero: a new field must join the round-trip test", path)
		}
	}
	zero("RunSpec", reflect.ValueOf(s))
	return s
}

// TestRunSpecRoundTrip: the travelling form carries every field exactly,
// and the decoder refuses corrupt, truncated, trailing and version-skewed
// input.
func TestRunSpecRoundTrip(t *testing.T) {
	want := fullSpec(t)
	enc := want.Encode()
	got, err := DecodeRunSpec(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the spec:\n got %+v\nwant %+v", got, want)
	}
	zeroEnc := RunSpec{}.Encode()
	if z, err := DecodeRunSpec(zeroEnc); err != nil || !reflect.DeepEqual(z, RunSpec{}) {
		t.Errorf("zero spec: %+v, %v", z, err)
	}
	// An older premad or coordinator speaks version 6, whose zero spec is
	// one zero byte per leaf, two leaves (Dist.JoinTimeout, DrainTimeout)
	// more than today.
	v6 := append([]byte{6}, make([]byte, len(zeroEnc)-1+2)...)
	unreliable := want
	unreliable.Reliable = false
	badBool := unreliable.Encode()
	for i := range badBool { // the one byte that differs is the bool's
		if badBool[i] != enc[i] {
			badBool[i] = 7
		}
	}
	for name, b := range map[string][]byte{
		"empty":         nil,
		"version only":  enc[:1],
		"truncated":     enc[:len(enc)/2],
		"trailing byte": append(append([]byte{}, enc...), 0),
		"second value":  append(append([]byte{}, enc...), enc...),
		"version 6":     v6,
		"string length": append([]byte{runSpecVersion, 0xff, 0xff, 0x03}, enc[2:]...),
		"bad bool":      badBool,
	} {
		if _, err := DecodeRunSpec(b); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	for n := range enc { // every strict prefix is a truncation
		if _, err := DecodeRunSpec(enc[:n]); err == nil {
			t.Errorf("prefix of %d/%d bytes decoded without error", n, len(enc))
		}
	}
}

// matrixFeatures are the rows of the compatibility matrix: one knob each,
// applied to an otherwise plain run.
var matrixFeatures = []struct {
	name string
	on   func(*RunSpec)
}{
	{"plain run", func(*RunSpec) {}},
	{"`-shards 2`", func(s *RunSpec) { s.W.Shards = 2 }},
	{"`-wire`", func(s *RunSpec) { s.W.Wire = true }},
	{"`-trace`", func(s *RunSpec) { s.TracePath = "t.json" }},
	{"`-metrics`", func(s *RunSpec) { s.MetricsPath = "m.txt" }},
	{"`-reliable`", func(s *RunSpec) { s.Reliable = true }},
	{"`-fault-plan drop=0.1`", func(s *RunSpec) { s.FaultPlan = "drop=0.1" }},
	{"`-reliable -fault-plan drop=0.1`", func(s *RunSpec) { s.Reliable, s.FaultPlan = true, "drop=0.1" }},
	{"`-recover`", func(s *RunSpec) { s.Recover = true }},
	{"`-recover -fault-plan crash:3@35s`", func(s *RunSpec) { s.Recover, s.FaultPlan = true, "crash:3@35s" }},
	{"`-system a,b` (multi-system)", func(s *RunSpec) { s.System += "," + s.System }},
}

// renderMatrix evaluates Validate over backend × system class × feature and
// renders DESIGN.md's "what composes with what" block: a cell is "yes" or
// the number of the rule message, listed underneath, that refuses it.
func renderMatrix() string {
	backends := []struct {
		name string
		on   func(*RunSpec)
	}{
		{BackendSim, func(*RunSpec) {}},
		{BackendReal, func(s *RunSpec) { s.Backend = BackendReal }},
		{BackendDist, onDist},
	}
	classes := []struct{ name, system string }{
		{"PREMA", "prema-implicit"}, {"cost model", "parmetis"},
	}
	var b strings.Builder
	b.WriteString("| |")
	for _, be := range backends {
		for _, cl := range classes {
			fmt.Fprintf(&b, " %s: %s |", be.name, cl.name)
		}
	}
	b.WriteString("\n|---|" + strings.Repeat("---|", len(backends)*len(classes)) + "\n")
	var notes []string
	for _, f := range matrixFeatures {
		fmt.Fprintf(&b, "| %s |", f.name)
		for _, be := range backends {
			for _, cl := range classes {
				s := validSpec()
				s.System = cl.system
				be.on(&s)
				f.on(&s)
				cell := "yes"
				if err := s.Validate(); err != nil {
					msg := strings.ReplaceAll(err.Error(), fmt.Sprintf("%q", cl.system), "S")
					n := 0
					for n < len(notes) && notes[n] != msg {
						n++
					}
					if n == len(notes) {
						notes = append(notes, msg)
					}
					cell = fmt.Sprintf("no (%d)", n+1)
				}
				fmt.Fprintf(&b, " %s |", cell)
			}
		}
		b.WriteByte('\n')
	}
	b.WriteByte('\n')
	for i, n := range notes {
		fmt.Fprintf(&b, "%d. %s\n", i+1, n)
	}
	return b.String()
}

// TestDesignMatrixInSync: the matrix checked into DESIGN.md is the one the
// rule table renders today, so the two cannot drift.
func TestDesignMatrixInSync(t *testing.T) {
	const begin, end = "<!-- compat-matrix:begin -->\n", "<!-- compat-matrix:end -->"
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(doc), begin)
	block, _, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatalf("DESIGN.md has no %q ... %q block", begin, end)
	}
	if want := renderMatrix(); block != want {
		t.Errorf("DESIGN.md's compatibility matrix is stale; replace the block between the markers with:\n%s", want)
	}
}
