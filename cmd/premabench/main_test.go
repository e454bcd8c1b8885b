package main

import (
	"path/filepath"
	"strings"
	"testing"

	"prema/internal/clitest"
)

// The goldens under testdata/ were recorded from the binaries of the commit
// before the RunSpec refactor (ISSUE 13); they pin what the CLI prints and
// writes.

func TestGoldenChaosDeterminism(t *testing.T) {
	args := []string{"-procs", "8", "-units-per-proc", "8", "-stride", "4",
		"-fault-plan", "drop=0.2,dup=0.1", "-fault-seed", "3", "-reliable"}
	clitest.Golden(t, run, "chaos.golden", "", args...)
	clitest.Golden(t, run, "chaos.golden", "", append(args, "-wire")...)
}

func TestGoldenMultiSystem(t *testing.T) {
	clitest.Golden(t, run, "multi.golden", "",
		"-system", "none,prema-implicit,parmetis,prema-diffusion", "-procs", "16", "-units-per-proc", "8")
}

func TestGoldenTraceAndMetrics(t *testing.T) {
	dir := t.TempDir()
	clitest.Golden(t, run, "trace.golden", dir,
		"-procs", "8", "-units-per-proc", "8", "-stride", "0",
		"-trace", filepath.Join(dir, "p.json"), "-metrics", filepath.Join(dir, "m.json"))
	clitest.SHA256Files(t, "trace_files.sha256", dir)
}

// TestPolicySuiteUnderChaos: a policy-suite system takes reliable delivery
// and a fault plan like every other PREMA row of the system table (the
// invocation exited 2 while the suite ran on its own driver): it conserves
// every unit and is same-seed byte-identical.
func TestPolicySuiteUnderChaos(t *testing.T) {
	args := []string{"-system", "prema-diffusion", "-procs", "8", "-units-per-proc", "8", "-stride", "0",
		"-reliable", "-fault-plan", "drop=0.2,dup=0.1", "-fault-seed", "3"}
	code, first, errOut := clitest.Run(run, args...)
	if code != 0 {
		t.Fatalf("%v: exit %d, stderr:\n%s", args, code, errOut)
	}
	if !strings.Contains(first, "counters (prema-diffusion): map[") || !strings.Contains(first, "units_run:64]") {
		t.Errorf("no conserved unit count in:\n%s", first)
	}
	if _, second, _ := clitest.Run(run, args...); second != first {
		t.Errorf("same seed, different output:\n%s\nvs\n%s", first, second)
	}
}

// TestLossyPromisedRunFails: a run whose spec promises every unit (-recover)
// and that loses some must not exit 0. The plan crashes a processor inside
// the final quiesce window, where no surviving peer notices (ROADMAP 4(d)):
// 18 of 24 units run. This is the detection half; when 4(d)'s protocol fix
// lands the same invocation becomes a clean run and this test flips to
// expecting exit 0 with units_run:24.
func TestLossyPromisedRunFails(t *testing.T) {
	code, out, errOut := clitest.Run(run, "-system", "prema-implicit", "-imbalance", "0.1", "-ratio", "1.2",
		"-procs", "4", "-units-per-proc", "6", "-recover", "-fault-plan", "crash:3@32100ms")
	if code != 1 || out != "" || !strings.Contains(errOut, "ran 18 units, want 24") {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 1, no stdout, got/want unit counts on stderr", code, out, errOut)
	}
}

// TestRejections: every combination the compatibility matrix refuses exits
// 2 with a "premabench:" message before any run output. The first three are
// the lines CI's dist smoke leg used to check on a built binary.
func TestRejections(t *testing.T) {
	dist := []string{"-backend", "dist", "-nodes", "4", "-dist-listen", "127.0.0.1:0"}
	cases := [][]string{
		{"-backend", "dist", "-nodes", "4"},
		{"-nodes", "4", "-dist-listen", "127.0.0.1:0"},
		append([]string{"-shards", "2"}, dist...),

		{"-backend", "bogus"},
		{"-backend", "bogus", "-fault-plan", "drop=0.1", "-reliable"},
		{"-backend", "real", "-system", "parmetis"},
		{"-backend", "real", "-system", "parmetis", "-reliable"},
		append([]string{"-system", "charm"}, dist...),
		{"-system", "parmetis", "-reliable"},
		{"-system", "charm", "-fault-plan", "drop=0.1"},
		{"-system", "charm-sync4", "-recover"},
		{"-system", "parmetis", "-wire"},
		{"-system", "parmetis", "-trace", "t.json"},
		{"-system", "none,parmetis", "-metrics", "m.txt"},

		{"-trace-ring", "0"},
		{"-trace", "t.json", "-trace-ring", "0"},

		{"-fault-plan", "crash:3@35s"},
		{"-fault-plan", "drop=0.01"},
		{"-recover", "-fault-plan", "crash:0@35s"},
		{"-system", "quantum"},
		{"-hints", "psychic"},
		{"stray"},
	}
	for _, args := range cases {
		clitest.Rejected(t, run, "premabench", args...)
	}
}

func TestHelpAndBadFlag(t *testing.T) {
	if code, out, _ := clitest.Run(run, "-h"); code != 0 || out != "" {
		t.Errorf("-h: exit %d, stdout %q", code, out)
	}
	for _, flag := range []string{"-no-such-flag", "-spin"} { // -spin is a deleted option
		if code, out, _ := clitest.Run(run, flag); code != 2 || out != "" {
			t.Errorf("%s: exit %d, stdout %q", flag, code, out)
		}
	}
}
