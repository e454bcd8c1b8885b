package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prema/internal/bench"
	"prema/internal/clitest"
)

// The goldens under testdata/ are what the tracestat binary of the last
// commit with os.Exit in main printed for the trace files that commit's
// `premabench -procs 8 -units-per-proc 8 -stride 0 -trace FILE` wrote, alone
// and with `-recover -fault-plan crash:3@35s`. The trace files are 14-16 MB,
// so the tests write them afresh with premabench's own spec.

// writeTrace runs premabench's default workload at 8x8 and returns the path
// of the Chrome trace it exported.
func writeTrace(t *testing.T, recover bool, faultPlan string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.json")
	spec := bench.RunSpec{
		System:       "prema-implicit",
		W:            bench.Workload{Procs: 8},
		UnitsPerProc: 8,
		FaultSeed:    1,
		Recover:      recover,
		FaultPlan:    faultPlan,
		TracePath:    path,
	}.WithDefaults().ForFigure(bench.FigureSpec{Imbalance: 0.5, Ratio: 2.0})
	r, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.ExportTrace(io.Discard, "", r, ""); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGoldenClean(t *testing.T) {
	clitest.Golden(t, run, "clean.golden", "", writeTrace(t, false, ""))
}

// The crashed run fills the recovery columns and the recovery summary lines.
func TestGoldenRecover(t *testing.T) {
	clitest.Golden(t, run, "recover.golden", "", writeTrace(t, true, "crash:3@35s"))
}

func TestRejections(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"a.json", "b.json"},
		{"-stride", "-1", "a.json"},
	} {
		clitest.Rejected(t, run, "tracestat", args...)
	}
	// A file that is not a trace is a failed run, not a usage error: exit 1.
	dir := t.TempDir()
	for name, content := range map[string]string{
		"not.json":       "trace: 8 processors\n",
		"empty.json":     `{"displayTimeUnit": "ms"}`,
		"array.json":     `[{"ph":"i","name":"send"}]`,
		"truncated.json": `{"traceEvents":[{"ph":"i","name":"send"},{"ph"`,
		"trailing.json":  `{"traceEvents":[{"ph":"i","name":"send"}]} x`,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		code, out, errOut := clitest.Run(run, path)
		if code != 1 || out != "" || !strings.HasPrefix(errOut, "tracestat: ") {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 1, no stdout, a tracestat: message", name, code, out, errOut)
		}
	}
}
