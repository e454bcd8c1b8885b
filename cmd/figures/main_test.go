package main

import (
	"path/filepath"
	"testing"

	"prema/internal/clitest"
)

// The goldens under testdata/ were recorded from the binaries of the commit
// before the RunSpec refactor (ISSUE 13).

func TestGoldenFigure3(t *testing.T) {
	args := []string{"-fig", "3", "-procs", "32", "-units-per-proc", "16"}
	clitest.Golden(t, run, "fig3.golden", "", args...)
	// Shards and the wire loopback change no output byte.
	clitest.Golden(t, run, "fig3.golden", "", append(args, "-shards", "4", "-wire")...)
}

func TestGoldenFigure4Traced(t *testing.T) {
	dir := t.TempDir()
	clitest.Golden(t, run, "fig4_trace.golden", dir,
		"-fig", "4", "-procs", "16", "-units-per-proc", "8", "-trace", filepath.Join(dir, "t.json"))
	clitest.SHA256Files(t, "fig4_trace.sha256", dir)
}

func TestTaxonomy(t *testing.T) {
	if code, out, _ := clitest.Run(run, "-fig", "1"); code != 0 || out != taxonomy {
		t.Errorf("-fig 1: exit %d, stdout:\n%s", code, out)
	}
}

// TestRejections: every combination the compatibility matrix (or figures'
// own -fig/-backend checks) refuses exits 2 with a "figures:" message
// before any simulation runs.
func TestRejections(t *testing.T) {
	dist := []string{"-backend", "dist", "-nodes", "2", "-dist-listen", "127.0.0.1:0"}
	cases := [][]string{
		{"-trace", "t.json", "-trace-ring", "0"},
		{"-trace-ring", "-1"},
		{"-backend", "real"},
		{"-backend", "bogus"},
		{"-fig", "7"},
		{"-shards", "0"},
		{"-nodes", "2"},
		{"-backend", "dist", "-fig", "3", "-nodes", "2"},
		append([]string{"-fig", "0"}, dist...),
		append([]string{"-fig", "1"}, dist...),
		append([]string{"-fig", "3", "-shards", "2"}, dist...),
		append([]string{"-fig", "3", "-wire"}, dist...),
		append([]string{"-fig", "3", "-trace", "t.json"}, dist...),
		append([]string{"-fig", "3", "-procs", "1"}, dist...),
	}
	for _, args := range cases {
		clitest.Rejected(t, run, "figures", args...)
	}
}
