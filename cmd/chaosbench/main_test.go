package main

import (
	"testing"

	"prema/internal/clitest"
)

// The goldens under testdata/ were recorded from the binaries of the commit
// before the RunSpec refactor (ISSUE 13).

func TestGoldenFigures34(t *testing.T) {
	clitest.Golden(t, run, "figs34.golden", "", "-procs", "8", "-units-per-proc", "8", "-figs", "3,4")
}

func TestGoldenCrashAndRejoin(t *testing.T) {
	clitest.Golden(t, run, "recover.golden", "", "-procs", "8", "-units-per-proc", "8", "-figs", "3",
		"-recover", "-fault-plan", "crash:3@35s;recover:3@50s")
}

// TestRejections: every combination the compatibility matrix refuses exits
// 2 with a "chaosbench:" message before the first figure header.
func TestRejections(t *testing.T) {
	dist := []string{"-backend", "dist", "-nodes", "2", "-dist-listen", "127.0.0.1:0"}
	cases := [][]string{
		{"-system", "parmetis"},
		{"-system", "charm", "-fault-plan", "none"},
		{"-system", "none,prema-implicit"},
		{"-backend", "bogus"},
		{"-trace-ring", "0"},
		{"-backend", "real", "-shards", "2"},
		{"-fault-plan", "crash:3@35s"},
		{"-recover", "-shards", "2"},
		{"-rto", "0s"},
		{"-figs", "3,x"},
		{"-figs", "9"},
		append([]string{"-recover"}, dist...),
		append([]string{"-wire"}, dist...),
		append([]string{"-trace", "t.json"}, dist...),
	}
	for _, args := range cases {
		clitest.Rejected(t, run, "chaosbench", args...)
	}
}
