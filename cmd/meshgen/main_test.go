package main

import (
	"testing"

	"prema/internal/clitest"
)

// The goldens under testdata/ were recorded from the binary of the last
// commit with one driver per (system, application) pair; default.golden is
// the mesh half (the last 10 lines) of figs_full_scale.txt.

func TestGoldenDefault(t *testing.T) {
	clitest.Golden(t, run, "default.golden", "")
}

// The breakdown headers print Result.System and Result.W.
func TestGoldenBreakdowns(t *testing.T) {
	clitest.Golden(t, run, "procs8_iters5_stride2.golden", "", "-procs", "8", "-iters", "5", "-stride", "2")
}

func TestRejections(t *testing.T) {
	for _, args := range [][]string{
		{"-procs", "0"},
		{"-iters", "0"},
		{"-stride", "-1"},
		{"-jobs", "0"},
		{"stray"},
	} {
		clitest.Rejected(t, run, "meshgen", args...)
	}
	// The flag package words this one itself.
	if code, out, _ := clitest.Run(run, "-bogus"); code != 2 || out != "" {
		t.Errorf("-bogus: exit %d, stdout %q; want exit 2, no stdout", code, out)
	}
}
