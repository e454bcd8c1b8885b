//go:build race

package bench

// raceDetector reports whether this test binary was built with -race.
// Instrumentation slows every memory access, so wall-clock fidelity tests
// skip under it.
const raceDetector = true
