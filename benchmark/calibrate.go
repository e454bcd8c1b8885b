package main

import (
	"math/rand"
	"syscall"
	"time"
)

// A shared host is not one machine over time. On the authoring host every
// memory- or handoff-bound program — all seven workloads except the
// timer-bound dist2_fig3 — runs 25 to 40 % slower for minutes at a stretch and
// then recovers, while an ALU loop does not move by 3 %. Two suites of the
// same commit, run back to back across such a change, differ by more than
// any bound a regression gate could use.
//
// The benchmark therefore carries a reference kernel that never changes with
// the program: four small loops that are slow in the same phases for the same
// reasons (a dependent-load chase through 4 MB, a 32 MB copy, a goroutine
// ping-pong over unbuffered channels, a burst of small allocations). It is
// sampled before every timed run; the host's slowdown is the median over a
// measurement's samples of the mean of the four loops' times, each relative
// to its time on the calm authoring host. wall_s and setup_s are the measured
// seconds divided by that slowdown: "seconds on the calm reference host".
// Over 38 minutes spanning two slow phases this took the spread between
// medians of ten measurements from 26-30 % to 4-6 % on fig3_parmetis,
// fig3_chaos and fig3_implicit alike. The raw seconds and the factor are
// reported beside it as host.wall_raw_s and host.slowdown_x.
//
// dist2_fig3 is the exception: its wall time is scaled virtual time slept on
// timers, which no host phase stretches (its raw spread is 2 %), so dividing
// it by the slowdown would put the drift in instead of taking it out. Its
// seconds are reported as measured.

// Calm-host seconds of each loop on the authoring host (Go 1.24, 2 cores),
// sampled as the benchmark samples them, between runs of the workloads, while
// the host was calm. They only fix the scale: with any other constants every
// wall_s changes by one common factor.
const (
	calmChase = 0.0326
	calmCopy  = 0.0136
	calmChan  = 0.0155
	calmAlloc = 0.0154
)

type calibration struct {
	cycle    []int32 // one random cycle through 4 MB
	src, dst []byte  // outside the Go heap: 64 MB of live heap would halve the workloads' collections
	samples  []float64
	sink     int
}

func newCalibration() (*calibration, error) {
	c := &calibration{cycle: make([]int32, 1<<20)}
	perm := rand.New(rand.NewSource(1)).Perm(len(c.cycle))
	for i, p := range perm {
		c.cycle[p] = int32(perm[(i+1)%len(perm)])
	}
	var err error
	if c.src, err = syscall.Mmap(-1, 0, 32<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE); err != nil {
		return nil, err
	}
	if c.dst, err = syscall.Mmap(-1, 0, 32<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE); err != nil {
		return nil, err
	}
	for i := range c.src { // fault the pages in before the first sample
		c.src[i], c.dst[i] = byte(i), 1
	}
	c.sample()
	c.samples = c.samples[:0] // the first pass is a warm-up
	return c, nil
}

func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }

func (c *calibration) chase() float64 {
	t0 := time.Now()
	j := int32(c.sink & 1)
	for i := 0; i < 1_000_000; i++ {
		j = c.cycle[j]
	}
	c.sink += int(j)
	return since(t0)
}

func (c *calibration) copyLoop() float64 {
	t0 := time.Now()
	for i := 0; i < 4; i++ {
		copy(c.dst, c.src)
	}
	return since(t0)
}

func (c *calibration) pingPong() float64 {
	t0 := time.Now()
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	for i := 0; i < 30_000; i++ {
		ping <- i
		c.sink += <-pong
	}
	close(ping)
	<-pong // wait for the peer to end
	return since(t0)
}

type calNode struct {
	next *calNode
	pad  [6]int
}

func (c *calibration) allocLoop() float64 {
	t0 := time.Now()
	var head *calNode
	for i := 0; i < 400_000; i++ {
		head = &calNode{next: head}
		if i%64 == 0 {
			head = nil
		}
	}
	if head != nil {
		c.sink++
	}
	return since(t0)
}

// sample runs the reference kernel once (about 60 ms).
func (c *calibration) sample() {
	if c == nil {
		return // a test that measures nothing
	}
	c.samples = append(c.samples, (c.chase()/calmChase+c.copyLoop()/calmCopy+c.pingPong()/calmChan+c.allocLoop()/calmAlloc)/4)
}

// slowdown is how much slower than the calm reference host this host has
// been while the samples were taken (1 with no samples).
func (c *calibration) slowdown() float64 {
	if c == nil || len(c.samples) == 0 {
		return 1
	}
	return median(c.samples)
}

// scaled divides a stat of measured seconds of wl by the slowdown.
func (c *calibration) scaled(wl *workload, st stat) stat {
	if wl != nil && wl.backend == "dist" {
		return st // timer-bound: see above
	}
	f := c.slowdown()
	st.Median, st.Min, st.Max, st.IQR, st.MAD = st.Median/f, st.Min/f, st.Max/f, st.IQR/f, st.MAD/f
	return st
}
