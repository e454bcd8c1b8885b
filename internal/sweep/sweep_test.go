package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrdering(t *testing.T) {
	for _, jobs := range []int{1, 2, 8, 64} {
		got, err := Map(jobs, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 100 {
			t.Fatalf("jobs=%d: len = %d", jobs, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("jobs=%d: got[%d] = %d", jobs, i, v)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(4, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestMapDefaultJobs(t *testing.T) {
	if DefaultJobs() < 1 {
		t.Fatalf("DefaultJobs = %d", DefaultJobs())
	}
	got, err := Map(0, 5, func(i int) (int, error) { return i, nil })
	if err != nil || len(got) != 5 {
		t.Fatalf("jobs=0 should fall back to DefaultJobs: %v, %v", got, err)
	}
}

// TestJobsFor: the auto pool size never oversubscribes the CPUs with
// jobs × shards goroutines unless a single job already does, and never
// drops below one worker.
func TestJobsFor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct{ cpus, shards, want int }{
		{8, 1, 8}, {8, 2, 4}, {8, 3, 2}, {8, 8, 1}, {8, 16, 1},
		{2, 1, 2}, {2, 4, 1}, {1, 1, 1}, {1, 2, 1},
		{4, 0, 4}, {4, -3, 4}, // shards < 1 means a serial engine
	} {
		runtime.GOMAXPROCS(c.cpus)
		got := JobsFor(c.shards)
		if got != c.want {
			t.Errorf("JobsFor(%d) on %d CPUs = %d, want %d", c.shards, c.cpus, got, c.want)
		}
		if got < 1 || (got > 1 && got*c.shards > c.cpus) {
			t.Errorf("JobsFor(%d) on %d CPUs = %d: jobs x shards = %d oversubscribes", c.shards, c.cpus, got, got*c.shards)
		}
	}
}

// TestMapLowestIndexError: with several failing jobs, the reported error is
// always the lowest failing index, independent of worker scheduling.
func TestMapLowestIndexError(t *testing.T) {
	sentinel := errors.New("boom")
	for trial := 0; trial < 20; trial++ {
		_, err := Map(8, 50, func(i int) (int, error) {
			if i%7 == 3 { // fails at 3, 10, 17, ...
				return 0, fmt.Errorf("%w at %d", sentinel, i)
			}
			return i, nil
		})
		if err == nil || !errors.Is(err, sentinel) {
			t.Fatalf("err = %v", err)
		}
		if !strings.Contains(err.Error(), "job 3:") {
			t.Fatalf("expected lowest failing index 3, got %v", err)
		}
	}
}

// TestMapFailFast: after a failure, jobs with higher indices that have not
// started yet are skipped.
func TestMapFailFast(t *testing.T) {
	var started atomic.Int64
	_, err := Map(1, 1000, func(i int) (int, error) {
		started.Add(1)
		if i == 2 {
			return 0, errors.New("fail")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := started.Load(); n > 3 {
		t.Fatalf("fail-fast violated: %d jobs started after failure at index 2", n)
	}
}

// TestMapBoundedConcurrency: never more than jobs workers in flight.
func TestMapBoundedConcurrency(t *testing.T) {
	const jobs = 3
	var inFlight, peak atomic.Int64
	var mu sync.Mutex
	_, err := Map(jobs, 64, func(i int) (int, error) {
		cur := inFlight.Add(1)
		mu.Lock()
		if cur > peak.Load() {
			peak.Store(cur)
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > jobs {
		t.Fatalf("peak concurrency %d > jobs %d", p, jobs)
	}
}

func TestMapPanicBecomesError(t *testing.T) {
	_, err := Map(4, 10, func(i int) (int, error) {
		if i == 5 {
			panic("kaboom")
		}
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v", err)
	}
}
