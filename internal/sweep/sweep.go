// Package sweep runs independent jobs — typically whole discrete-event
// simulations, one per (figure × system) point of the paper's evaluation
// grid — across a bounded worker pool.
//
// The contract is deliberately strict so sweeps stay reproducible:
//
//   - Deterministic ordering: results are returned indexed exactly like the
//     inputs, regardless of worker count or completion order. Running with
//     jobs=1 and jobs=N yields identical slices.
//   - Fail-fast: after the first failure no new job starts; jobs already in
//     flight run to completion. The error reported is the failing job with
//     the lowest index, so the error, too, is independent of scheduling.
//   - Panic containment: a panicking job is converted into an error instead
//     of tearing down sibling workers mid-simulation.
//
// Jobs must be independent (no shared mutable state); every simulation in
// this repository builds its own engine and seeds its own RNGs, which is
// what makes fanning them out safe.
package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultJobs is the default worker-pool size: one worker per available CPU.
func DefaultJobs() int { return runtime.GOMAXPROCS(0) }

// JobsFor is the default worker-pool size when each job is itself internally
// parallel — e.g. a simulation running on `shards` event-loop shards. The
// two levels multiply (jobs sweeps × shards goroutines each all want a CPU),
// so the pool is clamped to keep the product near the CPU count instead of
// oversubscribing it: max(1, DefaultJobs()/shards). Callers pass the result
// to Map/Each when the user left the job count unset.
func JobsFor(shards int) int {
	if shards < 1 {
		shards = 1
	}
	j := DefaultJobs() / shards
	if j < 1 {
		j = 1
	}
	return j
}

// Map runs fn(0), ..., fn(n-1) on at most jobs concurrent workers and
// returns the n results in index order. jobs < 1 selects DefaultJobs().
// On failure it returns the error of the lowest failing index, wrapped with
// that index.
func Map[T any](jobs, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if jobs < 1 {
		jobs = DefaultJobs()
	}
	if jobs > n {
		jobs = n
	}
	results := make([]T, n)
	errs := make([]error, n)
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := call(i, fn, results); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sweep: job %d: %w", i, err)
		}
	}
	return results, nil
}

// call invokes one job, converting a panic into an error.
func call[T any](i int, fn func(i int) (T, error), results []T) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	r, err := fn(i)
	if err != nil {
		return err
	}
	results[i] = r
	return nil
}
