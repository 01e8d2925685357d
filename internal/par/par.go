// Package par is the shared parallel-execution layer for per-distinct-value
// bitmap work. The evolution algorithms (§2.4–§2.5), the query processor and
// the column builders all fan the same shape of work out: n independent tasks,
// one per distinct value (or per column), whose results land at known indexes.
// This package runs that shape on a bounded worker pool with deterministic,
// index-ordered fan-in, so callers get identical results at any parallelism.
//
// Conventions shared by every function:
//
//   - parallelism <= 0 means GOMAXPROCS;
//   - the effective worker count never exceeds n, and n <= 1 or an effective
//     single worker runs inline on the caller's goroutine (no spawn cost);
//   - a panic in fn is captured and re-raised on the caller's goroutine after
//     all workers have drained, so a crash inside a worker cannot leak
//     goroutines or deadlock the pool.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a parallelism knob: values <= 0 mean GOMAXPROCS.
func Workers(parallelism int) int {
	if parallelism > 0 {
		return parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// pool runs fn(i) for i in [0, n) across at most `parallelism` goroutines.
// Workers pull indexes from a shared atomic counter (dynamic load balancing:
// per-value bitmap costs are skewed, so static striping would idle workers).
// stop is polled between tasks for early exit; it may be nil.
func pool(n, parallelism int, stop *atomic.Bool, fn func(i int)) {
	workers := min(Workers(parallelism), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if stop != nil && stop.Load() {
				return
			}
			fn(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Bool
		once     sync.Once
		panicVal any
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					once.Do(func() { panicVal = r })
					panicked.Store(true)
				}
			}()
			for {
				if panicked.Load() || (stop != nil && stop.Load()) {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked.Load() {
		panic(panicVal)
	}
}

// ForEachIndexed runs fn(i) for every i in [0, n) on a bounded worker pool.
// fn must be safe for concurrent invocation on distinct indexes; writes to
// index i of a pre-sized result slice need no further synchronization.
func ForEachIndexed(n, parallelism int, fn func(i int)) {
	pool(n, parallelism, nil, fn)
}

// ForEachErr is ForEachIndexed for fallible tasks. It returns the error of
// the lowest failing index (deterministic regardless of scheduling) and stops
// dispatching new tasks once any task has failed; already-running tasks
// complete.
func ForEachErr(n, parallelism int, fn func(i int) error) error {
	errs := make([]error, n)
	var failed atomic.Bool
	pool(n, parallelism, &failed, func(i int) {
		if err := fn(i); err != nil {
			errs[i] = err
			failed.Store(true)
		}
	})
	if failed.Load() {
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// Map runs fn over [0, n) and returns the results in index order.
func Map[T any](n, parallelism int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEachIndexed(n, parallelism, func(i int) { out[i] = fn(i) })
	return out
}
