// Package parallel is the repository's bounded concurrency layer: a
// stdlib-only worker pool with deterministic, ordered result
// collection and first-error propagation.
//
// Every fan-out in the measure→fit pipeline (multi-start optimizer
// restarts, per-estimator calibrations, per-component corpus
// measurements) goes through this package instead of spawning one goroutine per item. The pool is
// bounded by a Concurrency knob with two fixed points:
//
//   - 0 (or negative) means runtime.GOMAXPROCS(0) workers — use the
//     whole machine;
//   - 1 means the exact sequential path — fn is called in the calling
//     goroutine in index order with no channel or goroutine overhead,
//     so tests can diff parallel results against a pure sequential
//     run.
//
// Determinism contract: work functions must not communicate with each
// other, and results are always collected into index order. Under that
// contract every exported function returns bit-identical values for
// any worker count.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a Concurrency knob to an effective worker count:
// values below 1 mean GOMAXPROCS, anything else is returned as-is.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach calls fn(0) … fn(n-1) on at most Workers(workers) concurrent
// goroutines and waits for completion.
//
// Error propagation is "first error by index": the error returned is
// that of the lowest index whose call fails. After a failure, indices
// above it that have not started are skipped (already-running calls
// finish); indices below it still run, so which error is returned does
// not depend on the worker count or on scheduling. With workers == 1
// this degenerates to a plain loop that stops at the first error.
func ForEach(workers, n int, fn func(i int) error) error {
	return ForEachWorker(workers, n, func(_, i int) error { return fn(i) })
}

// ForEachWorker is ForEach with the stable worker id passed to fn:
// worker is in [0, min(Workers(workers), n)) and identifies the
// goroutine running the call, so two calls with the same worker id
// never overlap. Callers use it to own per-worker mutable scratch
// (arenas, reusable buffers) without locking. With workers == 1 every
// call runs in the calling goroutine with worker id 0 — the exact
// sequential path.
func ForEachWorker(workers, n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next atomic.Int64
		// lowest is the lowest failed index so far (n while none has
		// failed); it is written only under mu, together with first.
		lowest atomic.Int64
		mu     sync.Mutex
		first  error
		wg     sync.WaitGroup
	)
	lowest.Store(int64(n))
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if int64(i) > lowest.Load() {
					continue
				}
				if err := fn(worker, i); err != nil {
					mu.Lock()
					if int64(i) < lowest.Load() {
						lowest.Store(int64(i))
						first = err
					}
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	return first
}

// Map calls fn(0) … fn(n-1) on at most Workers(workers) concurrent
// goroutines and returns the results in index order. On error the
// partial results are discarded and the lowest-index error is returned
// (see ForEach).
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MapWorker is Map with the stable worker id passed to fn (see
// ForEachWorker).
func MapWorker[T any](workers, n int, fn func(worker, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEachWorker(workers, n, func(worker, i int) error {
		v, err := fn(worker, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Local is a lazily-populated set of per-worker values for use with
// ForEachWorker/MapWorker: Get(worker) returns the worker's value,
// creating it on first use. It is not itself synchronized — the
// per-worker exclusivity of the pool is what makes it safe — so a
// Local must only be used from within one ForEachWorker/MapWorker call
// at a time.
type Local[T any] struct {
	news func() T
	vals []T
	have []bool
}

// NewLocal returns a Local whose values are created by news, sized for
// the effective worker count of a Concurrency knob.
func NewLocal[T any](workers int, news func() T) *Local[T] {
	w := Workers(workers)
	return &Local[T]{news: news, vals: make([]T, w), have: make([]bool, w)}
}

// Get returns worker's value, creating it on first use.
func (l *Local[T]) Get(worker int) T {
	if !l.have[worker] {
		l.vals[worker] = l.news()
		l.have[worker] = true
	}
	return l.vals[worker]
}

// All returns the values created so far, in worker order.
func (l *Local[T]) All() []T {
	out := make([]T, 0, len(l.vals))
	for i, ok := range l.have {
		if ok {
			out = append(out, l.vals[i])
		}
	}
	return out
}
