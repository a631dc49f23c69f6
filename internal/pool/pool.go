// Package pool is the leaf work-stealing primitive shared by the pooled
// hybrid classifier (internal/core), pooled evaluation (internal/train) and
// the fault-injection campaigns (internal/fault). It is dependency-free so
// all of them can use it without import cycles (core → reliable → fault).
package pool

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Run executes fn(worker, i) for every i in [0, n) across `workers`
// goroutines (clamped to n; must be >= 1). Indices are claimed with work
// stealing, so uneven item costs do not stall the batch. The first error
// cancels remaining work and is returned, wrapped with its item index.
// fn observes each worker index from exactly one goroutine, so per-worker
// state needs no further synchronisation.
func Run(n, workers int, fn func(worker, i int) error) error {
	if n < 0 {
		return fmt.Errorf("pool: negative item count %d", n)
	}
	if fn == nil {
		return fmt.Errorf("pool: run needs a work function")
	}
	// Empty batches succeed before the worker-count check: callers clamp
	// workers to n, so n == 0 legitimately arrives with zero workers.
	if n == 0 {
		return nil
	}
	if workers < 1 {
		return fmt.Errorf("pool: worker count %d must be >= 1", workers)
	}
	if workers > n {
		workers = n
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		mu     sync.Mutex
		first  error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := fn(worker, i); err != nil {
					mu.Lock()
					if first == nil {
						first = fmt.Errorf("item %d: %w", i, err)
					}
					mu.Unlock()
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return first
}
