// Package pool is the one worker pool behind every block-deterministic
// loop in the reproduction: the perf cells, the faultsim Monte-Carlo
// blocks and the attack-synthesis cells. Tasks are indexed, so a caller
// that makes each task depend only on its index gets results that do not
// depend on the worker count; the fold that combines them runs on the
// caller's goroutine and needs no locking.
package pool

import (
	"cmp"
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Run calls task for the indices 0..n-1, handed out in order to workers
// goroutines (GOMAXPROCS when workers <= 0, never more than n). Each
// task that succeeds reaches done on the calling goroutine, one call at
// a time, in completion order. A task error, done returning true, or ctx
// cancellation stops handing out indices; tasks already running still
// finish and still reach done. Run returns the first task error, else
// ctx.Err().
func Run[T any](ctx context.Context, n, workers int, task func(i int) (T, error), done func(i int, v T) bool) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	type result struct {
		i   int
		v   T
		err error
	}
	// Buffered to n (the most sends there can be) so a worker never
	// waits for the fold to catch up.
	out := make(chan result, n)
	var (
		wg   sync.WaitGroup
		next atomic.Int64
		stop atomic.Bool
	)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				v, err := task(i)
				if err != nil {
					stop.Store(true)
				}
				out <- result{i, v, err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	var first error
	for r := range out {
		if r.err != nil {
			first = cmp.Or(first, r.err)
		} else if done(r.i, r.v) {
			stop.Store(true)
		}
	}
	return cmp.Or(first, ctx.Err())
}
