package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// RunJobs runs fn(0), ..., fn(n-1) on up to workers goroutines, the calling
// one among them — the worker pool behind the facade's SelectBatch, the
// shard fan-out of sharded selections, and parallel shard construction.
//
// Error reporting is deterministic: RunJobs returns the error of the
// lowest-indexed failing job, regardless of how jobs were scheduled across
// workers. To make that possible without evaluating everything, a failure
// at index i does not abort jobs below i (one of them could fail at a lower
// index and must get the chance to), while jobs above i are skipped — their
// outcome can never be reported. On success the returned index is -1.
//
// Cancelling ctx stops feeding new jobs; fn is expected to honor ctx
// itself for prompt in-flight cancellation. A job failing with the context
// error is reported like any other failure, so callers that prefer the bare
// context error should check ctx.Err() on return.
func RunJobs(ctx context.Context, n, workers int, fn func(i int) error) (int, error) {
	if n == 0 {
		return -1, nil
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Sequential fast path — no goroutines, no channel: the hot path of
		// single-shard fan-outs and serialized (declarative) batches.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return i, err
			}
			if err := fn(i); err != nil {
				return i, err
			}
		}
		return -1, nil
	}

	// minFail is the lowest failing index seen so far, n while none: jobs
	// at or above it are doomed to be irrelevant and are skipped.
	var (
		minFail atomic.Int64
		next    atomic.Int64
		mu      sync.Mutex
		failErr error
	)
	minFail.Store(int64(n))
	fail := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if int64(i) < minFail.Load() {
			minFail.Store(int64(i))
			failErr = err
		}
	}

	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if int64(i) >= minFail.Load() {
				continue
			}
			if err := ctx.Err(); err != nil {
				fail(i, err)
				return
			}
			if err := fn(i); err != nil {
				fail(i, err)
			}
		}
	}
	// The caller is one of the workers: a fan-out starts workers-1
	// goroutines and is not parked and woken around them.
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	if idx := minFail.Load(); idx < int64(n) {
		return int(idx), failErr
	}
	return -1, nil
}
