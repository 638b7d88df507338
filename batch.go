package approxsel

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"repro/internal/core"
)

// batchSettings is the state assembled by BatchOptions: the worker-pool
// size and the per-probe selection options shared by every query.
type batchSettings struct {
	workers int
	sel     core.SelectOptions
}

// BatchError is the error SelectBatch returns when one probe fails: it
// records which query failed so callers (the joins, which probe records)
// can name the culprit. It unwraps to the probe's own error, so
// errors.Is/errors.As see through it to the cause.
//
// The reported query is deterministic: always the lowest-indexed failing
// probe, never whichever worker happened to lose the scheduling race.
type BatchError struct {
	// Query is the index into the queries slice of the failing probe.
	Query int
	Err   error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("approxsel: batch query %d: %v", e.Query, e.Err)
}

func (e *BatchError) Unwrap() error { return e.Err }

// SelectBatch probes one predicate with many queries through a worker pool
// and returns one ranked match slice per query, in query order. Results are
// identical to probing sequentially: workers only decide which query runs
// where, never the per-query ranking.
//
// The pool size comes from Workers (default GOMAXPROCS). Per-probe options
// (Limit, Threshold) apply to every query of the batch.
//
// Cancellation is honored at query granularity: when ctx is cancelled,
// workers finish their in-flight probe, pending queries are abandoned, and
// the context error is returned.
//
// When a probe fails, the returned *BatchError names the lowest-indexed
// failing query deterministically: probes before that index still run (one
// of them could fail earlier in query order), probes after it are skipped.
func SelectBatch(ctx context.Context, p Predicate, queries []string, opts ...BatchOption) ([][]Match, error) {
	var b batchSettings
	for _, o := range opts {
		o.applyBatch(&b)
	}
	workers := b.workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([][]Match, len(queries))
	idx, err := core.RunJobs(ctx, len(queries), workers, func(i int) error {
		ms, err := core.SelectWithOptions(ctx, p, queries[i], b.sel)
		if err != nil {
			return err
		}
		out[i] = ms
		return nil
	})
	if err != nil {
		// A cancellation is the batch's failure, not any one query's:
		// return the bare context error rather than pinning it on whichever
		// probe happened to observe it first.
		if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
			return nil, ctxErr
		}
		return nil, &BatchError{Query: idx, Err: err}
	}
	// The feeder may have stopped on parent cancellation while every
	// in-flight probe finished cleanly; don't report a partial batch as
	// complete.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
