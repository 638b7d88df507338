package native

import (
	"context"
	"time"

	"repro/internal/core"
)

// predicate is every native predicate. An engine predicate supplies plan,
// the posting-list terms and combining shape of a query, and selects
// through core.MaxScoreSelect; a kernel-scoring predicate supplies sel and
// naive instead. Selection options are pushed down either way: a limit or
// threshold reaches ranking (a k-bounded heap and pre-materialization
// filtering) instead of being post-applied to the full sorted candidate set.
//
// After Attach a predicate is read-only, so concurrent Selects are safe
// (verified under -race by TestConcurrentSelect).
type predicate struct {
	name         string
	recs         []core.Record
	tokDur, wDur time.Duration
	plan         func(query string, s *core.Scratch) ([]core.Term, core.Shape)
	// sel and naive are a kernel-scoring predicate's select path and its
	// reference oracle: map accumulators, and for the combination class the
	// per-position string-pair path (GESCost, direct strutil.JaroWinkler
	// calls) instead of the word-similarity columns.
	sel, naive func(query string, opts core.SelectOptions) []core.Match
}

// Name implements core.Predicate.
func (p *predicate) Name() string { return p.name }

// Select implements core.Predicate.
func (p *predicate) Select(query string) ([]core.Match, error) {
	return p.selectOpts(query, core.SelectOptions{}), nil
}

// SelectCtx implements core.ContextPredicate. Cancellation is honored at
// query granularity: a Select already in flight runs to completion, which
// keeps the scoring loops branch-free.
func (p *predicate) SelectCtx(ctx context.Context, query string, opts core.SelectOptions) ([]core.Match, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return p.selectOpts(query, opts), nil
}

// ConcurrentProbeSafe implements core.ConcurrentProber.
func (*predicate) ConcurrentProbeSafe() bool { return true }

// PreprocessPhases implements core.Phased: the corpus's tokenization pass
// and the weight phase (shared table assembly plus this attach).
func (p *predicate) PreprocessPhases() (time.Duration, time.Duration) {
	return p.tokDur, p.wDur
}

func (p *predicate) selectOpts(query string, opts core.SelectOptions) []core.Match {
	if p.plan == nil {
		return p.sel(query, opts)
	}
	s := core.GetScratch(len(p.recs))
	defer s.Release()
	terms, sh := p.plan(query, s)
	return core.MaxScoreSelect(s, p.recs, terms, sh, opts)
}

// selectNaive is the pre-optimization merge: map accumulators, no pruning.
// An engine predicate's merge visits the same plan in the same order as the
// optimized path, so the two are bit-identical by construction.
func (p *predicate) selectNaive(query string, opts core.SelectOptions) []core.Match {
	if p.plan == nil {
		return p.naive(query, opts)
	}
	terms, sh := p.plan(query, nil)
	return core.NaiveTermSelect(p.recs, terms, sh, opts)
}
