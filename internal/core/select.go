package core

import (
	"context"
	"fmt"
)

// BuilderFunc constructs a predicate over a base relation. It is the unit
// of registration in the facade's predicate registry: both realizations
// expose their thirteen predicates as BuilderFuncs, and applications plug
// in new predicates by registering their own.
type BuilderFunc func(records []Record, cfg Config) (Predicate, error)

// SelectOptions carries per-selection limits that predicates may push down
// into candidate generation and ranking. The zero value selects everything,
// preserving the un-thresholded full-ranking contract of Predicate.Select.
type SelectOptions struct {
	// Limit > 0 keeps only the Limit best matches under the SortMatches
	// order (decreasing score, ties by increasing TID). Zero means
	// unlimited; negative limits are rejected by SelectWithOptions.
	Limit int
	// Threshold drops matches with Score < Threshold when HasThreshold is
	// set: the paper's sim(t_q, t) ≥ θ selection.
	Threshold    float64
	HasThreshold bool
}

// IsZero reports whether the options request the plain full ranking.
func (o SelectOptions) IsZero() bool { return o.Limit <= 0 && !o.HasThreshold }

// Keeps reports whether a score survives the threshold filter.
func (o SelectOptions) Keeps(score float64) bool {
	return !o.HasThreshold || score >= o.Threshold
}

// ContextPredicate is the optional interface of predicates that accept a
// context and selection options natively, so that limits are pushed down
// into ranking (a k-sized heap instead of a full sort) rather than applied
// as a post-filter. All native predicates implement it.
type ContextPredicate interface {
	Predicate
	SelectCtx(ctx context.Context, query string, opts SelectOptions) ([]Match, error)
}

// SelectWithOptions runs one selection with options against any predicate.
// Predicates implementing ContextPredicate get the options pushed down;
// for the rest the full ranking is computed and the options are applied as
// a post-filter, preserving identical results. Options are validated
// before probing: a negative limit is an error, not "unlimited".
func SelectWithOptions(ctx context.Context, p Predicate, query string, opts SelectOptions) ([]Match, error) {
	if opts.Limit < 0 {
		return nil, fmt.Errorf("approxsel: negative selection limit %d", opts.Limit)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cp, ok := p.(ContextPredicate); ok {
		return cp.SelectCtx(ctx, query, opts)
	}
	ms, err := p.Select(query)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return ApplySelectOptions(ms, opts), nil
}

// ApplySelectOptions applies threshold and limit to an already-ranked match
// slice — the shim path for predicates without push-down. Because the input
// respects the SortMatches order, truncation after filtering is exactly
// sort-then-truncate.
func ApplySelectOptions(ms []Match, opts SelectOptions) []Match {
	if opts.HasThreshold {
		out := make([]Match, 0, len(ms))
		for _, m := range ms {
			if m.Score >= opts.Threshold {
				out = append(out, m)
			}
		}
		ms = out
	}
	if opts.Limit > 0 && opts.Limit < len(ms) {
		ms = ms[:opts.Limit]
	}
	return ms
}

// FinishMatches turns an unordered match slice into the final ranking
// under opts: a full sort — or, when a limit smaller than the candidate set
// is given, a bounded heap in O(n log k). The slice is reordered in place.
// Threshold filtering is the caller's job (Keeps, applied before
// materializing each Match), so the filter lives in exactly one place.
func FinishMatches(ms []Match, opts SelectOptions) []Match {
	if opts.Limit > 0 && opts.Limit < len(ms) {
		return bestMatches(ms, opts.Limit)
	}
	SortMatches(ms)
	return ms
}

// worseRank reports whether a ranks strictly worse than b under the
// SortMatches order (lower score, or equal score and larger TID).
func worseRank(a, b Match) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.TID > b.TID
}

// bestMatches selects the k best matches with a TopK. The result is
// identical to SortMatches followed by truncation at k.
func bestMatches(ms []Match, k int) []Match {
	t := NewTopK(k, len(ms))
	for _, m := range ms {
		t.Push(m)
	}
	return t.Ranked()
}

// TopK keeps the k best matches pushed into it under the SortMatches order,
// in a k-sized min-heap whose root is the worst kept match. With k ≤ 0 —
// no limit — it keeps every match.
type TopK struct {
	h []Match
	k int
}

// NewTopK returns an empty TopK for the k best matches, or for all of them
// when k ≤ 0, among at most n pushed. Its buffer is sized for min(k, n), so
// a limit taken from a request never sizes an allocation past the
// candidates.
func NewTopK(k, n int) *TopK {
	c := n
	if k > 0 && k < n {
		c = k
	}
	return &TopK{h: make([]Match, 0, max(c, 0)), k: k}
}

// Push offers m; it is kept if it ranks among the k best so far.
func (t *TopK) Push(m Match) {
	if t.k <= 0 {
		t.h = append(t.h, m)
		return
	}
	if len(t.h) < t.k {
		t.h = append(t.h, m)
		siftUp(t.h, len(t.h)-1)
		return
	}
	if worseRank(t.h[0], m) {
		t.h[0] = m
		siftDown(t.h, 0)
	}
}

// Floor reports the score of the worst kept match once k are kept: a match
// scoring below it can no longer enter.
func (t *TopK) Floor() (float64, bool) {
	if t.k <= 0 || len(t.h) < t.k {
		return 0, false
	}
	return t.h[0].Score, true
}

// Ranked returns the kept matches in SortMatches order.
func (t *TopK) Ranked() []Match {
	SortMatches(t.h)
	return t.h
}

func siftUp(h []Match, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !worseRank(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func siftDown(h []Match, i int) {
	for {
		worst := i
		if l := 2*i + 1; l < len(h) && worseRank(h[l], h[worst]) {
			worst = l
		}
		if r := 2*i + 2; r < len(h) && worseRank(h[r], h[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// ---- constructor options ----

// BuildSettings is the state assembled by constructor options before a
// predicate is built: the parameter Config and the realization name the
// facade resolves through its registry.
type BuildSettings struct {
	Config      Config
	Realization string
	// DataDir, when set by the WithDataDir option, makes OpenCorpus and
	// OpenShardedCorpus durable: an existing approxstore in the directory is
	// loaded instead of building from records, and every later mutation is
	// write-ahead logged there.
	DataDir string
}

// BuildOption configures predicate construction. The facade's options
// (WithRealization, WithDataDir) implement it, and Config itself is a
// BuildOption that replaces the whole configuration — which keeps the
// original New(name, records, cfg) call form compiling unchanged.
type BuildOption interface {
	ApplyBuild(*BuildSettings)
}

// ApplyBuild makes Config a BuildOption: the configuration is replaced
// wholesale, exactly like the pre-options constructors did.
func (c Config) ApplyBuild(s *BuildSettings) { s.Config = c }

// BuildOptionFunc adapts a function to the BuildOption interface.
type BuildOptionFunc func(*BuildSettings)

// ApplyBuild implements BuildOption.
func (f BuildOptionFunc) ApplyBuild(s *BuildSettings) { f(s) }
