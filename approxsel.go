// Package approxsel is a library of declarative approximate selection
// predicates, reproducing "Benchmarking Declarative Approximate Selection
// Predicates" (Hassanzadeh, 2007; the SIGMOD 2007 benchmark study).
//
// An approximate selection takes a query string and returns the tuples of a
// base relation ranked by a similarity predicate. The library ships the
// paper's thirteen predicates in five classes — overlap (IntersectSize,
// Jaccard, WeightedMatch, WeightedJaccard), aggregate weighted (Cosine,
// BM25), language modeling (LM, HMM), edit-based (EditDistance) and
// combination (GES, GESJaccard, GESapx, SoftTFIDF) — in two interchangeable
// realizations:
//
//   - Native (the default) is the fast in-memory realization;
//   - Declarative (WithRealization(Declarative)) is the paper's
//     realization: plain SQL statements (Appendices A/B of the thesis)
//     executed by the bundled sqldb engine, with UDFs for edit similarity,
//     Jaro–Winkler and min-hash values.
//
// Both produce identical scores; the declarative path exists to study the
// approach the paper advocates, and the performance experiments run on it.
//
// Construction goes through a pluggable predicate registry. New resolves a
// predicate name against the chosen realization (WithRealization, default
// Native) under the paper's defaults, or under a Config passed as an
// option:
//
//	records := []approxsel.Record{{TID: 1, Text: "AT&T Incorporated"}, ...}
//	cfg := approxsel.DefaultConfig()
//	cfg.Q, cfg.PruneRate = 3, 0.1
//	p, err := approxsel.New("BM25", records, cfg)
//	matches, err := p.Select("AT&T Inc")
//
// Applications plug their own predicates into the same framework with
// Register (and remove them with Unregister) — the extensibility story the
// paper argues for — and enumerate everything New can build with
// PredicateNames and Realizations.
//
// The paper's framework stores one set of precomputed token/weight tables
// inside the DBMS that every predicate shares. OpenCorpus exposes that
// store directly: it tokenizes the relation once, Corpus.Predicate
// attaches any registered predicate as a lightweight view over the shared
// tables (thirteen predicates, one preprocessing pass), and
// Insert/Delete/Upsert mutate the relation in place with epoch-versioned,
// concurrency-safe statistics maintenance:
//
//	corpus, err := approxsel.OpenCorpus(records)
//	bm25, err := corpus.Predicate("BM25")
//	err = corpus.Insert(approxsel.Record{TID: 9001, Text: "AT&T Wireless"})
//	matches, err := bm25.Select("AT&T Inc")     // observes the insert
//
// Selections take options too: SelectCtx pushes Limit(k) and Threshold(θ)
// down into the predicate (a k-bounded heap instead of a full sort of the
// candidate set), and SelectBatch probes many queries through a worker pool
// honoring context cancellation:
//
//	top, err := approxsel.SelectCtx(ctx, p, "AT&T Inc", approxsel.Limit(10))
//	res, err := approxsel.SelectBatch(ctx, p, queries, approxsel.Workers(8))
//
// OpenShardedCorpus partitions the relation across per-core corpus shards
// (a Corpus is the one-shard case): preprocessing, mutations and probing
// parallelize across the shards, and selections merge the per-shard top-k
// rankings deterministically. WithDataDir makes either opener durable, and
// RegisterWatch turns an approximate join into a standing query. The
// sharded corpus (with its per-shard epoch vector) is the storage engine of
// cmd/approxserved, the HTTP/JSON serving subsystem with an epoch-keyed
// result cache (internal/server).
//
// The package also exposes the benchmark itself: the UIS-style dirty-data
// generator (GenerateDirty), synthetic clean datasets matching the paper's
// Table 5.1 statistics (CompanyNames, DBLPTitles), and the IR accuracy
// metrics (AveragePrecision, MaxF1) used by the evaluation.
package approxsel

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/dirty"
	"repro/internal/eval"
)

// Record is one tuple of the base relation: a unique identifier and a
// string attribute.
type Record = core.Record

// Match is one ranked result of an approximate selection.
type Match = core.Match

// Config holds the tunable parameters of all predicates; start from
// DefaultConfig.
type Config = core.Config

// Predicate is a preprocessed approximate-selection predicate over a fixed
// base relation. Select returns matches ranked by decreasing similarity
// and is safe for concurrent use.
type Predicate = core.Predicate

// DefaultConfig returns the paper's parameter settings (§5.3.2): q=2,
// BM25 k1=1.5/k3=8/b=0.675, HMM a0=0.2, GES cins=0.5 and filter θ=0.8,
// SoftTFIDF θ=0.8, edit filter θ=0.7, 5 min-hash signatures.
func DefaultConfig() Config { return core.DefaultConfig() }

// New preprocesses the base relation for the named predicate, resolving the
// name through the predicate registry. With no options it builds the
// in-memory realization under the paper's DefaultConfig; WithRealization
// selects the realization, and a Config value replaces the whole parameter
// set, so the call form New(name, records, cfg) works.
//
// New builds a private one-shot corpus materializing only the layers the
// predicate reads. To share one tokenization/statistics pass across
// predicates and observe Insert/Delete/Upsert, open a Corpus and attach
// with its Predicate method instead.
func New(name string, records []Record, opts ...BuildOption) (Predicate, error) {
	settings := core.BuildSettings{
		Config:      core.DefaultConfig(),
		Realization: string(Native),
	}
	for _, o := range opts {
		o.ApplyBuild(&settings)
	}
	if settings.DataDir != "" {
		return nil, fmt.Errorf("approxsel: WithDataDir is not a valid New option; open a durable corpus with OpenCorpus(records, WithDataDir(dir)) and attach through Corpus.Predicate")
	}
	builder, err := lookupBuilder(Realization(settings.Realization), name)
	if err != nil {
		return nil, err
	}
	return builder(records, settings.Config)
}

// SelectCtx runs one approximate selection with per-selection options. A
// Limit or Threshold is pushed down into the predicate when it supports it
// (core.ContextPredicate — all native predicates), replacing the full sort
// of the candidate set with a k-bounded heap and pre-materialization
// filtering; for other predicates the options are applied as a post-filter
// with identical results. The context is checked before probing, and
// cancellation mid-batch is honored by SelectBatch.
func SelectCtx(ctx context.Context, p Predicate, query string, opts ...SelectOption) ([]Match, error) {
	return core.SelectWithOptions(ctx, p, query, selectOptions(opts))
}

// SelectThreshold runs an approximate selection and keeps matches with
// score ≥ theta: the paper's sim(t_q, t) ≥ θ operation. It delegates to the
// option-based path, so predicates with push-down filter before
// materializing the ranking.
func SelectThreshold(p Predicate, query string, theta float64) ([]Match, error) {
	return SelectCtx(context.Background(), p, query, Threshold(theta))
}

// TopK runs an approximate selection and keeps the k best matches. It
// delegates to the option-based path, so predicates with push-down rank
// with a k-bounded heap instead of sorting the full candidate set.
func TopK(p Predicate, query string, k int) ([]Match, error) {
	if k < 0 {
		return nil, fmt.Errorf("approxsel: negative k %d", k)
	}
	if k == 0 {
		return []Match{}, nil
	}
	return SelectCtx(context.Background(), p, query, Limit(k))
}

// ---- benchmark data generation ----

// DirtyParams configure the UIS-style dirty-data generator (§5.1).
type DirtyParams = dirty.Params

// DirtyDataset is a generated dirty relation with duplicate ground truth.
type DirtyDataset = dirty.Dataset

// Duplicate distributions for DirtyParams.Dist.
const (
	Uniform = dirty.Uniform
	Zipfian = dirty.Zipfian
	Poisson = dirty.Poisson
)

// GenerateDirty injects controlled errors into a clean relation, tracking
// which clean tuple every duplicate came from.
func GenerateDirty(clean []string, abbrs [][2]string, p DirtyParams) (*DirtyDataset, error) {
	return dirty.Generate(clean, abbrs, p)
}

// CompanyNames generates n synthetic company names matching the statistics
// of the paper's company dataset (Table 5.1).
func CompanyNames(n int, seed int64) []string { return datasets.CompanyNames(n, seed) }

// DBLPTitles generates n synthetic paper titles matching the statistics of
// the paper's DBLP dataset (Table 5.1).
func DBLPTitles(n int, seed int64) []string { return datasets.DBLPTitles(n, seed) }

// Abbreviations returns the company-domain long/short substitution pairs
// used for abbreviation errors.
func Abbreviations() [][2]string { return datasets.Abbreviations() }

// ---- accuracy metrics (§5.2) ----

// AveragePrecision computes the average precision of a ranked TID list
// against a relevant set (Eq. 5.1).
func AveragePrecision(ranked []int, relevant map[int]bool) float64 {
	return eval.AveragePrecision(ranked, relevant)
}

// MaxF1 computes the maximum F1 over the ranking (Eq. 5.2).
func MaxF1(ranked []int, relevant map[int]bool) float64 {
	return eval.MaxF1(ranked, relevant)
}

// RankedTIDs extracts the TID ranking from a match list, for use with the
// accuracy metrics.
func RankedTIDs(ms []Match) []int {
	out := make([]int, len(ms))
	for i, m := range ms {
		out[i] = m.TID
	}
	return out
}
