// Package native implements all thirteen similarity predicates of the
// benchmark as direct in-memory algorithms. These implementations serve two
// roles: they are the fast reference implementations exposed through the
// public API, and they act as differential-testing oracles for the
// declarative (SQL) realizations in package declarative — both must produce
// identical scores.
//
// Every predicate is a view over one snapshot of a shared core.Corpus: the
// corpus owns the tokenization products and the shared weight/posting
// tables, and attaching a predicate only wires those tables together (plus
// any parameter-dependent weight column). Building all thirteen over one
// corpus therefore performs exactly one tokenization/statistics pass; Build
// makes a private one-shot corpus holding only the layers the predicate
// reads.
//
// A predicate is a plan plus an engine. The eight token-weight predicates
// (IntersectSize … HMM) differ only in their plan — the query's posting-list
// terms and the shape that combines them, the thesis's token table, weight
// table and combining query — and all select through core.MaxScoreSelect,
// with core.NaiveTermSelect as their reference merge. EditDistance and the
// combination class score through a string kernel instead and bring their
// own select function and naive oracle.
package native

import (
	"fmt"
	"time"

	"repro/internal/core"
)

// predicates is the attach table: the corpus layers each benchmark
// predicate reads and the function wiring it to a snapshot.
var predicates = map[string]struct {
	need   core.CorpusLayers
	attach func(*core.Snapshot, core.Config) predicate
}{
	"IntersectSize":   {core.LayerGrams | core.LayerPostings, attachIntersectSize},
	"Jaccard":         {core.LayerGrams | core.LayerPostings, attachJaccard},
	"WeightedMatch":   {core.LayerGrams | core.LayerPostings | core.LayerRS, attachWeightedMatch},
	"WeightedJaccard": {core.LayerGrams | core.LayerPostings | core.LayerRS, attachWeightedJaccard},
	"Cosine":          {core.LayerGrams | core.LayerPostings | core.LayerTFIDF, attachCosine},
	"BM25":            {core.LayerGrams | core.LayerPostings | core.LayerTokenIDs, attachBM25},
	"LM":              {core.LayerGrams | core.LayerPostings | core.LayerLM, attachLM},
	"HMM":             {core.LayerGrams | core.LayerPostings | core.LayerTokenIDs, attachHMM},
	"EditDistance":    {core.LayerGrams | core.LayerPostings | core.LayerNorms, attachEditDistance},
	"GES":             {core.LayerWords, attachGES},
	"GESJaccard":      {core.LayerWords | core.LayerWordGrams, attachGESJaccard},
	"GESapx":          {core.LayerWords | core.LayerWordGrams | core.LayerSigs, attachGESapx},
	"SoftTFIDF":       {core.LayerWords | core.LayerWordTFIDF, attachSoftTFIDF},
}

// accumulator is the per-query map accumulator of the word and edit
// predicates' naive oracles; the select paths run on core.Scratch dense
// accumulators.
type accumulator map[int]float64

// matches converts accumulated scores into the ranked Match slice contract,
// applying any selection options: below-threshold scores are dropped before
// materialization and a limit switches the full sort to a k-bounded heap.
func (a accumulator) matches(records []core.Record, opts core.SelectOptions) []core.Match {
	out := make([]core.Match, 0, len(a))
	for idx, score := range a {
		if !opts.Keeps(score) {
			continue
		}
		out = append(out, core.Match{TID: records[idx].TID, Score: score})
	}
	return core.FinishMatches(out, opts)
}

// NaiveSelect runs the reference (map-accumulator, unpruned) merge of a
// native predicate. It exists for differential testing (TestHotPathDifferential)
// and BenchmarkSelectHotPath; production callers use Select/SelectCtx, which
// run the dense score-at-a-time hot path.
func NaiveSelect(p core.Predicate, query string, opts core.SelectOptions) ([]core.Match, error) {
	np, ok := p.(*predicate)
	if !ok {
		return nil, fmt.Errorf("native: %s has no naive reference path", p.Name())
	}
	return np.selectNaive(query, opts), nil
}

// Build constructs the named predicate over a private one-shot corpus
// materializing only the layers the predicate reads. Names match
// core.PredicateNames.
func Build(name string, records []core.Record, cfg core.Config) (core.Predicate, error) {
	def, ok := predicates[name]
	if !ok {
		return nil, fmt.Errorf("native: unknown predicate %q", name)
	}
	c, err := core.NewCorpus(records, cfg, def.need)
	if err != nil {
		return nil, err
	}
	return Attach(name, c, cfg)
}

// Attach builds the named predicate as a view over the corpus's current
// snapshot, sharing the corpus's precomputed token and weight tables
// instead of re-tokenizing the relation. The cfg may differ from the
// corpus configuration only in scoring-level parameters
// (Corpus.CompatibleConfig).
func Attach(name string, c *core.Corpus, cfg core.Config) (core.Predicate, error) {
	def, ok := predicates[name]
	if !ok {
		return nil, fmt.Errorf("native: unknown predicate %q", name)
	}
	if !c.Layers().Has(def.need) {
		return nil, fmt.Errorf("native: corpus does not materialize the layers predicate %s reads", name)
	}
	if err := c.CompatibleConfig(cfg); err != nil {
		return nil, err
	}
	snap := c.Snapshot()
	t0 := time.Now()
	p := def.attach(snap, cfg)
	p.name, p.recs = name, snap.Records
	// The tokenization phase is the shared corpus pass (reported identically
	// by every attached predicate); the weight phase covers the shared table
	// assembly plus this predicate's attach cost.
	p.tokDur, p.wDur = snap.TokDur, snap.WeightDur+time.Since(t0)
	return &p, nil
}

// Builders is the registration table of the native realization: one
// BuilderFunc per benchmark predicate, in terms of which the facade's
// registry resolves New.
func Builders() map[string]core.BuilderFunc {
	out := make(map[string]core.BuilderFunc, len(core.PredicateNames))
	for _, name := range core.PredicateNames {
		out[name] = func(records []core.Record, cfg core.Config) (core.Predicate, error) {
			return Build(name, records, cfg)
		}
	}
	return out
}

// CorpusBuilders is the corpus-aware registration table of the native
// realization: one CorpusBuilderFunc per benchmark predicate, each
// attaching to a shared core.Corpus instead of preprocessing a private
// copy of the relation.
func CorpusBuilders() map[string]core.CorpusBuilderFunc {
	out := make(map[string]core.CorpusBuilderFunc, len(core.PredicateNames))
	for _, name := range core.PredicateNames {
		out[name] = func(c *core.Corpus, cfg core.Config) (core.Predicate, error) {
			return Attach(name, c, cfg)
		}
	}
	return out
}
