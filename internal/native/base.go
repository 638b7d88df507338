// Package native implements all thirteen similarity predicates of the
// benchmark as direct in-memory algorithms. These implementations serve two
// roles: they are the fast reference implementations exposed through the
// public API, and they act as differential-testing oracles for the
// declarative (SQL) realizations in package declarative — both must produce
// identical scores.
//
// Predicates are views over a shared core.Corpus: the corpus owns the
// tokenization products and the shared weight/posting tables, and attaching
// a predicate only wires those tables together (plus any parameter-dependent
// weights). Building all thirteen predicates over one corpus therefore
// performs exactly one tokenization/statistics pass. The legacy
// record-slice constructors build a private one-shot corpus materializing
// only the layers the predicate reads.
package native

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/tokenize"
)

// layerNeeds maps each benchmark predicate to the corpus layers it reads.
var layerNeeds = map[string]core.CorpusLayers{
	"IntersectSize":   core.LayerGrams | core.LayerPostings,
	"Jaccard":         core.LayerGrams | core.LayerPostings,
	"WeightedMatch":   core.LayerGrams | core.LayerPostings | core.LayerRS,
	"WeightedJaccard": core.LayerGrams | core.LayerPostings | core.LayerRS,
	"Cosine":          core.LayerGrams | core.LayerPostings | core.LayerTFIDF,
	"BM25":            core.LayerGrams | core.LayerPostings | core.LayerTokenIDs,
	"LM":              core.LayerGrams | core.LayerPostings | core.LayerLM,
	"HMM":             core.LayerGrams | core.LayerPostings | core.LayerTokenIDs,
	"EditDistance":    core.LayerGrams | core.LayerPostings | core.LayerNorms,
	"GES":             core.LayerWords,
	"GESJaccard":      core.LayerWords | core.LayerWordGrams,
	"GESapx":          core.LayerWords | core.LayerWordGrams | core.LayerSigs,
	"SoftTFIDF":       core.LayerWords | core.LayerWordTFIDF,
}

// accumulator is the legacy per-query map accumulator. The hot path now
// runs on core.Scratch dense accumulators; the map form survives only in
// the predicates' selectNaive reference branches, which NaiveSelect exposes
// as the differential-testing oracle and the "old" side of
// BENCH_hotpath.json.
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

// naiveSelector is implemented by every native predicate: selectNaive runs
// the pre-optimization merge (map accumulators, no pruning) over the same
// query plan, visiting contributions in the same order as the optimized
// path, so the two are bit-identical by construction. For the combination
// class it also scores on the per-position string-pair path (GESCost,
// direct strutil.JaroWinkler calls) instead of the word-similarity columns.
type naiveSelector interface {
	selectNaive(query string, opts core.SelectOptions) ([]core.Match, error)
}

// NaiveSelect runs the reference (map-accumulator, unpruned) merge of a
// native predicate. It exists for differential testing and for the
// old-vs-new measurements of BENCH_hotpath.json; production callers use
// Select/SelectCtx, which run the dense score-at-a-time hot path.
func NaiveSelect(p core.Predicate, query string, opts core.SelectOptions) ([]core.Match, error) {
	ns, ok := p.(naiveSelector)
	if !ok {
		return nil, fmt.Errorf("native: %s has no naive reference path", p.Name())
	}
	return ns.selectNaive(query, opts)
}

// editNormalize prepares a string for the edit-based predicate: whitespace
// runs collapse to the q-gram pad sequence and letters are upper-cased, so
// that the q-gram filter and the verification distance operate on the same
// text (§4.4).
func editNormalize(s string, q int) string {
	return tokenize.EditNormalize(s, q)
}

// sortedTokens returns the map's keys in sorted order. It is the pre-corpus
// deterministic iteration order; query paths now use the corpus's
// precomputed token rank instead (GramLayer.OrderedKnown), which sorts
// small ints rather than strings — BenchmarkQueryTokenOrder measures the
// per-Select win.
func sortedTokens[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for t := range m {
		keys = append(keys, t)
	}
	sort.Strings(keys)
	return keys
}

// phases is the embeddable timing record for core.Phased.
type phases struct {
	tokDur time.Duration
	wDur   time.Duration
}

// PreprocessPhases returns the tokenization and weight-computation times.
// For corpus-attached predicates the tokenization phase is the shared
// corpus pass (reported identically by every attached predicate), and the
// weight phase covers the shared table assembly plus this predicate's
// attach cost.
func (p *phases) PreprocessPhases() (time.Duration, time.Duration) {
	return p.tokDur, p.wDur
}

func (p *phases) setPhases(tok, w time.Duration) { p.tokDur, p.wDur = tok, w }

type phaseSetter interface{ setPhases(tok, w time.Duration) }

// Build constructs the named predicate over a private one-shot corpus
// materializing only the layers the predicate reads. Names match
// core.PredicateNames.
func Build(name string, records []core.Record, cfg core.Config) (core.Predicate, error) {
	need, ok := layerNeeds[name]
	if !ok {
		return nil, fmt.Errorf("native: unknown predicate %q", name)
	}
	c, err := core.NewCorpus(records, cfg, need)
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
	need, ok := layerNeeds[name]
	if !ok {
		return nil, fmt.Errorf("native: unknown predicate %q", name)
	}
	if !c.Layers().Has(need) {
		return nil, fmt.Errorf("native: corpus does not materialize the layers predicate %s reads", name)
	}
	if err := c.CompatibleConfig(cfg); err != nil {
		return nil, err
	}
	snap := c.Snapshot()
	t0 := time.Now()
	var p core.Predicate
	switch name {
	case "IntersectSize":
		p = attachIntersectSize(snap, cfg)
	case "Jaccard":
		p = attachJaccard(snap, cfg)
	case "WeightedMatch":
		p = attachWeightedMatch(snap, cfg)
	case "WeightedJaccard":
		p = attachWeightedJaccard(snap, cfg)
	case "Cosine":
		p = attachCosine(snap, cfg)
	case "BM25":
		p = attachBM25(snap, cfg)
	case "LM":
		p = attachLM(snap, cfg)
	case "HMM":
		p = attachHMM(snap, cfg)
	case "EditDistance":
		p = attachEditDistance(snap, cfg)
	case "GES":
		p = attachGES(snap, cfg)
	case "GESJaccard":
		p = attachGESJaccard(snap, cfg)
	case "GESapx":
		p = attachGESapx(snap, cfg)
	case "SoftTFIDF":
		p = attachSoftTFIDF(snap, cfg)
	}
	p.(phaseSetter).setPhases(snap.TokDur, snap.WeightDur+time.Since(t0))
	return p, nil
}
