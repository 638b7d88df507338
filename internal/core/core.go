// Package core defines the shared vocabulary of the benchmark: base
// records, approximate-selection results, the Predicate interface every
// similarity predicate implements (natively in package native, declaratively
// over SQL in package declarative), and the configuration knobs with the
// paper's recommended settings (§5.3.2).
package core

import (
	"sort"
	"time"
)

// Record is one tuple of the base relation R: a unique tuple identifier and
// a string attribute.
type Record struct {
	TID  int
	Text string
}

// Match is one result of an approximate selection: a base tuple and its
// similarity score to the query string.
type Match struct {
	TID   int
	Score float64
}

// Predicate is an approximate-selection predicate over a fixed base
// relation. Select returns every base tuple whose similarity to the query
// is defined under the predicate (for join-based predicates: tuples sharing
// at least one token with the query), ranked by decreasing score with ties
// broken by increasing TID. The accuracy methodology (§5.2) deliberately
// does not threshold this ranking.
//
// Select is safe for concurrent use: batches, joins, shard fan-outs and the
// server call it from many goroutines at once, so a predicate with
// per-select state (the declarative realization's query tables) guards that
// state itself.
type Predicate interface {
	Name() string
	Select(query string) ([]Match, error)
}

// Phased is implemented by predicates that track the two preprocessing
// phases of §5.5.1: tokenization and weight computation.
type Phased interface {
	// PreprocessPhases returns the time spent tokenizing the base relation
	// and the time spent computing and storing weights.
	PreprocessPhases() (tokenize, weights time.Duration)
}

// Config carries the tunable parameters for all predicates. The zero value
// is not useful; start from DefaultConfig.
type Config struct {
	// Q is the q-gram size used by the token-based predicates. The paper's
	// accuracy study selects q=2 (§5.3.3).
	Q int
	// WordQ is the q-gram size used to compare word tokens inside the
	// combination predicates (GES variants).
	WordQ int
	// BM25K1, BM25K3, BM25B are the BM25 parameters (§5.3.2: 1.5, 8, 0.675).
	BM25K1, BM25K3, BM25B float64
	// HMMA0 is the HMM "General English" transition probability (§5.3.2: 0.2).
	HMMA0 float64
	// GESCins is the GES token-insertion factor (§5.3.2: 0.5, from [4]).
	GESCins float64
	// GESThreshold is the candidate-filter threshold θ used by GESJaccard
	// and GESapx (§5.5.2 uses 0.8). Zero disables filtering (every record
	// sharing a word q-gram with the query is verified).
	GESThreshold float64
	// SoftTFIDFTheta is the Jaro–Winkler closeness threshold of SoftTFIDF
	// (§5.3.2: 0.8).
	SoftTFIDFTheta float64
	// EditTheta is the edit-similarity threshold driving the q-gram
	// filtering step of the edit predicate (§5.5.2 uses 0.7). Zero disables
	// filtering and ranks the entire base relation by edit similarity.
	EditTheta float64
	// EditPositional enables the position filter of Gravano et al. [11] in
	// the native edit predicate: shared grams only count when their
	// positions differ by at most the edit budget, tightening the candidate
	// set with no false negatives.
	EditPositional bool
	// MinHashK is the min-hash signature size for GESapx (§5.4.1: 5).
	MinHashK int
	// MinHashSeed seeds the min-wise permutation family deterministically.
	MinHashSeed int64
	// PruneRate is the IDF pruning rate of §5.6: base tokens with
	// idf < min(idf) + rate·(max(idf) − min(idf)) are dropped during
	// preprocessing. Zero disables pruning.
	PruneRate float64
}

// DefaultConfig returns the paper's parameter settings.
func DefaultConfig() Config {
	return Config{
		Q:              2,
		WordQ:          2,
		BM25K1:         1.5,
		BM25K3:         8,
		BM25B:          0.675,
		HMMA0:          0.2,
		GESCins:        0.5,
		GESThreshold:   0.8,
		SoftTFIDFTheta: 0.8,
		EditTheta:      0.7,
		MinHashK:       5,
		MinHashSeed:    1,
	}
}

// PredicateNames lists the canonical benchmark predicates in the order the
// paper presents them (Table 5.5 and Figures 5.1–5.4).
var PredicateNames = []string{
	"IntersectSize",
	"Jaccard",
	"WeightedMatch",
	"WeightedJaccard",
	"Cosine",
	"BM25",
	"LM",
	"HMM",
	"EditDistance",
	"GES",
	"GESJaccard",
	"GESapx",
	"SoftTFIDF",
}

// SortMatches orders matches by decreasing score, breaking ties by
// increasing TID, the ordering contract of Predicate.Select.
func SortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Score != ms[j].Score {
			return ms[i].Score > ms[j].Score
		}
		return ms[i].TID < ms[j].TID
	})
}
