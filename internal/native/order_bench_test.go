package native

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/tokenize"
)

// BenchmarkQueryTokenOrder measures the per-Select cost of deterministic
// query-token iteration plus the posting probe that follows it. The
// historical path re-sorted the query's token strings on every Select and
// probed a string-keyed posting map per token; the corpus-backed path
// finds each token's rank in the sorted token table once, sorts small
// ints, and indexes posting slices directly.
func BenchmarkQueryTokenOrder(b *testing.B) {
	titles := makeTitles(2000)
	records := make([]core.Record, len(titles))
	for i, t := range titles {
		records[i] = core.Record{TID: i + 1, Text: t}
	}
	c, err := core.NewCorpus(records, core.DefaultConfig(), core.LayerGrams|core.LayerTokenIDs|core.LayerTFIDF)
	if err != nil {
		b.Fatal(err)
	}
	layer := c.Snapshot().Grams
	tfidf := layer.TFIDF().Post
	// The pre-corpus architecture: a string-keyed posting map.
	strPost := make(map[string][]float64, len(layer.TokenByRank))
	for r, t := range layer.TokenByRank {
		strPost[t] = tfidf[r]
	}
	queries := make([]map[string]int, 64)
	for i := range queries {
		queries[i] = tokenize.Counts(tokenize.QGrams(titles[i*17%len(titles)], 2))
	}

	b.Run("StringSortMapProbe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			total := 0
			for _, t := range sortedTokens(queries[i%len(queries)]) {
				total += len(strPost[t])
			}
			if total == 0 {
				b.Fatal("no postings")
			}
		}
	})
	b.Run("RankSortSliceProbe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			total := 0
			for _, rt := range layer.OrderedKnownRanks(queries[i%len(queries)]) {
				total += len(tfidf[rt.Rank])
			}
			if total == 0 {
				b.Fatal("no postings")
			}
		}
	})
}

// sortedTokens returns the map's keys in sorted order: the pre-corpus
// deterministic iteration order that StringSortMapProbe measures.
func sortedTokens[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for t := range m {
		keys = append(keys, t)
	}
	sort.Strings(keys)
	return keys
}

// BenchmarkSelectOrdered measures a full weighted Select, whose token
// iteration order now comes from the corpus rank table.
func BenchmarkSelectOrdered(b *testing.B) {
	titles := makeTitles(2000)
	records := make([]core.Record, len(titles))
	for i, t := range titles {
		records[i] = core.Record{TID: i + 1, Text: t}
	}
	p, err := Build("BM25", records, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Select(titles[i*13%len(titles)]); err != nil {
			b.Fatal(err)
		}
	}
}

// makeTitles deterministically generates paper-title-like strings without
// importing the datasets package (which would cycle through the facade).
func makeTitles(n int) []string {
	words := []string{
		"approximate", "selection", "predicates", "declarative", "benchmark",
		"queries", "similarity", "tokens", "weights", "probabilistic",
		"database", "cleaning", "records", "matching", "evaluation",
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		a := words[i%len(words)]
		b := words[(i*7+3)%len(words)]
		c := words[(i*13+5)%len(words)]
		d := words[(i*29+11)%len(words)]
		out[i] = a + " " + b + " " + c + " " + d
	}
	return out
}
