package approxsel

// One benchmark per table and figure of the paper's evaluation chapter.
//
// The accuracy tables and Figures 5.1, 5.5 and 5.6 run the experiment of
// internal/experiments end to end at a reduced scale (Scaled(10): 500-tuple
// datasets, 50 queries); approxbench prints the same experiments as tables
// at any scale, but times nothing.
//
// The timing figures of §5.5 time one build or one select per op over the
// dirty DBLP relation, with one sub-benchmark per relation size,
// realization and predicate, named n=<size>/<realization>/<predicate>:
//
//	go test -run '^$' -bench 'Figure52' .  # preprocessing, n ∈ {1000, 10000}
//	go test -run '^$' -bench 'Figure53' .  # query time, n ∈ {1000, 10000}
//	go test -run '^$' -bench 'Figure54' .  # query time vs size, n ∈ {1000 … 10000}
//
// A sub-benchmark pattern is unanchored, so select one size with a $:
// -bench 'Figure5[234]/n=1000$/'.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dirty"
	"repro/internal/experiments"
)

func benchAccOpts() experiments.Options {
	return experiments.Scaled(10)
}

// BenchmarkTable51_DatasetStats regenerates Table 5.1 (clean dataset
// statistics).
func BenchmarkTable51_DatasetStats(b *testing.B) {
	o := benchAccOpts()
	for i := 0; i < b.N; i++ {
		r := experiments.Table51(o)
		if r.Company.Tuples == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkTable53_DatasetGeneration regenerates Table 5.3 (the thirteen
// benchmark datasets).
func BenchmarkTable53_DatasetGeneration(b *testing.B) {
	o := benchAccOpts()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table53(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable_QgramSize regenerates the §5.3.3 q-gram size accuracy
// table.
func BenchmarkTable_QgramSize(b *testing.B) {
	o := benchAccOpts()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.QGramSize(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable55_AbbrTokenSwap regenerates Table 5.5 (accuracy under
// abbreviation and token swap errors).
func BenchmarkTable55_AbbrTokenSwap(b *testing.B) {
	o := benchAccOpts()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table55(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable56_EditErrors regenerates Table 5.6 (accuracy under edit
// errors of growing extent).
func BenchmarkTable56_EditErrors(b *testing.B) {
	o := benchAccOpts()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table56(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure51_MAP regenerates Figure 5.1 (MAP per error class for
// all thirteen predicates).
func BenchmarkFigure51_MAP(b *testing.B) {
	o := benchAccOpts()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure51(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable57_GESThresholds regenerates Table 5.7 (GES filter
// threshold sweep on CU1).
func BenchmarkTable57_GESThresholds(b *testing.B) {
	o := benchAccOpts()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table57(o); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFigure runs leaf as the sub-benchmark n=<size>/<realization>/<name>
// for every size, both realizations and every name, over the §5.5 relation
// of that size (dirty.DBLP, seed 1).
func benchFigure(b *testing.B, sizes []int, names []string, leaf func(b *testing.B, records []Record, r Realization, name string)) {
	for _, n := range sizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ds, err := dirty.DBLP(n, 1)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range []Realization{Native, Declarative} {
				b.Run(string(r), func(b *testing.B) {
					for _, name := range names {
						b.Run(name, func(b *testing.B) { leaf(b, ds.Records, r, name) })
					}
				})
			}
		})
	}
}

// benchSelect times one Select per op, cycling over 100 record texts drawn
// from the relation (§5.5: 100 queries). A positive words keeps only the
// first words words of each text.
func benchSelect(b *testing.B, records []Record, r Realization, name string, words int) {
	p, err := New(name, records, DefaultConfig(), WithRealization(r))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	queries := make([]string, 100)
	for i := range queries {
		q := strings.Fields(records[rng.Intn(len(records))].Text)
		if words > 0 && len(q) > words {
			q = q[:words]
		}
		queries[i] = strings.Join(q, " ")
	}
	i := 0
	for b.Loop() {
		if _, err := p.Select(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// BenchmarkFigure52_Preprocessing regenerates Figure 5.2: the time to build
// each predicate, reported with the last build's split into tokenization
// and weight computation (core.Phased) as tokenize-s and weights-s.
func BenchmarkFigure52_Preprocessing(b *testing.B) {
	benchFigure(b, []int{1000, 10000}, core.PredicateNames, func(b *testing.B, records []Record, r Realization, name string) {
		var p Predicate
		for b.Loop() {
			var err error
			if p, err = New(name, records, DefaultConfig(), WithRealization(r)); err != nil {
				b.Fatal(err)
			}
		}
		ph, ok := p.(core.Phased)
		if !ok {
			b.Fatalf("%s %s does not report its preprocessing phases", r, name)
		}
		tok, w := ph.PreprocessPhases()
		b.ReportMetric(tok.Seconds(), "tokenize-s")
		b.ReportMetric(w.Seconds(), "weights-s")
	})
}

// BenchmarkFigure53_QueryTime regenerates Figure 5.3: the time of one
// selection per predicate.
func BenchmarkFigure53_QueryTime(b *testing.B) {
	benchFigure(b, []int{1000, 10000}, core.PredicateNames, func(b *testing.B, records []Record, r Realization, name string) {
		benchSelect(b, records, r, name, 0)
	})
}

// BenchmarkFigure54_Scalability regenerates Figure 5.4: query time as the
// base table grows. As in the paper, edit distance is left out for its poor
// accuracy, and the combination predicates SoftTFIDF, GESJaccard and GESapx
// take 3-word queries.
func BenchmarkFigure54_Scalability(b *testing.B) {
	var names []string
	for _, name := range core.PredicateNames {
		if name != "EditDistance" {
			names = append(names, name)
		}
	}
	benchFigure(b, []int{1000, 2500, 5000, 10000}, names, func(b *testing.B, records []Record, r Realization, name string) {
		words := 0
		if name == "SoftTFIDF" || name == "GESJaccard" || name == "GESapx" {
			words = 3
		}
		benchSelect(b, records, r, name, words)
	})
}

// BenchmarkFigure55_Pruning regenerates Figure 5.5 (MAP vs IDF pruning
// rate).
func BenchmarkFigure55_Pruning(b *testing.B) {
	o := benchAccOpts()
	o.Queries = 20
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure55(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure56_IDFHistogram regenerates Figure 5.6 (IDF distribution
// of 3-grams on CU1).
func BenchmarkFigure56_IDFHistogram(b *testing.B) {
	o := benchAccOpts()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure56(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAll_Tiny runs the entire experiment suite end to end at a
// very small scale, as a smoke benchmark of the whole pipeline.
func BenchmarkRunAll_Tiny(b *testing.B) {
	o := experiments.Scaled(25)
	for i := 0; i < b.N; i++ {
		if err := experiments.RunAll(io.Discard, o); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- ablation benchmarks ----

// BenchmarkAblationMinHashK times the GESapx build per signature size K
// over the 1 000-record §5.5 relation. §5.4.1: more signatures cost
// preprocessing time without much accuracy, which
// experiments.AblationMinHashK measures.
func BenchmarkAblationMinHashK(b *testing.B) {
	ds, err := dirty.DBLP(1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 2, 5, 10, 20} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.MinHashK = k
			for b.Loop() {
				if _, err := New("GESapx", ds.Records, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationQSweep extends the §5.3.3 q study to q ∈ {1,2,3,4}.
func BenchmarkAblationQSweep(b *testing.B) {
	o := benchAccOpts()
	o.Queries = 20
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationQSweep(o); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- shared-corpus preprocessing (the Corpus API acceptance benchmark) ----

func corpusBenchRecords(n int) []Record {
	titles := DBLPTitles(n, 11)
	records := make([]Record, len(titles))
	for i, title := range titles {
		records[i] = Record{TID: i + 1, Text: title}
	}
	return records
}

// BenchmarkPreprocessThirteenIndependent builds the full predicate suite
// the pre-corpus way: thirteen New calls, each re-tokenizing the 5000-record
// relation and rebuilding its own statistics.
func BenchmarkPreprocessThirteenIndependent(b *testing.B) {
	records := corpusBenchRecords(5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range PredicateNames() {
			if _, err := New(name, records); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPreprocessThirteenShared builds the same suite through one
// shared Corpus: a single tokenization/statistics pass plus thirteen cheap
// attaches. The acceptance bar is ≥5× less total preprocessing time than
// the independent benchmark above.
func BenchmarkPreprocessThirteenShared(b *testing.B) {
	records := corpusBenchRecords(5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := OpenCorpus(records)
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range PredicateNames() {
			if _, err := c.Predicate(name); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---- batch probing and top-k push-down (the options API) ----

func dblpPredicate(b *testing.B, size int) (Predicate, []string) {
	b.Helper()
	titles := DBLPTitles(size, 7)
	records := make([]Record, len(titles))
	for i, title := range titles {
		records[i] = Record{TID: i + 1, Text: title}
	}
	p, err := New("BM25", records)
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]string, 100)
	for i := range queries {
		queries[i] = titles[(i*37)%len(titles)]
	}
	return p, queries
}

func benchSelectBatch(b *testing.B, workers int) {
	p, queries := dblpPredicate(b, 2000)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SelectBatch(ctx, p, queries, Workers(workers)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectBatchWorkers1 is the sequential baseline of the batch API.
func BenchmarkSelectBatchWorkers1(b *testing.B) { benchSelectBatch(b, 1) }

// BenchmarkSelectBatchWorkersMax probes the same batch with a
// GOMAXPROCS-sized worker pool.
func BenchmarkSelectBatchWorkersMax(b *testing.B) {
	benchSelectBatch(b, runtime.GOMAXPROCS(0))
}

// BenchmarkSelectFullSort ranks the entire candidate set and truncates to
// ten matches afterwards — the pre-push-down TopK path.
func BenchmarkSelectFullSort(b *testing.B) {
	p, queries := dblpPredicate(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms, err := p.Select(queries[i%len(queries)])
		if err != nil {
			b.Fatal(err)
		}
		if len(ms) > 10 {
			ms = ms[:10]
		}
		_ = ms
	}
}

// BenchmarkSelectHeapTopK pushes Limit(10) down into the predicate, which
// keeps a 10-bounded heap instead of sorting the full candidate set.
func BenchmarkSelectHeapTopK(b *testing.B) {
	p, queries := dblpPredicate(b, 5000)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SelectCtx(ctx, p, queries[i%len(queries)], Limit(10)); err != nil {
			b.Fatal(err)
		}
	}
}
