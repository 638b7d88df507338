package approxsel

// One benchmark per table and figure of the paper's evaluation chapter.
// Each bench runs the corresponding experiment end to end at a reduced
// scale (Scaled(10): 500-tuple datasets, 50 queries; performance figures on
// 1–2k-record relations), so `go test -bench=.` regenerates every artifact
// in minutes. The approxbench binary runs the same experiments at paper
// scale and prints the tables.

import (
	"context"
	"io"
	"runtime"
	"testing"

	"repro/internal/experiments"
)

func benchAccOpts() experiments.Options {
	return experiments.Scaled(10)
}

func benchPerfOpts() experiments.PerfOptions {
	o := experiments.PerfDefaults()
	o.Size = 1000
	o.Sizes = []int{500, 1000, 2000}
	o.Queries = 10
	return o
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

// BenchmarkFigure52_Preprocessing regenerates Figure 5.2 (preprocessing
// time per predicate, declarative realization).
func BenchmarkFigure52_Preprocessing(b *testing.B) {
	o := benchPerfOpts()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure52(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure53_QueryTime regenerates Figure 5.3 (query time per
// predicate, declarative realization).
func BenchmarkFigure53_QueryTime(b *testing.B) {
	o := benchPerfOpts()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure53(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure54_Scalability regenerates Figure 5.4 (query time vs base
// table size for the paper's predicate groups).
func BenchmarkFigure54_Scalability(b *testing.B) {
	o := benchPerfOpts()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure54(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure55_Pruning regenerates Figure 5.5 (IDF pruning: MAP and
// query time vs pruning rate).
func BenchmarkFigure55_Pruning(b *testing.B) {
	ao := benchAccOpts()
	ao.Queries = 20
	po := benchPerfOpts()
	po.Queries = 5
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure55(ao, po); err != nil {
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
	ao := experiments.Scaled(25)
	po := benchPerfOpts()
	po.Size = 300
	po.Sizes = []int{300}
	po.Queries = 3
	for i := 0; i < b.N; i++ {
		if err := experiments.RunAll(io.Discard, ao, po); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- ablation benchmarks ----

// BenchmarkAblationMinHashK sweeps the GESapx signature size (§5.4.1).
func BenchmarkAblationMinHashK(b *testing.B) {
	o := benchAccOpts()
	o.Queries = 20
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationMinHashK(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationImplOverhead compares declarative vs native query time.
func BenchmarkAblationImplOverhead(b *testing.B) {
	o := benchPerfOpts()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationImplOverhead(o); err != nil {
			b.Fatal(err)
		}
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

// ---- micro-benchmarks: per-predicate query latency on the facade ----

func benchPredicate(b *testing.B, name string, declarative bool) {
	names := CompanyNames(1000, 1)
	records := make([]Record, len(names))
	for i, n := range names {
		records[i] = Record{TID: i + 1, Text: n}
	}
	cfg := DefaultConfig()
	var p Predicate
	var err error
	if declarative {
		p, err = NewDeclarative(name, records, cfg)
	} else {
		p, err = New(name, records, cfg)
	}
	if err != nil {
		b.Fatal(err)
	}
	query := names[17]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Select(query); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectNativeBM25(b *testing.B)      { benchPredicate(b, "BM25", false) }
func BenchmarkSelectNativeJaccard(b *testing.B)   { benchPredicate(b, "Jaccard", false) }
func BenchmarkSelectNativeHMM(b *testing.B)       { benchPredicate(b, "HMM", false) }
func BenchmarkSelectNativeLM(b *testing.B)        { benchPredicate(b, "LM", false) }
func BenchmarkSelectNativeCosine(b *testing.B)    { benchPredicate(b, "Cosine", false) }
func BenchmarkSelectNativeEdit(b *testing.B)      { benchPredicate(b, "EditDistance", false) }
func BenchmarkSelectNativeSoftTFIDF(b *testing.B) { benchPredicate(b, "SoftTFIDF", false) }
func BenchmarkSelectNativeGESJaccard(b *testing.B) {
	benchPredicate(b, "GESJaccard", false)
}

func BenchmarkSelectDeclarativeBM25(b *testing.B)    { benchPredicate(b, "BM25", true) }
func BenchmarkSelectDeclarativeJaccard(b *testing.B) { benchPredicate(b, "Jaccard", true) }
func BenchmarkSelectDeclarativeHMM(b *testing.B)     { benchPredicate(b, "HMM", true) }
func BenchmarkSelectDeclarativeLM(b *testing.B)      { benchPredicate(b, "LM", true) }

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
