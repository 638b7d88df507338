package declarative

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/dirty"
)

// benchSink keeps the measured call's result alive.
var benchSink []core.Match

// declSix is one predicate per class, the six the reference benchmark's
// decl-sql workload runs.
var declSix = []string{"Jaccard", "BM25", "LM", "EditDistance", "GESJaccard", "SoftTFIDF"}

// benchRelation is the relation of the decl-sql workload: 2 000 dirty DBLP
// titles (§5.5), seed 1.
func benchRelation(b *testing.B) []core.Record {
	const size = 2000
	ds, err := dirty.Generate(datasets.DBLPTitles(size/10, 1), nil, dirty.Params{
		Size: size, NumClean: size / 10, Dist: dirty.Uniform,
		ErroneousPct: 0.70, ErrorExtent: 0.20, TokenSwapPct: 0.20,
		Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return ds.Records
}

// heapInUse returns the live heap after a full collection.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BenchmarkDeclarativePreprocess times building each decl-sql predicate —
// its whole Appendix A/B preprocessing in SQL — and reports what the built
// predicate keeps on the heap as MiB-retained: the sqldb tables, columns
// and indexes it leaves behind.
func BenchmarkDeclarativePreprocess(b *testing.B) {
	records := benchRelation(b)
	for _, name := range declSix {
		b.Run(name, func(b *testing.B) {
			var retained float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				before := heapInUse()
				b.StartTimer()
				p, err := Build(name, records, core.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				retained += float64(heapInUse()) - float64(before)
				runtime.KeepAlive(p)
				b.StartTimer()
			}
			b.ReportMetric(retained/float64(b.N)/(1<<20), "MiB-retained")
		})
	}
}

// BenchmarkDeclarativeSelect measures one select per predicate class over
// the relation of the decl-sql workload, cycling through 40 queries. Run
// with -benchmem: allocs/op is the number the sqldb executor is held to.
func BenchmarkDeclarativeSelect(b *testing.B) {
	const queries = 40
	records := benchRelation(b)
	size := len(records)
	for _, name := range declSix {
		b.Run(name, func(b *testing.B) {
			p, err := Build(name, records, core.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := records[i%queries*(size/queries)].Text
				if benchSink, err = p.Select(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
