package declarative

import (
	"runtime"
	"testing"

	"repro/internal/core"
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
	ds, err := dirty.DBLP(2000, 1)
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
// and indexes it leaves behind, counted as tables. Build keeps only the
// tables the predicate's select reads (TestBuildKeepsOnlyWhatSelectReads).
func BenchmarkDeclarativePreprocess(b *testing.B) {
	records := benchRelation(b)
	for _, name := range declSix {
		b.Run(name, func(b *testing.B) {
			var retained float64
			var tables int
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
				tables = len(p.(*predicate).db.TableNames())
				b.StartTimer()
			}
			b.ReportMetric(retained/float64(b.N)/(1<<20), "MiB-retained")
			b.ReportMetric(float64(tables), "tables")
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
