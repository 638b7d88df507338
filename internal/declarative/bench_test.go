package declarative

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/dirty"
)

// benchSink keeps the measured call's result alive.
var benchSink []core.Match

// BenchmarkDeclarativeSelect measures one select per predicate class over
// the relation the reference benchmark's decl-sql workload uses (2 000
// dirty DBLP titles, §5.5), cycling through 40 queries. Run with -benchmem:
// allocs/op is the number the sqldb executor is held to.
func BenchmarkDeclarativeSelect(b *testing.B) {
	const size, queries = 2000, 40
	ds, err := dirty.Generate(datasets.DBLPTitles(size/10, 1), nil, dirty.Params{
		Size: size, NumClean: size / 10, Dist: dirty.Uniform,
		ErroneousPct: 0.70, ErrorExtent: 0.20, TokenSwapPct: 0.20,
		Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"Jaccard", "BM25", "LM", "EditDistance", "GESJaccard", "SoftTFIDF"} {
		b.Run(name, func(b *testing.B) {
			p, err := Build(name, ds.Records, core.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := ds.Records[i%queries*(size/queries)].Text
				if benchSink, err = p.Select(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
