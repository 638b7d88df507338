package native

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/dirty"
)

// hotPathCorpus builds a dirty DBLP-like relation and an all-layers corpus,
// the workload shape of the benchmark's performance experiments.
func hotPathCorpus(t testing.TB, size int, seed int64) (*core.Corpus, []core.Record, core.Config) {
	t.Helper()
	clean := datasets.DBLPTitles(maxInt(size/10, 10), seed)
	ds, err := dirty.Generate(clean, nil, dirty.Params{
		Size: size, NumClean: maxInt(size/10, 10), Dist: dirty.Uniform,
		ErroneousPct: 0.70, ErrorExtent: 0.20, TokenSwapPct: 0.20,
		Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	c, err := core.NewCorpus(ds.Records, cfg, core.AllLayers)
	if err != nil {
		t.Fatal(err)
	}
	return c, ds.Records, cfg
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// hotPathQueries mixes dirty record texts with a query containing unknown
// tokens and a short one.
func hotPathQueries(records []core.Record) []string {
	qs := []string{
		records[1].Text,
		records[len(records)/2].Text,
		records[len(records)-1].Text + " zq",
		"zzzz qqqq xylophone",
		"of",
	}
	return qs
}

// thresholdFor picks a threshold that splits a predicate's full ranking
// roughly in half, so threshold push-down is exercised meaningfully.
func thresholdFor(t *testing.T, p core.Predicate, query string) (float64, bool) {
	t.Helper()
	full, err := NaiveSelect(p, query, core.SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) == 0 {
		return 0, false
	}
	return full[len(full)/2].Score, true
}

func assertIdentical(t *testing.T, label string, want, got []core.Match) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d matches != %d\nwant %v\ngot  %v", label, len(want), len(got), want, got)
	}
	for i := range want {
		if want[i].TID != got[i].TID || want[i].Score != got[i].Score {
			t.Fatalf("%s: position %d: want %+v, got %+v", label, i, want[i], got[i])
		}
	}
}

// diffOne runs the optimized hot path against the naive reference for one
// predicate and query across the full option matrix, demanding bit-identical
// scores and tie order.
func diffOne(t *testing.T, p core.Predicate, query string) {
	t.Helper()
	ctx := context.Background()
	cp := p.(core.ContextPredicate)
	optsList := []core.SelectOptions{
		{},
		{Limit: 1},
		{Limit: 10},
	}
	if th, ok := thresholdFor(t, p, query); ok {
		optsList = append(optsList,
			core.SelectOptions{Threshold: th, HasThreshold: true},
			core.SelectOptions{Limit: 10, Threshold: th, HasThreshold: true},
		)
	}
	for _, opts := range optsList {
		want, err := NaiveSelect(p, query, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cp.SelectCtx(ctx, query, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, fmt.Sprintf("%s opts=%+v query=%q", p.Name(), opts, query), want, got)
	}
}

// TestHotPathDifferential proves the optimized score-at-a-time path exact:
// for all 13 predicates and every option shape the ranked results are
// bit-identical to the naive reference merge — before and after an
// Insert/Delete epoch, so the snapshot bound columns are shown to stay in
// sync with mutations.
func TestHotPathDifferential(t *testing.T) {
	c, records, cfg := hotPathCorpus(t, 160, 3)
	queries := hotPathQueries(records)
	for _, name := range core.PredicateNames {
		name := name
		t.Run(name, func(t *testing.T) {
			p, err := Attach(name, c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				diffOne(t, p, q)
			}
		})
	}

	// Mutate: delete a slice of records, insert fresh ones (new tokens
	// included), then re-attach and differential-test again. Every bound
	// column is rebuilt with the epoch's tables; a stale bound would show
	// up as a pruned-away record or a changed score.
	if err := c.Delete(records[3].TID, records[40].TID, records[77].TID); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(
		core.Record{TID: 900001, Text: "entirely novel xylophone quartet manuscripts"},
		core.Record{TID: 900002, Text: records[10].Text + " addendum"},
	); err != nil {
		t.Fatal(err)
	}
	queries = append(queries, "entirely novel xylophone quartet")
	for _, name := range core.PredicateNames {
		name := name
		t.Run(name+"/epoch2", func(t *testing.T) {
			p, err := Attach(name, c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				diffOne(t, p, q)
			}
		})
	}
}

// TestHotPathConcurrentScratch hammers predicates from concurrent
// goroutines sharing the global scratch pool (run under -race in CI):
// every goroutine must see results identical to the sequential baseline.
func TestHotPathConcurrentScratch(t *testing.T) {
	c, records, cfg := hotPathCorpus(t, 120, 5)
	queries := hotPathQueries(records)
	names := []string{"Cosine", "BM25", "LM", "Jaccard", "WeightedJaccard", "EditDistance", "GESJaccard"}
	opts := core.SelectOptions{Limit: 10}
	ctx := context.Background()

	type key struct {
		name  string
		query string
	}
	expected := map[key][]core.Match{}
	preds := map[string]core.ContextPredicate{}
	for _, name := range names {
		p, err := Attach(name, c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		preds[name] = p.(core.ContextPredicate)
		for _, q := range queries {
			ms, err := preds[name].SelectCtx(ctx, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			expected[key{name, q}] = ms
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				name := names[(g+i)%len(names)]
				q := queries[(g*7+i)%len(queries)]
				ms, err := preds[name].SelectCtx(ctx, q, opts)
				if err != nil {
					errs <- err
					return
				}
				want := expected[key{name, q}]
				if len(ms) != len(want) {
					errs <- fmt.Errorf("%s: concurrent result diverged", name)
					return
				}
				for j := range ms {
					if ms[j] != want[j] {
						errs <- fmt.Errorf("%s: concurrent result diverged at %d", name, j)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSelectHotPathAllocs asserts the map-free steady state of the dense
// hot path: once the scratch pool is warm, a Limit=10 selection over the
// aggregate-weighted class performs only a small constant number of
// allocations (query tokenization, plan slice, k-sized result) — no
// O(candidates) accumulator maps.
func TestSelectHotPathAllocs(t *testing.T) {
	c, records, cfg := hotPathCorpus(t, 500, 9)
	query := records[7].Text
	opts := core.SelectOptions{Limit: 10}
	ctx := context.Background()
	for _, name := range []string{"Cosine", "BM25", "LM", "WeightedMatch", "IntersectSize"} {
		p, err := Attach(name, c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cp := p.(core.ContextPredicate)
		// Warm the pool and the plan buffers.
		for i := 0; i < 3; i++ {
			if _, err := cp.SelectCtx(ctx, query, opts); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := cp.SelectCtx(ctx, query, opts); err != nil {
				t.Fatal(err)
			}
		})
		// The naive map path allocates hundreds of objects per query at
		// this size (accumulator map growth alone); the dense path budget
		// covers query-side tokenization plus the k-sized result.
		if allocs > 150 {
			t.Errorf("%s: %v allocs/op — accumulator maps are back on the hot path?", name, allocs)
		}
		naive := testing.AllocsPerRun(20, func() {
			if _, err := NaiveSelect(p, query, opts); err != nil {
				t.Fatal(err)
			}
		})
		if naive <= allocs {
			t.Logf("%s: naive %v allocs vs optimized %v (informational)", name, naive, allocs)
		}
	}
}

// BenchmarkSelectHotPath measures ns/op and allocs/op of the optimized
// path against the naive reference merge, one representative predicate per
// class, at Limit=10 — the BENCH_hotpath.json scenario in Go-bench form.
func BenchmarkSelectHotPath(b *testing.B) {
	c, records, cfg := hotPathCorpus(b, 2000, 11)
	queries := hotPathQueries(records)
	opts := core.SelectOptions{Limit: 10}
	ctx := context.Background()
	for _, name := range []string{"Cosine", "BM25", "LM", "IntersectSize", "Jaccard", "WeightedMatch", "EditDistance", "GESJaccard", "GES", "SoftTFIDF"} {
		p, err := Attach(name, c, cfg)
		if err != nil {
			b.Fatal(err)
		}
		cp := p.(core.ContextPredicate)
		b.Run(name+"/optimized", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cp.SelectCtx(ctx, queries[i%len(queries)], opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/naive", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NaiveSelect(p, queries[i%len(queries)], opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFirstReadAfterWrite measures what the first read of each
// predicate pays after a single-record write: the view re-attaches to the
// new snapshot — deriving whatever shared weight column it reads, which a
// write no longer builds — and answers one query. This is where the cost
// that left the write path went; it must stay visible.
func BenchmarkFirstReadAfterWrite(b *testing.B) {
	c, records, cfg := hotPathCorpus(b, 2000, 11)
	query := records[len(records)/2].Text
	opts := core.SelectOptions{Limit: 10}
	ctx := context.Background()
	extra := core.Record{TID: 1 << 30, Text: records[7].Text + " appended"}
	for _, name := range core.PredicateNames {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				b.StopTimer()
				if err := c.Insert(extra); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				p, err := Attach(name, c, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := p.(core.ContextPredicate).SelectCtx(ctx, query, opts); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := c.Delete(extra.TID); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
