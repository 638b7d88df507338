package native

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/dirty"
	"repro/internal/weights"
)

// hotPathCorpus builds a dirty DBLP-like relation and an all-layers corpus,
// the workload shape of the benchmark's performance experiments.
func hotPathCorpus(t testing.TB, size int, seed int64) (*core.Corpus, []core.Record, core.Config) {
	t.Helper()
	records := hotPathRecords(t, size, seed)
	cfg := core.DefaultConfig()
	c, err := core.NewCorpus(records, cfg, core.AllLayers)
	if err != nil {
		t.Fatal(err)
	}
	return c, records, cfg
}

// hotPathRecords is the dirty DBLP-like relation alone.
func hotPathRecords(t testing.TB, size int, seed int64) []core.Record {
	t.Helper()
	clean := datasets.DBLPTitles(max(size/10, 10), seed)
	ds, err := dirty.Generate(clean, nil, dirty.Params{
		Size: size, NumClean: max(size/10, 10), Dist: dirty.Uniform,
		ErroneousPct: 0.70, ErrorExtent: 0.20, TokenSwapPct: 0.20,
		Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds.Records
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
		{Limit: 3},
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

// TestCosineSkipsZeroNormRecords pins the zero-norm case of the Cosine
// column. Every gram of "ab" occurs in every record, so all its grams have
// idf 0 and its tf-idf vector is undefined: the record sits in the shared
// posting lists but must never be a match, while records with a real vector
// and a zero dot product still match at score 0. The expected answers are
// bit patterns of the reference implementation, which never posted the
// record at all.
func TestCosineSkipsZeroNormRecords(t *testing.T) {
	texts := []string{"ab cd", "ab", "cd ab", "ab ab ef", "xy ab", "ab cd ef"}
	recs := make([]core.Record, len(texts))
	for i, s := range texts {
		recs[i] = core.Record{TID: i + 1, Text: s}
	}
	cfg := core.DefaultConfig()
	c, err := core.NewCorpus(recs, cfg, core.AllLayers)
	if err != nil {
		t.Fatal(err)
	}
	if skip := c.Snapshot().Grams.TFIDF().Skip; len(skip) != len(recs) || !skip[1] {
		t.Fatalf("zero-norm record not marked: %v", skip)
	}
	p, err := Attach("Cosine", c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const one = 0x3ff0000000000000
	type m struct {
		tid  int
		bits uint64
	}
	all, limit2, th := core.SelectOptions{}, core.SelectOptions{Limit: 2}, core.SelectOptions{Threshold: 0.3, HasThreshold: true}
	cases := []struct {
		query string
		opts  core.SelectOptions
		want  []m
	}{
		{"ab", all, nil},
		{"ab", limit2, nil},
		{"ab cd", all, []m{{1, one}, {3, one}, {6, 0x3fe113413e80fba6}, {4, 0}, {5, 0}}},
		{"ab cd", limit2, []m{{1, one}, {3, one}}},
		{"ab cd", th, []m{{1, one}, {3, one}, {6, 0x3fe113413e80fba6}}},
		{"ab ef xy", all, []m{{5, 0x3feb47c00fdb80ec}, {4, 0x3fe0ba111d76cd94}, {6, 0x3fdc4b008e4555d4}, {1, 0}, {3, 0}}},
		{"ab ef xy", limit2, []m{{5, 0x3feb47c00fdb80ec}, {4, 0x3fe0ba111d76cd94}}},
		{"cd", th, []m{{1, one}, {3, one}, {6, 0x3fe113413e80fba6}}},
	}
	for _, tc := range cases {
		want := make([]core.Match, len(tc.want))
		for i, w := range tc.want {
			want[i] = core.Match{TID: w.tid, Score: math.Float64frombits(w.bits)}
		}
		got, err := p.(core.ContextPredicate).SelectCtx(context.Background(), tc.query, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%q %+v", tc.query, tc.opts)
		assertIdentical(t, label, want, got)
		naive, err := NaiveSelect(p, tc.query, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, label+" naive", want, naive)
	}
}

// TestAttachColumnsAlignWithPostings drives a corpus through inserts,
// upserts and deletes and checks, after every step, that the BM25 and HMM
// weight columns, built by the functions their attach calls, hold exactly
// one weight per shared posting id of every rank (the corpus's own columns
// are checked by TestIncrementalAssembleMatchesFresh).
func TestAttachColumnsAlignWithPostings(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	records := hotPathRecords(t, 60, 5)
	cfg := core.DefaultConfig()
	c, err := core.NewCorpus(records[:30], cfg, core.AllLayers)
	if err != nil {
		t.Fatal(err)
	}
	live := []int{}
	for _, r := range records[:30] {
		live = append(live, r.TID)
	}
	next := 1 << 20
	for step := 0; step < 40; step++ {
		text := records[rng.Intn(len(records))].Text
		switch k := rng.Intn(3); {
		case k == 0 || len(live) < 5:
			err = c.Insert(core.Record{TID: next, Text: text})
			live = append(live, next)
			next++
		case k == 1:
			err = c.Upsert(core.Record{TID: live[rng.Intn(len(live))], Text: text + " upserted"})
		default:
			i := rng.Intn(len(live))
			err = c.Delete(live[i])
			live = append(live[:i], live[i+1:]...)
		}
		if err != nil {
			t.Fatal(err)
		}
		g := c.Snapshot().Grams
		cols := map[string]*core.PostTable{
			"BM25": bm25Column(g, weights.BM25Params{K1: cfg.BM25K1, K3: cfg.BM25K3, B: cfg.BM25B}),
			"HMM":  hmmColumn(g, cfg.HMMA0),
		}
		for name, col := range cols {
			if len(col.Post) != len(g.Postings) {
				t.Fatalf("step %d: %s has %d ranks, postings %d", step, name, len(col.Post), len(g.Postings))
			}
			for r, ids := range g.Postings {
				if len(col.Post[r]) != len(ids) {
					t.Fatalf("step %d: %s rank %d holds %d weights for %d ids", step, name, r, len(col.Post[r]), len(ids))
				}
			}
		}
	}
}

// enginePredicates are the eight predicates that score through
// core.MaxScoreSelect, each with its own plan.
var enginePredicates = []string{"IntersectSize", "Jaccard", "WeightedMatch", "WeightedJaccard", "Cosine", "BM25", "LM", "HMM"}

// engineWork reads the engine's work tally of the scratch's last
// selection. core keeps the tally out of its API — it exists for this
// bound — so the test reads the unexported field by reflection.
func engineWork(s *core.Scratch) int {
	return int(reflect.ValueOf(s).Elem().FieldByName("work").Int())
}

// TestEngineWorkNeverExceedsFullWalk bounds what pruning may cost. The
// engine tallies its work in postings: postings walked, lookup steps at
// their measured price, candidates scanned for floors and compaction. Over
// the dirty DBLP relation, for every engine predicate and every option
// shape that prunes, the tally stays within 1.25 × the query's postings
// (a walk that prunes nothing is 1.0; scans are budgeted against the
// postings still to walk) plus its candidate count (the one compaction
// closure always gets). Each answer is also checked against the reference
// merge.
func TestEngineWorkNeverExceedsFullWalk(t *testing.T) {
	c, records, cfg := hotPathCorpus(t, 3000, 21)
	recs := c.Snapshot().Records
	var closed, total int
	before := core.HotPathSnapshot()
	for _, name := range enginePredicates {
		p, err := Attach(name, c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < 12; qi++ {
			query := records[(qi*251+17)%len(records)].Text
			full, err := NaiveSelect(p, query, core.SelectOptions{})
			if err != nil {
				t.Fatal(err)
			}
			// The tenth best score as θ: a selective threshold, the shape
			// under which admission closes early.
			th := full[min(9, len(full)-1)].Score
			for _, opts := range []core.SelectOptions{
				{Limit: 1},
				{Limit: 10},
				{Threshold: th, HasThreshold: true},
				{Limit: 10, Threshold: th, HasThreshold: true},
			} {
				s := core.GetScratch(len(recs))
				terms, sh := p.(*predicate).plan(query, s)
				posts := 0
				for i := range terms {
					posts += len(terms[i].Ids) + len(terms[i].W)
				}
				got := core.MaxScoreSelect(s, recs, terms, sh, opts)
				work := engineWork(s)
				s.Release()
				// Every record sharing a token with the query is a candidate
				// of the full walk; the unthresholded ranking lists them.
				if bound := posts + posts/4 + len(full); work > bound {
					t.Errorf("%s %+v query %d: work %d exceeds 1.25 × %d postings + %d candidates", name, opts, qi, work, posts, len(full))
				}
				if work < posts {
					closed++
				}
				total++
				want, err := NaiveSelect(p, query, opts)
				if err != nil {
					t.Fatal(err)
				}
				assertIdentical(t, fmt.Sprintf("%s %+v query %d", name, opts, qi), want, got)
			}
		}
	}
	// The bound must not hold vacuously: some of these selections prune.
	if d := core.HotPathSnapshot().Sub(before); d.ListsSkipped == 0 || closed == 0 {
		t.Fatalf("no selection did less than the full walk (%d of %d): %+v", closed, total, d)
	}
}

// TestThresholdSelectionSkipsLists keeps the watch/join shape pruning: a
// Jaccard selection at θ = 0.6 closes admission by the O(1) threshold test
// once the unseen bound falls below θ, compacts, and finishes long lists by
// lookup. At 12 000 records the lists are long enough for a lookup at its
// measured price to beat a walk.
func TestThresholdSelectionSkipsLists(t *testing.T) {
	records := hotPathRecords(t, 12000, 21)
	p, err := Build("Jaccard", records, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	opts := core.SelectOptions{Threshold: 0.6, HasThreshold: true}
	before := core.HotPathSnapshot()
	for qi := 0; qi < 12; qi++ {
		query := records[(qi*251+17)%len(records)].Text
		want, err := NaiveSelect(p, query, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.(core.ContextPredicate).SelectCtx(context.Background(), query, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, fmt.Sprintf("Jaccard θ=0.6 query %d", qi), want, got)
	}
	d := core.HotPathSnapshot().Sub(before)
	t.Logf("%+v", d)
	if d.PrunedQueries == 0 || d.ListsSkipped == 0 {
		t.Fatalf("θ = 0.6 must close admission and skip lists: %+v", d)
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
// class, at Limit=10.
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
