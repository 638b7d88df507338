package native

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
)

// expensiveFive are the predicates that score through a string kernel: the
// edit predicate and the combination class.
var expensiveFive = []string{"EditDistance", "GES", "GESJaccard", "GESapx", "SoftTFIDF"}

// kernelEdgeWords are the words the similarity columns and the bit-vector
// kernels must not get wrong: multi-byte characters, lengths straddling the
// 16- and 64-byte kernel limits, and near-duplicates of each.
var kernelEdgeWords = []string{
	"müller", "muller", "naïve", "naive", "日本語", "日本", "señor", "senor", "œuvre",
	strings.Repeat("a", 15) + "b", strings.Repeat("a", 16) + "b", strings.Repeat("a", 16) + "c",
	strings.Repeat("xy", 32), strings.Repeat("xy", 32) + "z", strings.Repeat("xy", 31) + "zz",
	strings.Repeat("long", 20), strings.Repeat("long", 20) + "er", strings.Repeat("é", 40),
}

// wordyCorpus generates a seeded relation over a small vocabulary salted
// with kernelEdgeWords, typos of both, and records with no words at all.
func wordyCorpus(rng *rand.Rand, n, firstTID int) []core.Record {
	vocab := strings.Fields("approximate selection predicate declarative benchmark query join index " +
		"similarity string record token weight edit distance cosine jaccard probabilistic language model data")
	word := func() string {
		var w string
		if rng.Intn(5) == 0 {
			w = kernelEdgeWords[rng.Intn(len(kernelEdgeWords))]
		} else {
			w = vocab[rng.Intn(len(vocab))]
		}
		if rng.Intn(3) == 0 { // a typo: drop, double or replace one character
			r := []rune(w)
			i := rng.Intn(len(r))
			switch rng.Intn(3) {
			case 0:
				r = append(r[:i:i], r[i+1:]...)
			case 1:
				r = append(r[:i+1:i+1], r[i:]...)
			default:
				r[i] = rune('a' + rng.Intn(26))
			}
			w = string(r)
		}
		return w
	}
	records := make([]core.Record, n)
	for i := range records {
		words := make([]string, rng.Intn(7)) // zero words now and then
		for j := range words {
			words[j] = word()
		}
		if len(words) > 2 && rng.Intn(4) == 0 {
			words[len(words)-1] = words[0] // a record repeating a word
		}
		records[i] = core.Record{TID: firstTID + i, Text: strings.Join(words, " ")}
	}
	return records
}

func wordyQueries(records []core.Record) []string {
	qs := []string{
		"data data mining data",      // a query repeating a word
		"müller MÜLLER muller naïve", // multi-byte, and case folding onto one word
		"日本語 benchmark 日本",
		strings.Repeat("xy", 32) + " " + strings.Repeat("long", 20) + "er",
		strings.Repeat("a", 16) + "b selection",
		"zzzzzz qqqqqq", // nothing known, nothing close
		"   ",
	}
	for i := 0; i < len(records); i += len(records)/6 + 1 {
		qs = append(qs, records[i].Text)
	}
	return qs
}

// TestExpensivePredicatesMatchNaive is the generated differential of the
// word-similarity columns: over seeded corpora that hold multi-byte words,
// words past the bit-vector kernels' length limits, empty records and
// repeated words, the five kernel-scoring predicates return exactly what
// their string-pair selectNaive oracles return — every option shape, bit for
// bit — and still do after Insert, Upsert and Delete have shifted the
// dictionary ranks. Views of the old and the new snapshot are probed
// alternately, so a pooled column that outlived the snapshot it was sized
// for would be read with the wrong ranks.
func TestExpensivePredicatesMatchNaive(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			records := wordyCorpus(rng, 120, 1)
			cfg := core.DefaultConfig()
			c, err := core.NewCorpus(records, cfg, core.AllLayers)
			if err != nil {
				t.Fatal(err)
			}
			attach := func() map[string]core.Predicate {
				views := map[string]core.Predicate{}
				for _, name := range expensiveFive {
					if views[name], err = Attach(name, c, cfg); err != nil {
						t.Fatal(err)
					}
				}
				return views
			}
			queries := wordyQueries(records)
			before := attach()
			for _, name := range expensiveFive {
				for _, q := range queries {
					diffOne(t, before[name], q)
				}
			}

			// New words sort in front of, between and behind the old ones.
			if err := c.Insert(
				core.Record{TID: 9001, Text: "aardvark " + strings.Repeat("b", 70) + " zebra日本"},
				core.Record{TID: 9002, Text: ""},
				core.Record{TID: 9003, Text: records[5].Text + " müler"},
			); err != nil {
				t.Fatal(err)
			}
			if err := c.Upsert(
				core.Record{TID: records[10].TID, Text: "approximate aproximate approximat"},
				core.Record{TID: records[11].TID, Text: ""},
			); err != nil {
				t.Fatal(err)
			}
			if err := c.Delete(records[0].TID, records[50].TID, records[119].TID); err != nil {
				t.Fatal(err)
			}
			after := attach()
			queries = append(queries, "aardvark zebra日本 approximat", strings.Repeat("b", 70))
			for _, name := range expensiveFive {
				for _, q := range queries {
					diffOne(t, after[name], q)
					diffOne(t, before[name], q)
				}
			}
		})
	}
}

// TestWordSimilaritySelectAllocs pins the steady state of the column path:
// a Limit(10) select of GES or SoftTFIDF allocates a few dozen objects —
// the query's tokens and weights, the candidate slice, the k-sized result —
// where the per-position string kernels allocated two or more per word
// pair (≈ 180 000 a query at this size).
func TestWordSimilaritySelectAllocs(t *testing.T) {
	c, records, cfg := hotPathCorpus(t, 2000, 9)
	query := records[7].Text
	opts := core.SelectOptions{Limit: 10}
	ctx := context.Background()
	for _, name := range []string{"GES", "SoftTFIDF"} {
		p, err := Attach(name, c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cp := p.(core.ContextPredicate)
		allocs := testing.AllocsPerRun(10, func() { // its warm-up run sizes the pooled table
			if _, err := cp.SelectCtx(ctx, query, opts); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 100 {
			t.Errorf("%s: %v allocs/select — a string kernel is allocating per word pair again?", name, allocs)
		}
	}
}

// TestGESBoundPrunesVerification pins the work of exact GES under a limit:
// over eight queries on 2 000 records, Limit(10) verifies fewer than half
// of the records with the dynamic program — a corrupted query whose tenth
// best score is low verifies many, a clean one a few dozen — while a select
// with no limit and no threshold still scores every record. Each pruned
// ranking equals the full scan's, bit for bit.
func TestGESBoundPrunesVerification(t *testing.T) {
	c, records, cfg := hotPathCorpus(t, 2000, 9)
	g := newExactGES(c.Snapshot(), cfg)
	selectCounted := func(query string, opts core.SelectOptions) ([]core.Match, int) {
		before := g.verified.Load()
		ms := g.selectAll(query, opts)
		return ms, int(g.verified.Load() - before)
	}
	const queries = 8
	verified := 0
	for qi := 0; qi < queries; qi++ {
		query := records[(qi*251+17)%len(records)].Text
		full, scored := selectCounted(query, core.SelectOptions{})
		if scored != len(records) {
			t.Fatalf("query %d: the full ranking scored %d of %d records", qi, scored, len(records))
		}
		top, scored := selectCounted(query, core.SelectOptions{Limit: 10})
		t.Logf("query %d: Limit(10) verified %d of %d records", qi, scored, len(records))
		verified += scored
		assertIdentical(t, fmt.Sprintf("GES Limit(10) query %d", qi), full[:10], top)
	}
	if verified >= queries*len(records)/2 {
		t.Errorf("Limit(10) verified %d records over %d queries of %d records", verified, queries, len(records))
	}
}

// TestHugeLimitIsNoLimit: a limit past any corpus size — as a request body
// may carry — ranks exactly what no limit does, and sizes nothing by it.
func TestHugeLimitIsNoLimit(t *testing.T) {
	c, records, cfg := hotPathCorpus(t, 300, 5)
	ctx := context.Background()
	for _, name := range []string{"GES", "SoftTFIDF"} {
		p, err := Attach(name, c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cp := p.(core.ContextPredicate)
		for _, query := range []string{records[3].Text, records[150].Text} {
			full, err := cp.SelectCtx(ctx, query, core.SelectOptions{})
			if err != nil {
				t.Fatal(err)
			}
			huge, err := cp.SelectCtx(ctx, query, core.SelectOptions{Limit: math.MaxInt})
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, name+" Limit(MaxInt)", full, huge)
		}
	}
}
