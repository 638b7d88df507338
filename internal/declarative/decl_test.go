package declarative

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dirty"
	"repro/internal/native"
	"repro/internal/tokenize"
)

// randomRecords produces a small dirty-ish dataset: base names plus
// perturbed duplicates, the shape the benchmark works on.
func randomRecords(n int, seed int64) []core.Record {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"Morgan", "Stanley", "Group", "Inc", "Incorporated",
		"Beijing", "Hotel", "Labs", "Silicon", "Valley", "Global", "Data",
		"Systems", "Pacific", "Energy", "AT&T", "Widget"}
	perturb := func(s string) string {
		b := []rune(s)
		if len(b) == 0 {
			return s
		}
		switch rng.Intn(4) {
		case 0: // replace a character
			b[rng.Intn(len(b))] = rune('a' + rng.Intn(26))
		case 1: // delete a character
			i := rng.Intn(len(b))
			b = append(b[:i], b[i+1:]...)
		case 2: // insert a character
			i := rng.Intn(len(b) + 1)
			b = append(b[:i], append([]rune{rune('a' + rng.Intn(26))}, b[i:]...)...)
		case 3: // swap two adjacent characters
			if len(b) > 1 {
				i := rng.Intn(len(b) - 1)
				b[i], b[i+1] = b[i+1], b[i]
			}
		}
		return string(b)
	}
	var records []core.Record
	for i := 0; i < n; i++ {
		k := 2 + rng.Intn(3)
		var parts []string
		for j := 0; j < k; j++ {
			w := words[rng.Intn(len(words))]
			if rng.Float64() < 0.4 {
				w = perturb(w)
			}
			parts = append(parts, w)
		}
		records = append(records, core.Record{TID: i + 1, Text: strings.Join(parts, " ")})
	}
	return records
}

// scoresByTID converts matches to a map for tolerance-based comparison.
func scoresByTID(ms []core.Match) map[int]float64 {
	out := make(map[int]float64, len(ms))
	for _, m := range ms {
		out[m.TID] = m.Score
	}
	return out
}

// relClose compares scores allowing floating-point re-association noise.
func relClose(a, b float64) bool {
	diff := math.Abs(a - b)
	if diff < 1e-9 {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}

// TestDifferentialNativeVsDeclarative is the central correctness check of
// the reproduction: for every predicate, the SQL realization must produce
// the same (tid → score) mapping as the in-memory oracle, across a workload
// of clean, dirty and unseen queries.
func TestDifferentialNativeVsDeclarative(t *testing.T) {
	records := randomRecords(60, 42)
	queries := []string{
		records[0].Text,
		records[7].Text,
		"Morgan Stanley Group Inc",
		"Stanley Morgan Incorporated",
		"Beijinj Hotl",
		"zzz qqq",
		"Valley",
	}
	cfg := core.DefaultConfig()
	cfg.GESThreshold = 0.5
	cfg.EditTheta = 0.6

	for _, name := range core.PredicateNames {
		name := name
		t.Run(name, func(t *testing.T) {
			nat, err := native.Build(name, records, cfg)
			if err != nil {
				t.Fatalf("native build: %v", err)
			}
			dec, err := Build(name, records, cfg)
			if err != nil {
				t.Fatalf("declarative build: %v", err)
			}
			for _, q := range queries {
				nm, err := nat.Select(q)
				if err != nil {
					t.Fatalf("native select(%q): %v", q, err)
				}
				dm, err := dec.Select(q)
				if err != nil {
					t.Fatalf("declarative select(%q): %v", q, err)
				}
				ns, ds := scoresByTID(nm), scoresByTID(dm)
				if len(ns) != len(ds) {
					t.Fatalf("query %q: native returned %d records, declarative %d\nnative: %v\ndecl:   %v",
						q, len(ns), len(ds), ns, ds)
				}
				for tid, nscore := range ns {
					dscore, ok := ds[tid]
					if !ok {
						t.Fatalf("query %q: tid %d missing from declarative results", q, tid)
					}
					if !relClose(nscore, dscore) {
						t.Fatalf("query %q tid %d: native score %.15g, declarative %.15g",
							q, tid, nscore, dscore)
					}
				}
			}
		})
	}
}

// TestDifferentialWithPruning repeats the check for the token-based
// predicates with IDF pruning enabled (§5.6), since pruning changes every
// downstream weight table.
func TestDifferentialWithPruning(t *testing.T) {
	records := randomRecords(50, 7)
	queries := []string{records[3].Text, "Morgan Stanley", "Beijing Labs"}
	cfg := core.DefaultConfig()
	cfg.PruneRate = 0.25

	for _, name := range []string{"IntersectSize", "Jaccard", "WeightedMatch",
		"WeightedJaccard", "Cosine", "BM25", "LM", "HMM"} {
		name := name
		t.Run(name, func(t *testing.T) {
			nat, err := native.Build(name, records, cfg)
			if err != nil {
				t.Fatalf("native build: %v", err)
			}
			dec, err := Build(name, records, cfg)
			if err != nil {
				t.Fatalf("declarative build: %v", err)
			}
			for _, q := range queries {
				nm, _ := nat.Select(q)
				dm, err := dec.Select(q)
				if err != nil {
					t.Fatalf("declarative select: %v", err)
				}
				ns, ds := scoresByTID(nm), scoresByTID(dm)
				if len(ns) != len(ds) {
					t.Fatalf("query %q: native %d records, declarative %d", q, len(ns), len(ds))
				}
				for tid, nscore := range ns {
					if !relClose(nscore, ds[tid]) {
						t.Fatalf("query %q tid %d: native %.15g vs declarative %.15g",
							q, tid, nscore, ds[tid])
					}
				}
			}
		})
	}
}

// TestBuildKeepsOnlyWhatSelectReads holds every predicate's keep set to
// the tables its select touches: after Build the database holds exactly
// keep, and dropping any one keep entry makes the first select fail with
// sqldb's unknown-table error, so no entry is kept for nothing. That
// nothing needed was dropped is what the golden and differential tests
// show.
func TestBuildKeepsOnlyWhatSelectReads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every predicate once per kept table")
	}
	records, queries := goldenRelation(t)
	pruned := core.DefaultConfig()
	pruned.PruneRate = 0.25
	for _, cfg := range []core.Config{core.DefaultConfig(), pruned} {
		for _, name := range core.PredicateNames {
			keep := strings.Fields(predicates[name].keep)
			slices.Sort(keep)
			build := func() *predicate {
				p, err := Build(name, records, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return p.(*predicate)
			}
			if got := build().db.TableNames(); !slices.Equal(got, keep) {
				t.Errorf("%s (prune %v) keeps %v, want %v", name, cfg.PruneRate, got, keep)
			}
			for _, table := range keep {
				p := build()
				p.db.DropTable(table)
				_, err := p.Select(queries[0])
				if want := fmt.Sprintf("unknown table %q", table); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s (prune %v) without %s: select error %v, want %s", name, cfg.PruneRate, table, err, want)
				}
			}
		}
	}
}

// TestSelectsLeaveDictionaryAsBuilt runs 2 000 distinct queries — a word
// of a record and a word no record has — through GESJaccard on the golden
// relation. Every select interns its query's strings and frees them when
// the next select empties the query tables. Once the last query's rows are
// gone too, the database's string dictionary holds exactly the strings
// Build left it, and its codes have grown by no more than two selects hold
// at once.
func TestSelectsLeaveDictionaryAsBuilt(t *testing.T) {
	if testing.Short() {
		t.Skip("2 000 selects")
	}
	records, _ := goldenRelation(t)
	p, err := Build("GESJaccard", records, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	db := p.(*predicate).db
	var perQuery []string // the tables a select fills: empty after Build
	for _, name := range db.TableNames() {
		if db.Table(name).NumRows() == 0 {
			perQuery = append(perQuery, name)
		}
	}
	held, codes := db.DictionarySize()
	most := 0 // the most strings a select left held
	for i := 0; i < 2000; i++ {
		words := strings.Fields(records[i%len(records)].Text)
		if _, err := p.Select(fmt.Sprintf("%s zq%d", words[0], i)); err != nil {
			t.Fatal(err)
		}
		h, _ := db.DictionarySize()
		most = max(most, h-held)
	}
	for _, name := range perQuery {
		if _, err := db.Exec("DELETE FROM " + name); err != nil {
			t.Fatal(err)
		}
	}
	// A select empties the last one's tables as it fills its own, so at
	// most two selects' strings are ever held at once.
	h, c := db.DictionarySize()
	if h != held || c > codes+2*most {
		t.Errorf("after 2 000 selects the dictionary holds %d strings in %d codes; Build left %d in %d, and a select holds at most %d",
			h, c, held, codes, most)
	}
	t.Logf("%d strings in %d codes after Build, %d codes after 2 000 selects (a select holds at most %d); tables emptied: %v", held, codes, c, most, perQuery)
}

func TestDeclarativeBuildUnknown(t *testing.T) {
	if _, err := Build("NoSuch", nil, core.DefaultConfig()); err == nil {
		t.Fatal("unknown predicate should error")
	}
}

// TestBuildEveryPredicate pins what both realizations' Build returns for
// every benchmark predicate: its own name, the preprocessing phases, and
// whether batch probing may run it concurrently — native predicates are
// read-only after Attach, declarative ones share query tables.
func TestBuildEveryPredicate(t *testing.T) {
	records := randomRecords(12, 5)
	cfg := core.DefaultConfig()
	for _, name := range core.PredicateNames {
		nat, err := native.Build(name, records, cfg)
		if err != nil {
			t.Fatalf("native %s: %v", name, err)
		}
		dec, err := Build(name, records, cfg)
		if err != nil {
			t.Fatalf("declarative %s: %v", name, err)
		}
		for _, p := range []core.Predicate{nat, dec} {
			if p.Name() != name {
				t.Errorf("Build(%q).Name() = %q", name, p.Name())
			}
			if _, ok := p.(core.Phased); !ok {
				t.Errorf("%s: %T does not report preprocessing phases", name, p)
			}
		}
		if _, ok := nat.(core.ContextPredicate); !ok {
			t.Errorf("native %s does not take selection options", name)
		}
	}

	if _, err := native.Build("NoSuch", records, cfg); err == nil {
		t.Error("native.Build of an unknown predicate should error")
	}
	c, err := core.NewCorpus(records, cfg, core.LayerGrams|core.LayerPostings)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := native.Attach("NoSuch", c, cfg); err == nil {
		t.Error("native.Attach of an unknown predicate should error")
	}
	if _, err := native.Attach("BM25", c, cfg); err == nil {
		t.Error("native.Attach(BM25) on a corpus without token ids should error")
	}
}

// TestConcurrentDeclarativeSelects calls Select on every declarative
// predicate from eight goroutines at once. Each select refills the
// predicate's query tables before scoring, so without the predicate's own
// lock the goroutines' query rows interleave and answers come back wrong
// without an error. Every answer must equal the serial one.
func TestConcurrentDeclarativeSelects(t *testing.T) {
	ds, err := dirty.DBLP(200, 1)
	if err != nil {
		t.Fatal(err)
	}
	records := ds.Records
	queries := []string{records[0].Text, records[57].Text, records[111].Text, records[199].Text, "scalable query processing"}
	const goroutines = 8
	for _, name := range core.PredicateNames {
		p, err := Build(name, records, core.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := make([][]core.Match, len(queries))
		for i, q := range queries {
			if want[i], err = p.Select(q); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		var wrong atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range queries {
					j := (g + i) % len(queries)
					got, err := p.Select(queries[j])
					if err != nil {
						t.Errorf("%s %q: %v", name, queries[j], err)
						return
					}
					if !reflect.DeepEqual(got, want[j]) {
						wrong.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		if n := wrong.Load(); n > 0 {
			t.Errorf("%s: %d of %d concurrent selects differ from the serial answer", name, n, goroutines*len(queries))
		}
	}
}

func TestDeclarativeRejectsDuplicateTIDs(t *testing.T) {
	records := []core.Record{{TID: 1, Text: "a"}, {TID: 1, Text: "b"}}
	if _, err := Build("Jaccard", records, core.DefaultConfig()); err == nil {
		t.Fatal("duplicate TIDs should be rejected")
	}
}

func TestDeclarativePreprocessPhases(t *testing.T) {
	records := randomRecords(10, 3)
	p, err := Build("BM25", records, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tok, w := p.(core.Phased).PreprocessPhases()
	if tok <= 0 || w <= 0 {
		t.Fatalf("phases should be positive: %v %v", tok, w)
	}
}

func TestWordTokenizationSQLMatchesGo(t *testing.T) {
	// The Appendix A.2 SQL word tokenizer must agree with the Go tokenizer
	// on the word multiset per record.
	records := []core.Record{
		{TID: 1, Text: "Morgan Stanley Group Inc."},
		{TID: 2, Text: "single"},
		{TID: 3, Text: "a b c d e"},
		{TID: 4, Text: "  padded   spaces  "},
	}
	b, err := wordPrep(records, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := b.db.Query("SELECT tid, token FROM base_words ORDER BY tid, token")
	if err != nil {
		t.Fatal(err)
	}
	got := map[int][]string{}
	for _, r := range rows.Data {
		tid := int(r[0].AsInt())
		got[tid] = append(got[tid], r[1].AsString())
	}
	for _, rec := range records {
		var want []string
		for _, w := range strings.Fields(strings.ToUpper(rec.Text)) {
			want = append(want, w)
		}
		gotWords := append([]string{}, got[rec.TID]...)
		if len(gotWords) != len(want) {
			t.Fatalf("tid %d: SQL words %v, want %v", rec.TID, gotWords, want)
		}
		wantSet := map[string]int{}
		for _, w := range want {
			wantSet[w]++
		}
		for _, w := range gotWords {
			wantSet[w]--
		}
		for w, c := range wantSet {
			if c != 0 {
				t.Fatalf("tid %d: word %q count mismatch (SQL %v vs Go %v)", rec.TID, w, gotWords, want)
			}
		}
	}
}

func TestQGramSQLMatchesGo(t *testing.T) {
	records := []core.Record{
		{TID: 1, Text: "db lab"},
		{TID: 2, Text: "AT&T  Inc."},
		{TID: 3, Text: "x"},
	}
	for _, q := range []int{1, 2, 3} {
		cfg := core.DefaultConfig()
		cfg.Q = q
		b, err := multisetPrep(records, cfg)
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		rows, err := b.db.Query("SELECT tid, token FROM base_tokens ORDER BY tid, token")
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]int{}
		for _, r := range rows.Data {
			got[fmt.Sprintf("%d|%s", r[0].AsInt(), r[1].AsString())]++
		}
		want := map[string]int{}
		for _, rec := range records {
			for _, g := range qgramsGo(rec.Text, q) {
				want[fmt.Sprintf("%d|%s", rec.TID, g)]++
			}
		}
		if len(got) != len(want) {
			t.Fatalf("q=%d: SQL grams %v\nGo grams %v", q, got, want)
		}
		for k, c := range want {
			if got[k] != c {
				t.Fatalf("q=%d gram %s: SQL count %d, Go count %d", q, k, got[k], c)
			}
		}
	}
}

// qgramsGo mirrors the Go tokenizer for the comparison.
func qgramsGo(s string, q int) []string {
	return tokenize.QGrams(s, q)
}
