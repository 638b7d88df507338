package native

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
)

// companyRecords mirrors the §5.4 discussion. The paper's abbreviation
// argument rests on "Incorporated and Inc are frequent words in the company
// names database", so the fixture includes enough filler companies with
// those suffixes (and filler Hotels/Labs for the token-swap argument) to
// make the corpus statistics match the premise.
var companyRecords = buildCompanyRecords()

func buildCompanyRecords() []core.Record {
	records := []core.Record{
		{TID: 1, Text: "AT&T Incorporated"},
		{TID: 2, Text: "AT&T Inc."},
		{TID: 3, Text: "IBM Incorporated"},
		{TID: 4, Text: "Morgan Stanley Group Inc."},
		{TID: 5, Text: "Stanley Morgan Group Inc."},
		{TID: 6, Text: "Silicon Valley Group, Inc."},
		{TID: 7, Text: "Beijing Hotel"},
		{TID: 8, Text: "Hotel Beijing"},
		{TID: 9, Text: "Beijing Labs"},
	}
	fillers := []string{
		"Quantum Widgets", "Global Freight", "Pacific Mills", "Northern Steel",
		"Redwood Energy", "Vertex Systems", "Orion Foods", "Cobalt Mining",
		"Juniper Textiles", "Falcon Airways", "Crescent Media", "Summit Tools",
	}
	tid := 10
	for i, f := range fillers {
		suffix := " Incorporated"
		if i%2 == 0 {
			suffix = " Inc."
		}
		records = append(records, core.Record{TID: tid, Text: f + suffix})
		tid++
	}
	for _, f := range []string{"Shanghai", "Berlin", "Lisbon", "Cairo"} {
		records = append(records, core.Record{TID: tid, Text: f + " Hotel"})
		tid++
		records = append(records, core.Record{TID: tid, Text: f + " Labs"})
		tid++
	}
	return records
}

func buildAll(t *testing.T, records []core.Record, cfg core.Config) map[string]core.Predicate {
	t.Helper()
	out := map[string]core.Predicate{}
	for _, name := range core.PredicateNames {
		p, err := Build(name, records, cfg)
		if err != nil {
			t.Fatalf("Build(%s): %v", name, err)
		}
		out[name] = p
	}
	return out
}

func rank(t *testing.T, p core.Predicate, query string) []int {
	t.Helper()
	ms, err := p.Select(query)
	if err != nil {
		t.Fatalf("%s.Select(%q): %v", p.Name(), query, err)
	}
	ids := make([]int, len(ms))
	for i, m := range ms {
		ids[i] = m.TID
	}
	return ids
}

func position(ids []int, tid int) int {
	for i, id := range ids {
		if id == tid {
			return i
		}
	}
	return -1
}

func TestBuildUnknownPredicate(t *testing.T) {
	if _, err := Build("NoSuch", companyRecords, core.DefaultConfig()); err == nil {
		t.Fatal("unknown predicate should error")
	}
}

func TestValidateRejectsBadConfig(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Q = 0
	if _, err := Build("Jaccard", companyRecords, cfg); err == nil {
		t.Fatal("q=0 should be rejected")
	}
	cfg = core.DefaultConfig()
	cfg.PruneRate = 1.0
	if _, err := Build("Jaccard", companyRecords, cfg); err == nil {
		t.Fatal("prune rate 1.0 should be rejected")
	}
	cfg = core.DefaultConfig()
	dup := []core.Record{{TID: 1, Text: "a"}, {TID: 1, Text: "b"}}
	if _, err := Build("Jaccard", dup, cfg); err == nil {
		t.Fatal("duplicate TIDs should be rejected")
	}
}

func TestSelfQueryRanksFirstEverywhere(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.EditTheta = 0 // rank all records
	preds := buildAll(t, companyRecords, cfg)
	for name, p := range preds {
		ids := rank(t, p, "Morgan Stanley Group Inc.")
		if len(ids) == 0 {
			t.Errorf("%s: no results for exact query", name)
			continue
		}
		if name == "WeightedJaccard" {
			// RS weights are negative for frequent tokens, so WeightedJaccard
			// can legitimately score a non-identical record above 1 (the
			// denominator shrinks below the intersection weight). The exact
			// match still scores exactly 1.
			ms, err := p.Select("Morgan Stanley Group Inc.")
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, m := range ms {
				if m.TID == 4 && math.Abs(m.Score-1) < 1e-12 {
					found = true
				}
			}
			if !found {
				t.Errorf("WeightedJaccard: exact match should score 1, got %v", ms)
			}
			continue
		}
		if ids[0] != 4 {
			t.Errorf("%s: exact match ranked at %d, ranking %v", name, position(ids, 4), ids)
		}
	}
}

func TestExactMatchScores(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.EditTheta = 0
	// Predicates with a natural [0,1] scale must give an exact duplicate 1.0.
	for _, name := range []string{"Jaccard", "EditDistance", "GES"} {
		p, err := Build(name, companyRecords, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := p.Select("Beijing Hotel")
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) == 0 || ms[0].TID != 7 || math.Abs(ms[0].Score-1) > 1e-12 {
			t.Errorf("%s: exact duplicate score = %+v", name, ms[0])
		}
	}
}

// TestAbbreviationError reproduces the §5.4 abbreviation-error discussion:
// for query "AT&T Incorporated", unweighted overlap predicates prefer
// "IBM Incorporated" over "AT&T Inc.", while weighted predicates keep the
// AT&T record on top (after the exact match).
func TestAbbreviationError(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.EditTheta = 0
	preds := buildAll(t, companyRecords, cfg)
	q := "AT&T Incorporated"
	for _, name := range []string{"IntersectSize", "Jaccard", "EditDistance"} {
		ids := rank(t, preds[name], q)
		if !(position(ids, 3) < position(ids, 2)) {
			t.Errorf("%s should be fooled by the abbreviation, ranking %v", name, ids)
		}
	}
	// HMM is omitted here: its robustness to abbreviations is a statistical
	// property that only emerges at corpus scale (weight ≈ 1 + 4N/cf needs a
	// genuinely frequent suffix); experiment E4 checks it on the benchmark.
	for _, name := range []string{"WeightedMatch", "WeightedJaccard", "Cosine", "BM25", "LM"} {
		ids := rank(t, preds[name], q)
		pIBM, pATT := position(ids, 3), position(ids, 2)
		if pATT < 0 || (pIBM >= 0 && pIBM < pATT) {
			t.Errorf("%s should prefer AT&T Inc. over IBM Incorporated, ranking %v", name, ids)
		}
	}
}

// TestTokenSwapError reproduces the §5.4 token-swap discussion: for query
// "Beijing Hotel", q-gram predicates rank "Hotel Beijing" above
// "Beijing Labs", while GES (word order sensitive) does not reward the swap.
func TestTokenSwapError(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.EditTheta = 0
	preds := buildAll(t, companyRecords, cfg)
	q := "Beijing Hotel"
	for _, name := range []string{"IntersectSize", "Jaccard", "Cosine", "BM25", "HMM", "LM", "SoftTFIDF"} {
		ids := rank(t, preds[name], q)
		pSwap, pLabs := position(ids, 8), position(ids, 9)
		if pSwap < 0 || (pLabs >= 0 && pLabs < pSwap) {
			t.Errorf("%s should rank the swapped tuple above Beijing Labs, ranking %v", name, ids)
		}
	}
	// GES pays full word-order cost: swapped tuple scores strictly below
	// what the q-gram predicates would indicate.
	gms, _ := preds["GES"].Select(q)
	var swapScore, labsScore float64
	for _, m := range gms {
		if m.TID == 8 {
			swapScore = m.Score
		}
		if m.TID == 9 {
			labsScore = m.Score
		}
	}
	if swapScore > 0.99 {
		t.Errorf("GES should not treat a token swap as free: swap=%v labs=%v", swapScore, labsScore)
	}
}

func TestIntersectSizeCounts(t *testing.T) {
	records := []core.Record{{TID: 1, Text: "ab"}, {TID: 2, Text: "cd"}}
	p, err := Build("IntersectSize", records, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ms, err := p.Select("ab")
	if err != nil {
		t.Fatal(err)
	}
	// "ab" → {$A, AB, B$}: 3 shared with itself.
	if len(ms) != 1 || ms[0].TID != 1 || ms[0].Score != 3 {
		t.Fatalf("intersect: %+v", ms)
	}
}

func TestJaccardRange(t *testing.T) {
	p, err := Build("Jaccard", companyRecords, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"AT&T", "Morgan Stanley", "zzzz", "Beijing Hotel"} {
		ms, err := p.Select(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			if m.Score <= 0 || m.Score > 1 {
				t.Errorf("Jaccard(%q, tid %d) = %v out of (0,1]", q, m.TID, m.Score)
			}
		}
	}
}

func TestMatchesSortedContract(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.EditTheta = 0
	preds := buildAll(t, companyRecords, cfg)
	for name, p := range preds {
		ms, err := p.Select("Morgan Group")
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(ms); i++ {
			if ms[i].Score > ms[i-1].Score ||
				(ms[i].Score == ms[i-1].Score && ms[i].TID < ms[i-1].TID) {
				t.Errorf("%s: ordering violated at %d: %+v", name, i, ms[i-1:i+1])
			}
		}
	}
}

func TestNoSharedTokensNoResults(t *testing.T) {
	records := []core.Record{{TID: 1, Text: "aaaa"}}
	for _, name := range []string{"IntersectSize", "Jaccard", "Cosine", "BM25", "LM", "HMM"} {
		p, err := Build(name, records, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		ms, err := p.Select("zzzz")
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 0 {
			t.Errorf("%s: query sharing no tokens returned %v", name, ms)
		}
	}
}

// TestEditFilterMatchesBruteForce checks the no-false-negative guarantee of
// the q-gram filter: filtered results must exactly equal the brute-force
// ranking thresholded at θ.
func TestEditFilterMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	letters := "abcdefg "
	randStr := func() string {
		n := 4 + rng.Intn(18)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(letters[rng.Intn(len(letters))])
		}
		return strings.TrimSpace(sb.String()) + "x"
	}
	var records []core.Record
	for i := 0; i < 120; i++ {
		records = append(records, core.Record{TID: i + 1, Text: randStr()})
	}
	for _, theta := range []float64{0.5, 0.7, 0.9} {
		cfgF := core.DefaultConfig()
		cfgF.EditTheta = theta
		filtered, err := Build("EditDistance", records, cfgF)
		if err != nil {
			t.Fatal(err)
		}
		cfgB := core.DefaultConfig()
		cfgB.EditTheta = 0
		brute, err := Build("EditDistance", records, cfgB)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 25; trial++ {
			q := randStr()
			fm, err := filtered.Select(q)
			if err != nil {
				t.Fatal(err)
			}
			bm, err := brute.Select(q)
			if err != nil {
				t.Fatal(err)
			}
			want := map[int]float64{}
			for _, m := range bm {
				if m.Score >= theta {
					want[m.TID] = m.Score
				}
			}
			got := map[int]float64{}
			for _, m := range fm {
				got[m.TID] = m.Score
			}
			if len(got) != len(want) {
				t.Fatalf("θ=%v query %q: filtered %d, brute-force %d", theta, q, len(got), len(want))
			}
			for tid, ws := range want {
				if gs, ok := got[tid]; !ok || math.Abs(gs-ws) > 1e-12 {
					t.Fatalf("θ=%v query %q tid %d: got %v, want %v", theta, q, tid, gs, ws)
				}
			}
		}
	}
}

// TestGESJaccardFilterIsOverestimate: every record whose exact GES score
// reaches θ must survive the Eq. 4.7 filter (the bound over-estimates GES).
func TestGESJaccardFilterSubsumesHighScores(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.GESThreshold = 0.6
	filt, err := Build("GESJaccard", companyRecords, cfg)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Build("GES", companyRecords, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"Morgan Stanley Group Inc.", "AT&T Incorporated", "Beijing Hotel"} {
		em, err := exact.Select(q)
		if err != nil {
			t.Fatal(err)
		}
		fm, err := filt.Select(q)
		if err != nil {
			t.Fatal(err)
		}
		got := map[int]bool{}
		for _, m := range fm {
			got[m.TID] = true
		}
		for _, m := range em {
			if m.Score >= cfg.GESThreshold && !got[m.TID] {
				t.Errorf("query %q: record %d with exact GES %v pruned by filter", q, m.TID, m.Score)
			}
		}
	}
}

func TestGESapxReturnsCandidates(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.GESThreshold = 0.5
	p, err := Build("GESapx", companyRecords, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := p.Select("Morgan Stanley Group Inc.")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 || ms[0].TID != 4 {
		t.Fatalf("GESapx: %+v", ms)
	}
}

func TestGESapxDefaultsK(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.MinHashK = 0 // should fall back to the paper's 5
	if _, err := Build("GESapx", companyRecords, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSoftTFIDFMatchesCloseWords(t *testing.T) {
	cfg := core.DefaultConfig()
	p, err := Build("SoftTFIDF", companyRecords, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// "Stanlwey" is within Jaro–Winkler 0.8 of "Stanley".
	ms, err := p.Select("Morgan Stanlwey Group")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 || (ms[0].TID != 4 && ms[0].TID != 5) {
		t.Fatalf("SoftTFIDF: %+v", ms)
	}
}

func TestEmptyQueries(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.EditTheta = 0.7
	preds := buildAll(t, companyRecords, cfg)
	for name, p := range preds {
		if _, err := p.Select(""); err != nil {
			t.Errorf("%s.Select(\"\") errored: %v", name, err)
		}
		_ = name
	}
}

func TestPruningImprovesUnweightedAccuracyShape(t *testing.T) {
	// With aggressive pruning, frequent grams ('$'-boundary grams of common
	// suffixes like "Inc.") drop out; the unweighted intersect score between
	// AT&T variants must then rely on rarer grams only.
	cfg := core.DefaultConfig()
	cfg.PruneRate = 0.3
	p, err := Build("IntersectSize", companyRecords, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := rank(t, p, "AT&T Incorporated")
	if len(ids) == 0 || ids[0] != 1 {
		t.Fatalf("pruned IntersectSize should still find the exact record: %v", ids)
	}
}

func TestPreprocessPhasesReported(t *testing.T) {
	p, err := Build("BM25", companyRecords, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tok, w := p.(core.Phased).PreprocessPhases()
	if tok < 0 || w < 0 {
		t.Fatalf("phases: %v %v", tok, w)
	}
}

// TestWeightPhaseCoversDerivedColumns: the shared weight tables and the
// word index are built on first use, so the cost moved out of corpus
// assembly — and must show up in the weight phase of the predicate whose
// attach asked for the table (Figure 5.2's preprocessing column), not
// vanish. Tokenization stays the corpus's one shared pass. GESJaccard and
// GESapx share the word index, so each gets a corpus of its own, where a
// plain GES view has already derived the word columns all three read: what
// their first attach adds is the index.
func TestWeightPhaseCoversDerivedColumns(t *testing.T) {
	for _, name := range []string{"Cosine", "LM", "GESJaccard", "GESapx"} {
		c, _, cfg := hotPathCorpus(t, 400, 3)
		snap := c.Snapshot()
		if strings.HasPrefix(name, "GES") {
			if _, err := Attach("GES", c, cfg); err != nil {
				t.Fatal(err)
			}
		}
		p, err := Attach(name, c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tok, w := p.(core.Phased).PreprocessPhases()
		if tok != snap.TokDur {
			t.Errorf("%s: tokenization phase %v, the corpus pass took %v", name, tok, snap.TokDur)
		}
		if w <= snap.WeightDur {
			t.Errorf("%s: weight phase %v does not include deriving its table (assembly alone took %v)", name, w, snap.WeightDur)
		}
		// A second view finds the column derived and pays next to nothing.
		again, err := Attach(name, c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, w2 := again.(core.Phased).PreprocessPhases(); w2 >= w {
			t.Errorf("%s: second attach weight phase %v, first %v: the column was derived twice", name, w2, w)
		}
	}
}

func TestHMMWeightsAboveOneGiveMonotoneScores(t *testing.T) {
	// A record sharing strictly more tokens with the query scores higher.
	records := []core.Record{
		{TID: 1, Text: "abcdef"},
		{TID: 2, Text: "abcxyz"},
		{TID: 3, Text: "abzzzz"},
	}
	p, err := Build("HMM", records, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ids := rank(t, p, "abcdef")
	if ids[0] != 1 || position(ids, 2) > position(ids, 3) && position(ids, 3) >= 0 {
		t.Fatalf("HMM monotonicity: %v", ids)
	}
}

func TestGESCostProperties(t *testing.T) {
	// Identical sequences cost 0; a deleted token costs its weight.
	w := []float64{2, 3}
	words := []string{"ALPHA", "BETA"}
	if c := GESCost(words, w, words, w, 0.5); c != 0 {
		t.Errorf("identical sequences cost %v", c)
	}
	c := GESCost(words, w, words[:1], []float64{2}, 0.5)
	if math.Abs(c-3) > 1e-12 {
		t.Errorf("deleting BETA should cost 3, got %v", c)
	}
	// Insertion costs cins × weight.
	c = GESCost(words[:1], w[:1], words, w, 0.5)
	if math.Abs(c-0.5*3) > 1e-12 {
		t.Errorf("inserting BETA should cost 1.5, got %v", c)
	}
}

func TestGESScoreClamps(t *testing.T) {
	if s := GESScore(100, 1); s != 0 {
		t.Errorf("cost far above wt(Q) should clamp to 0, got %v", s)
	}
	if s := GESScore(0, 5); s != 1 {
		t.Errorf("zero cost should score 1, got %v", s)
	}
	if s := GESScore(1, 0); s != 0 {
		t.Errorf("zero query weight should score 0, got %v", s)
	}
}
