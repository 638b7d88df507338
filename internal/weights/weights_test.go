package weights

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func testCorpus() *Corpus {
	return Build([][]string{
		{"a", "b", "b"},
		{"a", "c"},
		{"d"},
		{"a", "b", "c", "d"},
	})
}

func TestCorpusStats(t *testing.T) {
	c := testCorpus()
	if c.NumRecords() != 4 {
		t.Errorf("N = %d", c.NumRecords())
	}
	if c.DF("a") != 3 || c.DF("b") != 2 || c.DF("d") != 2 || c.DF("zz") != 0 {
		t.Errorf("df: a=%d b=%d d=%d", c.DF("a"), c.DF("b"), c.DF("d"))
	}
	if c.CF("b") != 3 {
		t.Errorf("cf(b) = %d", c.CF("b"))
	}
	if c.CS() != 10 {
		t.Errorf("cs = %d", c.CS())
	}
	if !approx(c.AvgDL(), 2.5) {
		t.Errorf("avgdl = %v", c.AvgDL())
	}
	if c.Tokens() != 4 {
		t.Errorf("tokens = %d", c.Tokens())
	}
	if !c.Known("a") || c.Known("zz") {
		t.Error("Known")
	}
}

func TestIDF(t *testing.T) {
	c := testCorpus()
	if !approx(c.IDF("a"), math.Log(4)-math.Log(3)) {
		t.Errorf("idf(a) = %v", c.IDF("a"))
	}
	// Unseen tokens get the average idf.
	want := (c.IDF("a") + c.IDF("b") + c.IDF("c") + c.IDF("d")) / 4
	if !approx(c.IDF("zz"), want) || !approx(c.AvgIDF(), want) {
		t.Errorf("unseen idf = %v, want %v", c.IDF("zz"), want)
	}
}

func TestRSWeight(t *testing.T) {
	c := testCorpus()
	// w(1)(a) = log((4-3+0.5)/(3+0.5)) = log(1.5/3.5) < 0 — frequent token.
	if got := c.RS("a"); !approx(got, math.Log(1.5)-math.Log(3.5)) {
		t.Errorf("RS(a) = %v", got)
	}
	if got := c.RS("d"); !approx(got, math.Log(2.5)-math.Log(2.5)) {
		t.Errorf("RS(d) = %v", got)
	}
	// Rare tokens weigh more than frequent ones.
	if c.RS("d") <= c.RS("a") {
		t.Error("RS should be decreasing in df")
	}
}

func TestPavg(t *testing.T) {
	c := testCorpus()
	// b: in doc0 pml=2/3, in doc3 pml=1/4; pavg = (2/3+1/4)/2
	if got := c.Pavg("b"); !approx(got, (2.0/3.0+0.25)/2) {
		t.Errorf("pavg(b) = %v", got)
	}
	if c.Pavg("zz") != 0 {
		t.Error("pavg of unseen should be 0")
	}
}

func TestCFCS(t *testing.T) {
	c := testCorpus()
	if !approx(c.CFCS("b"), 0.3) {
		t.Errorf("cfcs(b) = %v", c.CFCS("b"))
	}
	empty := Build(nil)
	if empty.CFCS("x") != 0 {
		t.Error("cfcs on empty corpus")
	}
}

func TestTFIDFNormalized(t *testing.T) {
	c := testCorpus()
	w := c.TFIDF(map[string]int{"a": 1, "b": 2})
	// The weight vector must have unit L2 norm.
	norm := 0.0
	for _, v := range w {
		norm += v * v
	}
	if !approx(norm, 1) {
		t.Errorf("tf-idf norm = %v", norm)
	}
	// Unknown tokens are excluded.
	w2 := c.TFIDF(map[string]int{"a": 1, "zz": 5})
	if _, ok := w2["zz"]; ok {
		t.Error("unknown token should be dropped")
	}
	// All-unknown record yields empty weights.
	if len(c.TFIDF(map[string]int{"zz": 1})) != 0 {
		t.Error("all-unknown record should have no weights")
	}
}

func TestTFIDFProportionalToTF(t *testing.T) {
	c := testCorpus()
	w1 := c.TFIDF(map[string]int{"a": 1, "d": 1})
	w2 := c.TFIDF(map[string]int{"a": 2, "d": 1})
	// Raising tf(a) raises a's relative weight.
	if !(w2["a"]/w2["d"] > w1["a"]/w1["d"]) {
		t.Error("tf-idf should grow with tf")
	}
}

func TestBM25DocWeights(t *testing.T) {
	c := testCorpus()
	p := DefaultBM25()
	counts := map[string]int{"a": 1, "b": 2}
	w := c.BM25Doc(counts, 3, p)
	kd := p.K1 * ((1 - p.B) + p.B*3/c.AvgDL())
	wantA := c.RS("a") * (p.K1 + 1) * 1 / (kd + 1)
	if !approx(w["a"], wantA) {
		t.Errorf("bm25 w(a) = %v, want %v", w["a"], wantA)
	}
	wantB := c.RS("b") * (p.K1 + 1) * 2 / (kd + 2)
	if !approx(w["b"], wantB) {
		t.Errorf("bm25 w(b) = %v, want %v", w["b"], wantB)
	}
}

func TestBM25Query(t *testing.T) {
	p := DefaultBM25()
	if !approx(BM25Query(1, p), (8.0+1)/(8.0+1)) {
		t.Errorf("BM25Query(1) = %v", BM25Query(1, p))
	}
	// Saturates with tf.
	if !(BM25Query(10, p) > BM25Query(1, p)) || BM25Query(10, p) > p.K3+1 {
		t.Error("BM25 query weight should increase and saturate")
	}
}

func TestDefaultBM25MatchesPaper(t *testing.T) {
	p := DefaultBM25()
	if p.K1 != 1.5 || p.K3 != 8 || p.B != 0.675 {
		t.Errorf("paper settings: %+v", p)
	}
}

func TestLMRecord(t *testing.T) {
	c := testCorpus()
	counts := map[string]int{"a": 1, "b": 2}
	rec := c.LM(counts, 3)
	// p̂ must be a probability in (0, 1) for in-record tokens.
	for tok, pm := range rec.PM {
		if pm <= 0 || pm >= 1 {
			t.Errorf("pm(%s) = %v out of (0,1)", tok, pm)
		}
	}
	// SumCompLog = Σ log(1-pm).
	want := 0.0
	for _, pm := range rec.PM {
		want += math.Log(1 - pm)
	}
	if !approx(rec.SumCompLog, want) {
		t.Errorf("SumCompLog = %v, want %v", rec.SumCompLog, want)
	}
	// pm is a risk-weighted geometric mean of pml and pavg, so it lies
	// between them.
	pmlA, pavgA := 1.0/3.0, c.Pavg("a")
	lo, hi := math.Min(pmlA, pavgA), math.Max(pmlA, pavgA)
	if rec.PM["a"] < lo-1e-12 || rec.PM["a"] > hi+1e-12 {
		t.Errorf("pm(a)=%v outside [%v,%v]", rec.PM["a"], lo, hi)
	}
	// Zero-length record.
	if got := c.LM(nil, 0); len(got.PM) != 0 || got.SumCompLog != 0 {
		t.Errorf("LM on empty record: %+v", got)
	}
}

func TestHMMWeights(t *testing.T) {
	c := testCorpus()
	w := c.HMM(map[string]int{"a": 1, "d": 1}, 2, 0.2)
	// weight = 1 + 0.8·(tf/dl) / (0.2·cf/cs)
	wantA := 1 + 0.8*(0.5)/(0.2*c.CFCS("a"))
	if !approx(w["a"], wantA) {
		t.Errorf("hmm w(a) = %v, want %v", w["a"], wantA)
	}
	// All weights exceed 1, so matching any token increases the score.
	for tok, v := range w {
		if v <= 1 {
			t.Errorf("hmm weight(%s) = %v, want > 1", tok, v)
		}
	}
	if got := c.HMM(nil, 0, 0.2); len(got) != 0 {
		t.Errorf("HMM on empty record: %v", got)
	}
}

func TestHMMRareTokensWeighMore(t *testing.T) {
	c := testCorpus()
	w := c.HMM(map[string]int{"a": 1, "d": 1}, 2, 0.2)
	// 'd' (cf=2) is rarer than 'a' (cf=3): same tf ⇒ higher weight.
	if !(w["d"] > w["a"]) {
		t.Errorf("rare token should weigh more: d=%v a=%v", w["d"], w["a"])
	}
}

func TestBuildEmptyCorpus(t *testing.T) {
	c := Build(nil)
	if c.NumRecords() != 0 || c.CS() != 0 || c.AvgDL() != 0 || c.AvgIDF() != 0 {
		t.Errorf("empty corpus stats: %+v", c)
	}
}

func TestPropertyPMBetweenBounds(t *testing.T) {
	c := testCorpus()
	f := func(tfRaw uint8, dlRaw uint8) bool {
		tf := int(tfRaw%5) + 1
		dl := tf + int(dlRaw%10)
		rec := c.LM(map[string]int{"a": tf}, dl)
		pm := rec.PM["a"]
		return pm > 0 && pm < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyRSMonotoneInDF(t *testing.T) {
	// Build corpora of growing df for a probe token; RS must decrease.
	prev := math.Inf(1)
	for df := 1; df <= 8; df++ {
		docs := make([][]string, 10)
		for i := range docs {
			docs[i] = []string{"filler"}
		}
		for i := 0; i < df; i++ {
			docs[i] = append(docs[i], "probe")
		}
		c := Build(docs)
		rs := c.RS("probe")
		if rs >= prev {
			t.Fatalf("RS not decreasing at df=%d: %v >= %v", df, rs, prev)
		}
		prev = rs
	}
}

// TestNewOverCountersMatchesBuild: a Corpus is nothing but its integer
// counters — wrapping the counters of a built corpus (the path incremental
// maintenance takes) must answer every weight with the same bits, float
// aggregates included.
func TestNewOverCountersMatchesBuild(t *testing.T) {
	docs := [][]string{{"a", "b", "b"}, {"a", "c"}, {}, {"d"}, {"a", "b", "c", "d"}}
	built := Build(docs)
	tokens := built.SortedTokens()
	pairs := make([][]RankTF, len(docs))
	dls := make([]int, len(docs))
	for i, doc := range docs {
		ranks := make([]int32, len(doc))
		for j, tok := range doc {
			ranks[j], _ = built.Rank(tok)
		}
		pairs[i], dls[i] = CountRanks(ranks), len(doc)
	}
	wrapped := New(tokens, built.DFs(), built.CFs(), built.NumRecords(), built.CS(),
		func() []float64 { return SumPML(pairs, dls, len(tokens)) })
	if wrapped.AvgDL() != built.AvgDL() || wrapped.AvgIDF() != built.AvgIDF() {
		t.Fatalf("aggregates differ: avgdl %v/%v avgidf %v/%v", wrapped.AvgDL(), built.AvgDL(), wrapped.AvgIDF(), built.AvgIDF())
	}
	for _, tok := range append([]string{"zz"}, tokens...) {
		if wrapped.IDF(tok) != built.IDF(tok) || wrapped.RS(tok) != built.RS(tok) ||
			wrapped.Pavg(tok) != built.Pavg(tok) || wrapped.CFCS(tok) != built.CFCS(tok) {
			t.Fatalf("weights of %q differ", tok)
		}
	}
	if r, ok := built.Rank("c"); !ok || r != 2 {
		t.Fatalf("rank(c) = %d, %v", r, ok)
	}
	if _, ok := built.Rank("zz"); ok {
		t.Fatal("unknown token has a rank")
	}
}
