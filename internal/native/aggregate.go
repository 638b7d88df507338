package native

import (
	"repro/internal/core"
	"repro/internal/tokenize"
	"repro/internal/weights"
)

// The aggregate weighted predicates (§3.2, Appendix B.2) score
// sim(Q,D) = Σ_{t∈Q∩D} w_q(t,Q)·w_d(t,D) and differ only in the weighting
// scheme. Token frequency matters, so multisets are preserved.

// Cosine is the tf-idf cosine similarity predicate (§3.2.1). Its posting
// table is parameter-free, so it lives on the shared corpus
// (core.LayerTFIDF): the first view to attach in an epoch derives it, every
// later one shares it.
type Cosine struct {
	phases
	recs []core.Record
	g    *core.GramLayer
	t    *core.PostTable
	q    int
}

// NewCosine preprocesses the base relation with normalized tf-idf weights.
func NewCosine(records []core.Record, cfg core.Config) (*Cosine, error) {
	p, err := Build("Cosine", records, cfg)
	if err != nil {
		return nil, err
	}
	return p.(*Cosine), nil
}

func attachCosine(s *core.Snapshot, cfg core.Config) *Cosine {
	return &Cosine{recs: s.Records, g: s.Grams, t: s.Grams.TFIDF(), q: cfg.Q}
}

// Name implements core.Predicate.
func (p *Cosine) Name() string { return "Cosine" }

// plan assembles the query's posting-list terms — Σ w_q(t)·w_d(t) scoring
// with the shared TFIDFMax/TFIDFMin bound columns — in descending-impact
// order. Query weights are normalized tf-idf computed with the base
// relation's idf; tokens unknown to the base relation are dropped from the
// query vector, as in the declarative plan.
func (p *Cosine) plan(query string, s *core.Scratch) ([]core.Term, core.Shape) {
	qw := p.g.Stats.TFIDF(tokenize.Counts(tokenize.QGrams(query, p.q)))
	terms := s.TermBuf()
	for _, rt := range p.g.OrderedKnownRankWeights(qw) {
		terms = append(terms, core.Term{
			Q:    qw[rt.Tok],
			Ids:  p.g.Postings[rt.Rank],
			W:    p.t.Post[rt.Rank],
			MaxW: p.t.Max[rt.Rank],
			MinW: p.t.Min[rt.Rank],
		})
	}
	core.OrderTermsByImpact(terms)
	// Zero-norm records have no tf-idf vector: they are never a match.
	return terms, core.Shape{Skip: p.t.Skip}
}

// selectOpts ranks records by Σ w_q(t)·w_d(t) on the score-at-a-time path.
func (p *Cosine) selectOpts(query string, opts core.SelectOptions) ([]core.Match, error) {
	s := core.GetScratch(len(p.recs))
	defer s.Release()
	terms, sh := p.plan(query, s)
	return core.MaxScoreSelect(s, p.recs, terms, sh, opts), nil
}

func (p *Cosine) selectNaive(query string, opts core.SelectOptions) ([]core.Match, error) {
	terms, sh := p.plan(query, nil)
	return core.NaiveTermSelect(p.recs, terms, sh, opts), nil
}

// BM25 is the BM25 probabilistic weighting predicate (§3.2.2), deployed for
// data cleaning for the first time in the paper. Its record-side weights
// depend on the k1/b parameters, so they are computed at attach time from
// the shared corpus statistics into a weight column aligned with the
// layer's posting ids.
type BM25 struct {
	phases
	recs   []core.Record
	g      *core.GramLayer
	t      *core.PostTable
	params weights.BM25Params
	q      int
}

// NewBM25 preprocesses the base relation with BM25 record-side weights.
func NewBM25(records []core.Record, cfg core.Config) (*BM25, error) {
	p, err := Build("BM25", records, cfg)
	if err != nil {
		return nil, err
	}
	return p.(*BM25), nil
}

func attachBM25(s *core.Snapshot, cfg core.Config) *BM25 {
	g := s.Grams
	p := &BM25{
		recs:   s.Records,
		g:      g,
		q:      cfg.Q,
		params: weights.BM25Params{K1: cfg.BM25K1, K3: cfg.BM25K3, B: cfg.BM25B},
	}
	// The RS factor of w_d (Eq. 3.4) is per token, not per posting:
	// computing it once per rank keeps the attach at two logs per distinct
	// token instead of two per (token, record) pair.
	rs := make([]float64, len(g.TokenByRank))
	for r := range rs {
		rs[r] = g.Stats.RSAt(int32(r))
	}
	avgdl := g.Stats.AvgDL()
	post := core.PostingColumn[float64](g)
	for i, pairs := range g.Pairs {
		kd := p.params.K1 * ((1 - p.params.B) + p.params.B*float64(g.DL[i])/avgdl)
		for _, pr := range pairs {
			tf := float64(pr.TF)
			w := rs[pr.Rank] * (p.params.K1 + 1) * tf / (kd + tf)
			post[pr.Rank] = append(post[pr.Rank], w)
		}
	}
	// The per-rank weight bounds feeding max-score pruning; the attach
	// reruns on every corpus epoch, so bounds and weights move together.
	p.t = core.NewPostTable(post, g.Postings, nil)
	return p
}

// Name implements core.Predicate.
func (p *BM25) Name() string { return "BM25" }

// plan assembles the Eq. 3.4 scoring terms in descending-impact order. The
// RS factor inside w_d can be negative for very common tokens, so the
// per-rank minima feed the engine's negative-suffix bound.
func (p *BM25) plan(query string, s *core.Scratch) ([]core.Term, core.Shape) {
	qcounts := tokenize.Counts(tokenize.QGrams(query, p.q))
	terms := s.TermBuf()
	for _, rt := range p.g.OrderedKnownRanks(qcounts) {
		terms = append(terms, core.Term{
			Q:    weights.BM25Query(qcounts[rt.Tok], p.params),
			Ids:  p.g.Postings[rt.Rank],
			W:    p.t.Post[rt.Rank],
			MaxW: p.t.Max[rt.Rank],
			MinW: p.t.Min[rt.Rank],
		})
	}
	core.OrderTermsByImpact(terms)
	return terms, core.Shape{}
}

// selectOpts ranks records by the BM25 score of Eq. 3.4.
func (p *BM25) selectOpts(query string, opts core.SelectOptions) ([]core.Match, error) {
	s := core.GetScratch(len(p.recs))
	defer s.Release()
	terms, sh := p.plan(query, s)
	return core.MaxScoreSelect(s, p.recs, terms, sh, opts), nil
}

func (p *BM25) selectNaive(query string, opts core.SelectOptions) ([]core.Match, error) {
	terms, sh := p.plan(query, nil)
	return core.NaiveTermSelect(p.recs, terms, sh, opts), nil
}
