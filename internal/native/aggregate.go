package native

import (
	"repro/internal/core"
	"repro/internal/tokenize"
	"repro/internal/weights"
)

// The aggregate weighted predicates (§3.2, Appendix B.2) score
// sim(Q,D) = Σ_{t∈Q∩D} w_q(t,Q)·w_d(t,D) and differ only in the weighting
// scheme. Token frequency matters, so multisets are preserved.

// columnTerm is the term of rank r whose record-side weights are t's
// column, bounded by t's per-rank extremes.
func columnTerm(q float64, g *core.GramLayer, t *core.PostTable, r int32) core.Term {
	return core.Term{Q: q, Ids: g.Postings[r], W: t.Post[r], MaxW: t.Max[r], MinW: t.Min[r]}
}

// attachCosine is the tf-idf cosine similarity predicate (§3.2.1). Its
// posting table is parameter-free, so it lives on the shared corpus
// (core.LayerTFIDF): the first view to attach in an epoch derives it, every
// later one shares it. Query weights are normalized tf-idf computed with
// the base relation's idf; tokens unknown to the base relation are dropped
// from the query vector, as in the declarative plan.
func attachCosine(snap *core.Snapshot, cfg core.Config) predicate {
	g, t := snap.Grams, snap.Grams.TFIDF()
	return predicate{plan: func(query string, s *core.Scratch) ([]core.Term, core.Shape) {
		qw := g.Stats.TFIDF(tokenize.Counts(tokenize.QGrams(query, cfg.Q)))
		terms := s.TermBuf()
		for _, rt := range g.OrderedKnownRankWeights(qw) {
			terms = append(terms, columnTerm(qw[rt.Tok], g, t, rt.Rank))
		}
		core.OrderTermsByImpact(terms)
		// Zero-norm records have no tf-idf vector: they are never a match.
		return terms, core.Shape{Skip: t.Skip}
	}}
}

// attachBM25 is the BM25 probabilistic weighting predicate (§3.2.2),
// deployed for data cleaning for the first time in the paper, scored by
// Eq. 3.4. The RS factor inside w_d can be negative for very common tokens,
// so the per-rank minima feed the engine's negative-suffix bound.
func attachBM25(snap *core.Snapshot, cfg core.Config) predicate {
	g := snap.Grams
	params := weights.BM25Params{K1: cfg.BM25K1, K3: cfg.BM25K3, B: cfg.BM25B}
	t := bm25Column(g, params)
	return predicate{plan: func(query string, s *core.Scratch) ([]core.Term, core.Shape) {
		qcounts := tokenize.Counts(tokenize.QGrams(query, cfg.Q))
		terms := s.TermBuf()
		for _, rt := range g.OrderedKnownRanks(qcounts) {
			terms = append(terms, columnTerm(weights.BM25Query(qcounts[rt.Tok], params), g, t, rt.Rank))
		}
		core.OrderTermsByImpact(terms)
		return terms, core.Shape{}
	}}
}

// bm25Column computes BM25's record-side weights from the shared corpus
// statistics into a column aligned with the layer's posting ids. They
// depend on the k1/b parameters, so every attach computes them; the
// per-rank bounds feeding max-score pruning are rebuilt with them, so
// bounds and weights move together across corpus epochs.
func bm25Column(g *core.GramLayer, params weights.BM25Params) *core.PostTable {
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
		kd := params.K1 * ((1 - params.B) + params.B*float64(g.DL[i])/avgdl)
		for _, pr := range pairs {
			tf := float64(pr.TF)
			w := rs[pr.Rank] * (params.K1 + 1) * tf / (kd + tf)
			post[pr.Rank] = append(post[pr.Rank], w)
		}
	}
	return core.NewPostTable(post, g.Postings, nil)
}
