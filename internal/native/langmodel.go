package native

import (
	"math"

	"repro/internal/core"
	"repro/internal/tokenize"
)

// The language modeling predicates (§3.3, Appendix B.3) are the
// probabilistic predicates the paper introduces for data cleaning.

// attachLM is the Ponte–Croft language modeling predicate, scored with the
// algebraically rewritten Eq. 4.4 so that only tokens shared by query and
// record (plus one precomputed per-record term) participate: each query
// token occurrence contributes its per-match log term (which can be
// negative, bounded by the shared LMMax/LMMin columns), and the per-record
// Σ log(1−pm) column enters as the shape's additive offset under exp. Its
// posting table (the BASE_PM join of the declarative plan) is
// parameter-free and lives on the shared corpus (core.LayerLM).
func attachLM(snap *core.Snapshot, cfg core.Config) predicate {
	g, t := snap.Grams, snap.Grams.LM()
	return predicate{plan: func(query string, s *core.Scratch) ([]core.Term, core.Shape) {
		qcounts := tokenize.Counts(tokenize.QGrams(query, cfg.Q))
		terms := s.TermBuf()
		for _, rt := range g.OrderedKnownRanks(qcounts) {
			terms = append(terms, columnTerm(float64(qcounts[rt.Tok]), g, &t.PostTable, rt.Rank))
		}
		core.OrderTermsByImpact(terms)
		return terms, core.Shape{Comp: t.SumComp, CompMax: t.CompMax, Exp: true}
	}}
}

// attachHMM is the two-state Hidden Markov Model predicate: the similarity
// is the product, over query token occurrences matched in the record, of
// 1 + a1·P(t|D)/(a0·P(t|GE)) (rewritten Eq. 4.6) — log weights, so the
// product becomes a sum under exp.
func attachHMM(snap *core.Snapshot, cfg core.Config) predicate {
	g := snap.Grams
	t := hmmColumn(g, cfg.HMMA0)
	return predicate{plan: func(query string, s *core.Scratch) ([]core.Term, core.Shape) {
		qcounts := tokenize.Counts(tokenize.QGrams(query, cfg.Q))
		terms := s.TermBuf()
		for _, rt := range g.OrderedKnownRanks(qcounts) {
			terms = append(terms, columnTerm(float64(qcounts[rt.Tok]), g, t, rt.Rank))
		}
		core.OrderTermsByImpact(terms)
		return terms, core.Shape{Exp: true}
	}}
}

// hmmColumn computes HMM's log weights from the shared corpus statistics
// into a column aligned with the layer's posting ids. They depend on the a0
// parameter, so every attach computes them, with the per-rank bounds
// feeding max-score pruning.
func hmmColumn(g *core.GramLayer, a0 float64) *core.PostTable {
	// P(t|GE) = cf/cs is per token, not per posting; a token with a posting
	// has cf > 0, and a record with a posting has dl > 0.
	cfcs := make([]float64, len(g.TokenByRank))
	for r := range cfcs {
		cfcs[r] = g.Stats.CFCSAt(int32(r))
	}
	a1 := 1 - a0
	post := core.PostingColumn[float64](g)
	for i, pairs := range g.Pairs {
		dl := float64(g.DL[i])
		for _, pr := range pairs {
			pml := float64(pr.TF) / dl
			w := 1 + a1*pml/(a0*cfcs[pr.Rank])
			post[pr.Rank] = append(post[pr.Rank], math.Log(w))
		}
	}
	return core.NewPostTable(post, g.Postings, nil)
}
