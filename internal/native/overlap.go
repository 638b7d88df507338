package native

import (
	"repro/internal/core"
	"repro/internal/tokenize"
)

// The overlap predicates (§3.1, Appendix B.1) operate on the *sets* of
// q-gram tokens of query and record: duplicates are collapsed, mirroring the
// distinct-token tables the declarative framework stores for this class
// (§5.5.1 notes the "small difference which is due to storing distinct
// tokens only"). All four share the corpus's distinct-token inverted index
// (core.LayerPostings) — the single TOKENS table of the paper's framework —
// and run on the score-at-a-time engine: each posting list's bound is its
// uniform weight (1 for the unweighted pair, RSByRank for the weighted
// pair), the "list length bound" of this class.

// attachIntersectSize is sim(Q,D) = |Q ∩ D| (Eq. 3.1): one unit-weight term
// per known distinct query token. Every list bounds a record's gain by
// exactly 1, so with a limit pushed down the engine stops admitting
// candidates once the remaining list count cannot beat the current top-k
// floor.
func attachIntersectSize(snap *core.Snapshot, cfg core.Config) predicate {
	g := snap.Grams
	return predicate{plan: func(query string, s *core.Scratch) ([]core.Term, core.Shape) {
		qset := tokenize.Counts(tokenize.QGrams(query, cfg.Q))
		terms := s.TermBuf()
		for _, rt := range g.OrderedKnownRanks(qset) {
			terms = append(terms, core.Term{Q: 1, Ids: g.Postings[rt.Rank]})
		}
		core.OrderTermsByImpact(terms)
		return terms, core.Shape{}
	}}
}

// attachJaccard is sim(Q,D) = |Q ∩ D| / |Q ∪ D| (Eq. 3.2): unit-weight
// terms with the ratio shape — the engine accumulates the intersection size
// and divides by |Q ∪ D| per touched record in one pass. The query length
// counts all distinct query tokens, matching the declarative plan's
// COUNT(*) over QUERY_TOKENS.
func attachJaccard(snap *core.Snapshot, cfg core.Config) predicate {
	g := snap.Grams
	// The distinct token count per record is the ratio denominator.
	setLen := make([]float64, len(g.Pairs))
	minLen := 0.0
	for i, pairs := range g.Pairs {
		setLen[i] = float64(len(pairs))
		if i == 0 || setLen[i] < minLen {
			minLen = setLen[i]
		}
	}
	return predicate{plan: func(query string, s *core.Scratch) ([]core.Term, core.Shape) {
		qset := tokenize.Counts(tokenize.QGrams(query, cfg.Q))
		terms := s.TermBuf()
		for _, rt := range g.OrderedKnownRanks(qset) {
			terms = append(terms, core.Term{Q: 1, Ids: g.Postings[rt.Rank]})
		}
		core.OrderTermsByImpact(terms)
		return terms, core.Shape{
			Den:           setLen,
			DenMin:        minLen,
			DenAtLeastAcc: true, // |D| ≥ |Q ∩ D| always
			QSide:         float64(len(qset)),
		}
	}}
}

// attachWeightedMatch is Σ_{t∈Q∩D} w(t) with Robertson–Sparck Jones weights
// (§3.1, §5.3.1). The RS weight table is shared corpus state
// (core.LayerRS). Each list carries the uniform RS weight of its token,
// which is its own exact score bound (RS can be negative for tokens in more
// than half the records; the engine's negative-suffix bound covers that).
func attachWeightedMatch(snap *core.Snapshot, cfg core.Config) predicate {
	g, rs := snap.Grams, snap.Grams.RS()
	return predicate{plan: func(query string, s *core.Scratch) ([]core.Term, core.Shape) {
		qset := tokenize.Counts(tokenize.QGrams(query, cfg.Q))
		terms := s.TermBuf()
		for _, rt := range g.OrderedKnownRanks(qset) {
			terms = append(terms, core.Term{Q: rs.ByRank[rt.Rank], Ids: g.Postings[rt.Rank]})
		}
		core.OrderTermsByImpact(terms)
		return terms, core.Shape{}
	}}
}

// attachWeightedJaccard divides the weight of the intersection by the
// weight of the union, both under RS weights (§3.1): RS-weighted terms with
// the ratio shape over the corpus's RS length column, shared state derived
// once per snapshot. Query token weights come from the base relation's
// weight table, so unseen query tokens contribute nothing to the union
// weight (join semantics of the declarative plan). The query-side union
// weight is summed in ascending token-rank order before impact ordering.
func attachWeightedJaccard(snap *core.Snapshot, cfg core.Config) predicate {
	g, rs := snap.Grams, snap.Grams.RS()
	return predicate{plan: func(query string, s *core.Scratch) ([]core.Term, core.Shape) {
		qset := tokenize.Counts(tokenize.QGrams(query, cfg.Q))
		qlen := 0.0
		terms := s.TermBuf()
		for _, rt := range g.OrderedKnownRanks(qset) {
			w := rs.ByRank[rt.Rank]
			qlen += w
			terms = append(terms, core.Term{Q: w, Ids: g.Postings[rt.Rank]})
		}
		core.OrderTermsByImpact(terms)
		return terms, core.Shape{Den: rs.Len, DenMin: rs.LenMin, QSide: qlen}
	}}
}
