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

// IntersectSize is sim(Q,D) = |Q ∩ D| (Eq. 3.1).
type IntersectSize struct {
	phases
	recs []core.Record
	g    *core.GramLayer
	q    int
}

// NewIntersectSize preprocesses the base relation for IntersectSize.
func NewIntersectSize(records []core.Record, cfg core.Config) (*IntersectSize, error) {
	p, err := Build("IntersectSize", records, cfg)
	if err != nil {
		return nil, err
	}
	return p.(*IntersectSize), nil
}

func attachIntersectSize(s *core.Snapshot, cfg core.Config) *IntersectSize {
	return &IntersectSize{recs: s.Records, g: s.Grams, q: cfg.Q}
}

// Name implements core.Predicate.
func (p *IntersectSize) Name() string { return "IntersectSize" }

// plan: one unit-weight term per known distinct query token. Every list
// bounds a record's gain by exactly 1, so with a limit pushed down the
// engine stops admitting candidates once the remaining list count cannot
// beat the current top-k floor.
func (p *IntersectSize) plan(query string, s *core.Scratch) ([]core.Term, core.Shape) {
	qset := tokenize.Counts(tokenize.QGrams(query, p.q))
	terms := s.TermBuf()
	for _, rt := range p.g.OrderedKnownRanks(qset) {
		terms = append(terms, core.Term{Q: 1, Ids: p.g.Postings[rt.Rank]})
	}
	core.OrderTermsByImpact(terms)
	return terms, core.Shape{}
}

// selectOpts ranks records by the number of distinct shared tokens.
func (p *IntersectSize) selectOpts(query string, opts core.SelectOptions) ([]core.Match, error) {
	s := core.GetScratch(len(p.recs))
	defer s.Release()
	terms, sh := p.plan(query, s)
	return core.MaxScoreSelect(s, p.recs, terms, sh, opts), nil
}

func (p *IntersectSize) selectNaive(query string, opts core.SelectOptions) ([]core.Match, error) {
	terms, sh := p.plan(query, nil)
	return core.NaiveTermSelect(p.recs, terms, sh, opts), nil
}

// Jaccard is sim(Q,D) = |Q ∩ D| / |Q ∪ D| (Eq. 3.2).
type Jaccard struct {
	phases
	recs   []core.Record
	g      *core.GramLayer
	setLen []float64 // distinct token count per record (the ratio denominator)
	minLen float64
	q      int
}

// NewJaccard preprocesses the base relation for the Jaccard coefficient.
func NewJaccard(records []core.Record, cfg core.Config) (*Jaccard, error) {
	p, err := Build("Jaccard", records, cfg)
	if err != nil {
		return nil, err
	}
	return p.(*Jaccard), nil
}

func attachJaccard(s *core.Snapshot, cfg core.Config) *Jaccard {
	p := &Jaccard{recs: s.Records, g: s.Grams, q: cfg.Q}
	p.setLen = make([]float64, len(s.Grams.Pairs))
	for i, pairs := range s.Grams.Pairs {
		p.setLen[i] = float64(len(pairs))
		if i == 0 || p.setLen[i] < p.minLen {
			p.minLen = p.setLen[i]
		}
	}
	return p
}

// Name implements core.Predicate.
func (p *Jaccard) Name() string { return "Jaccard" }

// plan: unit-weight terms with the ratio shape — the engine accumulates
// the intersection size and divides by |Q ∪ D| per touched record in one
// pass (the former two-pass inter-map-then-score merge, folded). The query
// length counts all distinct query tokens, matching the declarative plan's
// COUNT(*) over QUERY_TOKENS.
func (p *Jaccard) plan(query string, s *core.Scratch) ([]core.Term, core.Shape) {
	qset := tokenize.Counts(tokenize.QGrams(query, p.q))
	terms := s.TermBuf()
	for _, rt := range p.g.OrderedKnownRanks(qset) {
		terms = append(terms, core.Term{Q: 1, Ids: p.g.Postings[rt.Rank]})
	}
	core.OrderTermsByImpact(terms)
	return terms, core.Shape{
		Den:           p.setLen,
		DenMin:        p.minLen,
		DenAtLeastAcc: true, // |D| ≥ |Q ∩ D| always
		QSide:         float64(len(qset)),
	}
}

// selectOpts ranks records by Jaccard coefficient over distinct tokens.
func (p *Jaccard) selectOpts(query string, opts core.SelectOptions) ([]core.Match, error) {
	s := core.GetScratch(len(p.recs))
	defer s.Release()
	terms, sh := p.plan(query, s)
	return core.MaxScoreSelect(s, p.recs, terms, sh, opts), nil
}

func (p *Jaccard) selectNaive(query string, opts core.SelectOptions) ([]core.Match, error) {
	terms, sh := p.plan(query, nil)
	return core.NaiveTermSelect(p.recs, terms, sh, opts), nil
}

// WeightedMatch is Σ_{t∈Q∩D} w(t) with Robertson–Sparck Jones weights
// (§3.1, §5.3.1). The RS weight table is shared corpus state
// (core.LayerRS), not per-predicate.
type WeightedMatch struct {
	phases
	recs []core.Record
	g    *core.GramLayer
	rs   *core.RSTable
	q    int
}

// NewWeightedMatch preprocesses the base relation for WeightedMatch.
func NewWeightedMatch(records []core.Record, cfg core.Config) (*WeightedMatch, error) {
	p, err := Build("WeightedMatch", records, cfg)
	if err != nil {
		return nil, err
	}
	return p.(*WeightedMatch), nil
}

func attachWeightedMatch(s *core.Snapshot, cfg core.Config) *WeightedMatch {
	return &WeightedMatch{recs: s.Records, g: s.Grams, rs: s.Grams.RS(), q: cfg.Q}
}

// Name implements core.Predicate.
func (p *WeightedMatch) Name() string { return "WeightedMatch" }

// plan: each list carries the uniform RS weight of its token, which is its
// own exact score bound (RS can be negative for tokens in more than half
// the records; the engine's negative-suffix bound covers that).
func (p *WeightedMatch) plan(query string, s *core.Scratch) ([]core.Term, core.Shape) {
	qset := tokenize.Counts(tokenize.QGrams(query, p.q))
	terms := s.TermBuf()
	for _, rt := range p.g.OrderedKnownRanks(qset) {
		terms = append(terms, core.Term{Q: p.rs.ByRank[rt.Rank], Ids: p.g.Postings[rt.Rank]})
	}
	core.OrderTermsByImpact(terms)
	return terms, core.Shape{}
}

// selectOpts ranks records by the summed RS weight of shared distinct tokens.
func (p *WeightedMatch) selectOpts(query string, opts core.SelectOptions) ([]core.Match, error) {
	s := core.GetScratch(len(p.recs))
	defer s.Release()
	terms, sh := p.plan(query, s)
	return core.MaxScoreSelect(s, p.recs, terms, sh, opts), nil
}

func (p *WeightedMatch) selectNaive(query string, opts core.SelectOptions) ([]core.Match, error) {
	terms, sh := p.plan(query, nil)
	return core.NaiveTermSelect(p.recs, terms, sh, opts), nil
}

// WeightedJaccard divides the weight of the intersection by the weight of
// the union, both under RS weights (§3.1).
type WeightedJaccard struct {
	phases
	recs []core.Record
	g    *core.GramLayer
	rs   *core.RSTable
	q    int
}

// NewWeightedJaccard preprocesses the base relation for WeightedJaccard.
func NewWeightedJaccard(records []core.Record, cfg core.Config) (*WeightedJaccard, error) {
	p, err := Build("WeightedJaccard", records, cfg)
	if err != nil {
		return nil, err
	}
	return p.(*WeightedJaccard), nil
}

func attachWeightedJaccard(s *core.Snapshot, cfg core.Config) *WeightedJaccard {
	// The union denominator Σ RS over each record's distinct tokens is the
	// corpus's RS length column — shared state, derived once per snapshot.
	return &WeightedJaccard{recs: s.Records, g: s.Grams, rs: s.Grams.RS(), q: cfg.Q}
}

// Name implements core.Predicate.
func (p *WeightedJaccard) Name() string { return "WeightedJaccard" }

// plan: RS-weighted terms with the ratio shape over the shared RSLen
// column — the former inter-map pass and the scoring pass fold into one
// accumulation. Query token weights come from the base relation's weight
// table, so unseen query tokens contribute nothing to the union weight
// (join semantics of the declarative plan). The query-side union weight is
// summed in ascending token-rank order before impact ordering, preserving
// the exact float of the previous implementation.
func (p *WeightedJaccard) plan(query string, s *core.Scratch) ([]core.Term, core.Shape) {
	qset := tokenize.Counts(tokenize.QGrams(query, p.q))
	known := p.g.OrderedKnownRanks(qset)
	qlen := 0.0
	terms := s.TermBuf()
	for _, rt := range known {
		w := p.rs.ByRank[rt.Rank]
		qlen += w
		terms = append(terms, core.Term{Q: w, Ids: p.g.Postings[rt.Rank]})
	}
	core.OrderTermsByImpact(terms)
	return terms, core.Shape{
		Den:    p.rs.Len,
		DenMin: p.rs.LenMin,
		QSide:  qlen,
	}
}

// selectOpts ranks records by weighted Jaccard.
func (p *WeightedJaccard) selectOpts(query string, opts core.SelectOptions) ([]core.Match, error) {
	s := core.GetScratch(len(p.recs))
	defer s.Release()
	terms, sh := p.plan(query, s)
	return core.MaxScoreSelect(s, p.recs, terms, sh, opts), nil
}

func (p *WeightedJaccard) selectNaive(query string, opts core.SelectOptions) ([]core.Match, error) {
	terms, sh := p.plan(query, nil)
	return core.NaiveTermSelect(p.recs, terms, sh, opts), nil
}
