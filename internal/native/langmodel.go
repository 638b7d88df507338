package native

import (
	"math"

	"repro/internal/core"
	"repro/internal/tokenize"
)

// The language modeling predicates (§3.3, Appendix B.3) are the
// probabilistic predicates the paper introduces for data cleaning.

// LM is the Ponte–Croft language modeling predicate, scored with the
// algebraically rewritten Eq. 4.4 so that only tokens shared by query and
// record (plus one precomputed per-record term) participate. Its posting
// table (the BASE_PM join of the declarative plan) is parameter-free and
// lives on the shared corpus (core.LayerLM).
type LM struct {
	phases
	recs []core.Record
	g    *core.GramLayer
	t    *core.LMTable
	q    int
}

// NewLM preprocesses the base relation for the language modeling predicate.
func NewLM(records []core.Record, cfg core.Config) (*LM, error) {
	p, err := Build("LM", records, cfg)
	if err != nil {
		return nil, err
	}
	return p.(*LM), nil
}

func attachLM(s *core.Snapshot, cfg core.Config) *LM {
	return &LM{recs: s.Records, g: s.Grams, t: s.Grams.LM(), q: cfg.Q}
}

// Name implements core.Predicate.
func (p *LM) Name() string { return "LM" }

// plan assembles the rewritten Eq. 4.4 terms: each query token occurrence
// contributes its per-match log term (which can be negative, bounded by
// the shared LMMax/LMMin columns), and the per-record Σ log(1−pm) column
// enters as the shape's additive offset under exp.
func (p *LM) plan(query string, s *core.Scratch) ([]core.Term, core.Shape) {
	qcounts := tokenize.Counts(tokenize.QGrams(query, p.q))
	terms := s.TermBuf()
	for _, rt := range p.g.OrderedKnownRanks(qcounts) {
		terms = append(terms, core.Term{
			Q:    float64(qcounts[rt.Tok]),
			Ids:  p.g.Postings[rt.Rank],
			W:    p.t.Post[rt.Rank],
			MaxW: p.t.Max[rt.Rank],
			MinW: p.t.Min[rt.Rank],
		})
	}
	core.OrderTermsByImpact(terms)
	return terms, core.Shape{
		Comp:    p.t.SumComp,
		CompMax: p.t.CompMax,
		Exp:     true,
	}
}

// selectOpts ranks records by p̂(Q|M_D) (Eq. 4.4), matching the declarative
// join of BASE_PM with the query token multiset.
func (p *LM) selectOpts(query string, opts core.SelectOptions) ([]core.Match, error) {
	s := core.GetScratch(len(p.recs))
	defer s.Release()
	terms, sh := p.plan(query, s)
	return core.MaxScoreSelect(s, p.recs, terms, sh, opts), nil
}

func (p *LM) selectNaive(query string, opts core.SelectOptions) ([]core.Match, error) {
	terms, sh := p.plan(query, nil)
	return core.NaiveTermSelect(p.recs, terms, sh, opts), nil
}

// HMM is the two-state Hidden Markov Model predicate: the similarity is the
// product, over query token occurrences matched in the record, of
// 1 + a1·P(t|D)/(a0·P(t|GE)) (rewritten Eq. 4.6). The weights depend on the
// a0 parameter, so they are computed at attach time from the shared corpus
// statistics into a log-weight column aligned with the layer's posting ids.
type HMM struct {
	phases
	recs []core.Record
	g    *core.GramLayer
	t    *core.PostTable
	q    int
}

// NewHMM preprocesses the base relation for the HMM predicate.
func NewHMM(records []core.Record, cfg core.Config) (*HMM, error) {
	p, err := Build("HMM", records, cfg)
	if err != nil {
		return nil, err
	}
	return p.(*HMM), nil
}

func attachHMM(s *core.Snapshot, cfg core.Config) *HMM {
	g := s.Grams
	p := &HMM{recs: s.Records, g: g, q: cfg.Q}
	// P(t|GE) = cf/cs is per token, not per posting; a token with a posting
	// has cf > 0, and a record with a posting has dl > 0.
	cfcs := make([]float64, len(g.TokenByRank))
	for r := range cfcs {
		cfcs[r] = g.Stats.CFCSAt(int32(r))
	}
	a0 := cfg.HMMA0
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
	// The per-rank weight bounds feeding max-score pruning; the attach
	// reruns on every corpus epoch, so bounds and weights move together.
	p.t = core.NewPostTable(post, g.Postings, nil)
	return p
}

// Name implements core.Predicate.
func (p *HMM) Name() string { return "HMM" }

// plan assembles the rewritten HMM terms (log weights, so the product
// becomes a sum under exp) in descending-impact order.
func (p *HMM) plan(query string, s *core.Scratch) ([]core.Term, core.Shape) {
	qcounts := tokenize.Counts(tokenize.QGrams(query, p.q))
	terms := s.TermBuf()
	for _, rt := range p.g.OrderedKnownRanks(qcounts) {
		terms = append(terms, core.Term{
			Q:    float64(qcounts[rt.Tok]),
			Ids:  p.g.Postings[rt.Rank],
			W:    p.t.Post[rt.Rank],
			MaxW: p.t.Max[rt.Rank],
			MinW: p.t.Min[rt.Rank],
		})
	}
	core.OrderTermsByImpact(terms)
	return terms, core.Shape{Exp: true}
}

// selectOpts ranks records by the rewritten HMM score.
func (p *HMM) selectOpts(query string, opts core.SelectOptions) ([]core.Match, error) {
	s := core.GetScratch(len(p.recs))
	defer s.Release()
	terms, sh := p.plan(query, s)
	return core.MaxScoreSelect(s, p.recs, terms, sh, opts), nil
}

func (p *HMM) selectNaive(query string, opts core.SelectOptions) ([]core.Match, error) {
	terms, sh := p.plan(query, nil)
	return core.NaiveTermSelect(p.recs, terms, sh, opts), nil
}
