package native

import (
	"repro/internal/core"
	"repro/internal/strutil"
	"repro/internal/tokenize"
)

// EditDistance is the edit-based predicate (§3.4/§4.4): records are ranked
// by edit similarity 1 − d/max(|Q|,|D|). Following Gravano et al. [11], a
// q-gram candidate filter (count + length filtering, no false negatives)
// narrows the base relation before exact verification with a banded
// dynamic program, when a similarity threshold θ is configured.
//
// Both the filter and the verified distance operate on the edit-normalized
// string (upper-cased, whitespace runs replaced by the q-gram pad sequence)
// so the filter's no-false-negative guarantee is exact for the similarity
// actually scored. The gram index reads the corpus's *unpruned* layer:
// IDF pruning would break the no-false-negative guarantee (§5.6 notes
// pruning suits weighted predicates).
type EditDistance struct {
	phases
	recs []core.Record
	raw  *core.GramLayer // unpruned layer: rank lookups and posting ids
	// tf is the raw layer's gram-frequency column aligned with its posting
	// ids, the record side of the count filter (unused by the positional
	// variant).
	tf [][]int32
	// posIndex maps gram → per-record sorted start positions, built when
	// the positional filter is enabled.
	posIndex   map[string][]posPost
	norm       []string // edit-normalized text per record
	grams      []int    // padded q-gram counts per record
	q          int
	theta      float64
	positional bool
}

// posPost is one positional posting: a record and the sorted positions at
// which the gram occurs in the record's padded normalized string.
type posPost struct {
	idx       int
	positions []int32
}

// NewEditDistance preprocesses the base relation for the edit predicate.
func NewEditDistance(records []core.Record, cfg core.Config) (*EditDistance, error) {
	p, err := Build("EditDistance", records, cfg)
	if err != nil {
		return nil, err
	}
	return p.(*EditDistance), nil
}

func attachEditDistance(s *core.Snapshot, cfg core.Config) *EditDistance {
	raw := s.RawGrams
	p := &EditDistance{
		recs:       s.Records,
		raw:        raw,
		q:          cfg.Q,
		theta:      cfg.EditTheta,
		positional: cfg.EditPositional,
		norm:       s.Norms,
		grams:      raw.DL,
	}
	if !p.positional {
		p.tf = raw.TF()
	} else {
		// The corpus's gram slice is in occurrence order, so position j of
		// Docs[i] is the j-th gram start — no re-tokenization needed.
		p.posIndex = make(map[string][]posPost)
		for i := range raw.Docs {
			for j, g := range raw.Docs[i] {
				refs := p.posIndex[g]
				if n := len(refs); n > 0 && refs[n-1].idx == i {
					refs[n-1].positions = append(refs[n-1].positions, int32(j))
				} else {
					p.posIndex[g] = append(refs, posPost{idx: i, positions: []int32{int32(j)}})
				}
			}
		}
	}
	return p
}

// gramPositions returns, per gram, the sorted start positions within the
// padded normalized string.
func gramPositions(text string, q int) map[string][]int32 {
	grams := tokenize.QGrams(text, q)
	out := make(map[string][]int32)
	for i, g := range grams {
		out[g] = append(out[g], int32(i))
	}
	return out
}

// matchWithin counts the maximum number of one-to-one gram-occurrence pairs
// whose positions differ by at most k. Both position lists are sorted; the
// greedy two-pointer scan is optimal for interval constraints.
func matchWithin(a, b []int32, k int) int {
	matched := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		d := int(a[i]) - int(b[j])
		switch {
		case d > k:
			j++
		case -d > k:
			i++
		default:
			matched++
			i++
			j++
		}
	}
	return matched
}

// Name implements core.Predicate.
func (p *EditDistance) Name() string { return "EditDistance" }

// selectOpts ranks records by edit similarity. With a positive threshold the
// q-gram filter prunes candidates before verification; with θ = 0 the whole
// base relation is scored exactly (used by the accuracy study, which does
// not threshold rankings). Candidate gram counts accumulate in a pooled
// dense scratch instead of a per-query map, and verified matches
// materialize straight into the result slice.
func (p *EditDistance) selectOpts(query string, opts core.SelectOptions) ([]core.Match, error) {
	qnorm := editNormalize(query, p.q)
	qlen := len([]rune(qnorm))

	if p.theta <= 0 {
		out := make([]core.Match, 0, len(p.recs))
		for i := range p.norm {
			sim := editSim(qnorm, qlen, p.norm[i])
			if !opts.Keeps(sim) {
				continue
			}
			out = append(out, core.Match{TID: p.recs[i].TID, Score: sim})
		}
		return core.FinishMatches(out, opts), nil
	}

	// Candidate generation: count matching grams. The positional variant
	// only counts occurrences whose positions are within the record's edit
	// budget (a strictly tighter, still false-negative-free filter); the
	// default counts multiset overlap.
	qcounts := tokenize.Counts(tokenize.QGrams(query, p.q))
	qgrams := 0
	for _, tf := range qcounts {
		qgrams += tf
	}
	kFor := func(idx int) int {
		dlen := len([]rune(p.norm[idx]))
		maxLen := qlen
		if dlen > maxLen {
			maxLen = dlen
		}
		return int((1 - p.theta) * float64(maxLen))
	}
	s := core.GetScratch(len(p.recs))
	defer s.Release()
	if p.positional {
		for t, qp := range gramPositions(query, p.q) {
			for _, post := range p.posIndex[t] {
				s.Add(int32(post.idx), float64(matchWithin(qp, post.positions, kFor(post.idx))))
			}
		}
	} else {
		for t, qtf := range qcounts {
			r, ok := p.raw.Rank(t)
			if !ok {
				continue
			}
			ids := p.raw.Postings[r]
			tf := p.tf[r][:len(ids)]
			for j, rec := range ids {
				s.Add(rec, float64(min(qtf, int(tf[j]))))
			}
		}
	}
	out := make([]core.Match, 0, len(s.Touched()))
	for _, rec := range s.Touched() {
		idx := int(rec)
		c := int(s.Val(rec))
		sim, ok := p.verify(qnorm, qlen, qgrams, idx, c)
		if !ok || !opts.Keeps(sim) {
			continue
		}
		out = append(out, core.Match{TID: p.recs[idx].TID, Score: sim})
	}
	return core.FinishMatches(out, opts), nil
}

// verify applies the length and count filters to one candidate and, when
// they pass, the banded dynamic program. ok reports whether the record
// survives with edit similarity ≥ θ.
func (p *EditDistance) verify(qnorm string, qlen, qgrams, idx, c int) (float64, bool) {
	dlen := len([]rune(p.norm[idx]))
	maxLen := qlen
	if dlen > maxLen {
		maxLen = dlen
	}
	if maxLen == 0 {
		return 1, true
	}
	k := int((1 - p.theta) * float64(maxLen))
	// Length filter.
	if abs(qlen-dlen) > k {
		return 0, false
	}
	// Count filter: one edit operation destroys at most q grams of the
	// padded gram multiset.
	maxG := qgrams
	if p.grams[idx] > maxG {
		maxG = p.grams[idx]
	}
	if c < maxG-k*p.q {
		return 0, false
	}
	d, ok := strutil.LevenshteinWithin(qnorm, p.norm[idx], k)
	if !ok {
		return 0, false
	}
	sim := 1 - float64(d)/float64(maxLen)
	return sim, sim >= p.theta
}

// selectNaive is the pre-optimization merge: per-query map accumulators,
// identical filters and verification.
func (p *EditDistance) selectNaive(query string, opts core.SelectOptions) ([]core.Match, error) {
	qnorm := editNormalize(query, p.q)
	qlen := len([]rune(qnorm))
	acc := accumulator{}

	if p.theta <= 0 {
		for i := range p.norm {
			acc[i] = editSim(qnorm, qlen, p.norm[i])
		}
		return acc.matches(p.recs, opts), nil
	}

	qcounts := tokenize.Counts(tokenize.QGrams(query, p.q))
	qgrams := 0
	for _, tf := range qcounts {
		qgrams += tf
	}
	kFor := func(idx int) int {
		dlen := len([]rune(p.norm[idx]))
		maxLen := qlen
		if dlen > maxLen {
			maxLen = dlen
		}
		return int((1 - p.theta) * float64(maxLen))
	}
	common := map[int]int{}
	if p.positional {
		for t, qp := range gramPositions(query, p.q) {
			for _, post := range p.posIndex[t] {
				common[post.idx] += matchWithin(qp, post.positions, kFor(post.idx))
			}
		}
	} else {
		for t, qtf := range qcounts {
			r, ok := p.raw.Rank(t)
			if !ok {
				continue
			}
			for j, rec := range p.raw.Postings[r] {
				common[int(rec)] += min(qtf, int(p.tf[r][j]))
			}
		}
	}
	for idx, c := range common {
		if sim, ok := p.verify(qnorm, qlen, qgrams, idx, c); ok {
			acc[idx] = sim
		}
	}
	return acc.matches(p.recs, opts), nil
}

// editSim computes the edit similarity against a normalized record.
func editSim(qnorm string, qlen int, dnorm string) float64 {
	dlen := len([]rune(dnorm))
	maxLen := qlen
	if dlen > maxLen {
		maxLen = dlen
	}
	if maxLen == 0 {
		return 1
	}
	return 1 - float64(strutil.Levenshtein(qnorm, dnorm))/float64(maxLen)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
