package native

import (
	"repro/internal/core"
	"repro/internal/strutil"
	"repro/internal/tokenize"
)

// edit is the scorer of the edit-based predicate (§3.4/§4.4): records are
// ranked by edit similarity 1 − d/max(|Q|,|D|). Following Gravano et al.
// [11], a q-gram candidate filter (count + length filtering, no false
// negatives) narrows the base relation before exact verification with a
// banded dynamic program, when a similarity threshold θ is configured.
//
// Both the filter and the verified distance operate on the edit-normalized
// string (upper-cased, whitespace runs replaced by the q-gram pad sequence)
// so the filter's no-false-negative guarantee is exact for the similarity
// actually scored. The gram index reads the corpus's *unpruned* layer:
// IDF pruning would break the no-false-negative guarantee (§5.6 notes
// pruning suits weighted predicates).
type edit struct {
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

func attachEditDistance(s *core.Snapshot, cfg core.Config) predicate {
	raw := s.RawGrams
	e := &edit{
		recs:       s.Records,
		raw:        raw,
		q:          cfg.Q,
		theta:      cfg.EditTheta,
		positional: cfg.EditPositional,
		norm:       s.Norms,
		grams:      raw.DL,
	}
	if !e.positional {
		e.tf = raw.TF()
	} else {
		// The corpus's gram slice is in occurrence order, so position j of
		// Docs[i] is the j-th gram start — no re-tokenization needed.
		e.posIndex = make(map[string][]posPost)
		for i := range raw.Docs {
			for j, g := range raw.Docs[i] {
				refs := e.posIndex[g]
				if n := len(refs); n > 0 && refs[n-1].idx == i {
					refs[n-1].positions = append(refs[n-1].positions, int32(j))
				} else {
					e.posIndex[g] = append(refs, posPost{idx: i, positions: []int32{int32(j)}})
				}
			}
		}
	}
	return predicate{sel: e.selectOpts, naive: e.selectNaive}
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

// budget is the edit budget k = ⌊(1 − θ)·max(|Q|,|D|)⌋ of record idx.
func (e *edit) budget(qlen, idx int) int {
	return int((1 - e.theta) * float64(max(qlen, len([]rune(e.norm[idx])))))
}

// selectOpts ranks records by edit similarity. With a positive threshold the
// q-gram filter prunes candidates before verification; with θ = 0 the whole
// base relation is scored exactly (used by the accuracy study, which does
// not threshold rankings). Candidate gram counts accumulate in a pooled
// dense scratch instead of a per-query map, and verified matches
// materialize straight into the result slice.
func (e *edit) selectOpts(query string, opts core.SelectOptions) []core.Match {
	qnorm := tokenize.EditNormalize(query, e.q)
	qlen := len([]rune(qnorm))

	if e.theta <= 0 {
		out := make([]core.Match, 0, len(e.recs))
		for i := range e.norm {
			sim := editSim(qnorm, qlen, e.norm[i])
			if !opts.Keeps(sim) {
				continue
			}
			out = append(out, core.Match{TID: e.recs[i].TID, Score: sim})
		}
		return core.FinishMatches(out, opts)
	}

	// Candidate generation: count matching grams. The positional variant
	// only counts occurrences whose positions are within the record's edit
	// budget (a strictly tighter, still false-negative-free filter); the
	// default counts multiset overlap.
	qcounts := tokenize.Counts(tokenize.QGrams(query, e.q))
	qgrams := 0
	for _, tf := range qcounts {
		qgrams += tf
	}
	s := core.GetScratch(len(e.recs))
	defer s.Release()
	if e.positional {
		for t, qp := range gramPositions(query, e.q) {
			for _, post := range e.posIndex[t] {
				s.Add(int32(post.idx), float64(matchWithin(qp, post.positions, e.budget(qlen, post.idx))))
			}
		}
	} else {
		for t, qtf := range qcounts {
			r, ok := e.raw.Rank(t)
			if !ok {
				continue
			}
			ids := e.raw.Postings[r]
			tf := e.tf[r][:len(ids)]
			for j, rec := range ids {
				s.Add(rec, float64(min(qtf, int(tf[j]))))
			}
		}
	}
	out := make([]core.Match, 0, len(s.Touched()))
	for _, rec := range s.Touched() {
		idx := int(rec)
		c := int(s.Val(rec))
		sim, ok := e.verify(qnorm, qlen, qgrams, idx, c)
		if !ok || !opts.Keeps(sim) {
			continue
		}
		out = append(out, core.Match{TID: e.recs[idx].TID, Score: sim})
	}
	return core.FinishMatches(out, opts)
}

// verify applies the length and count filters to one candidate and, when
// they pass, the banded dynamic program. ok reports whether the record
// survives with edit similarity ≥ θ.
func (e *edit) verify(qnorm string, qlen, qgrams, idx, c int) (float64, bool) {
	dlen := len([]rune(e.norm[idx]))
	maxLen := max(qlen, dlen)
	if maxLen == 0 {
		return 1, true
	}
	k := int((1 - e.theta) * float64(maxLen))
	// Length filter.
	if maxLen-min(qlen, dlen) > k {
		return 0, false
	}
	// Count filter: one edit operation destroys at most q grams of the
	// padded gram multiset.
	if c < max(qgrams, e.grams[idx])-k*e.q {
		return 0, false
	}
	d, ok := strutil.LevenshteinWithin(qnorm, e.norm[idx], k)
	if !ok {
		return 0, false
	}
	sim := 1 - float64(d)/float64(maxLen)
	return sim, sim >= e.theta
}

// selectNaive is the pre-optimization merge: per-query map accumulators,
// identical filters and verification.
func (e *edit) selectNaive(query string, opts core.SelectOptions) []core.Match {
	qnorm := tokenize.EditNormalize(query, e.q)
	qlen := len([]rune(qnorm))
	acc := accumulator{}

	if e.theta <= 0 {
		for i := range e.norm {
			acc[i] = editSim(qnorm, qlen, e.norm[i])
		}
		return acc.matches(e.recs, opts)
	}

	qcounts := tokenize.Counts(tokenize.QGrams(query, e.q))
	qgrams := 0
	for _, tf := range qcounts {
		qgrams += tf
	}
	common := map[int]int{}
	if e.positional {
		for t, qp := range gramPositions(query, e.q) {
			for _, post := range e.posIndex[t] {
				common[post.idx] += matchWithin(qp, post.positions, e.budget(qlen, post.idx))
			}
		}
	} else {
		for t, qtf := range qcounts {
			r, ok := e.raw.Rank(t)
			if !ok {
				continue
			}
			for j, rec := range e.raw.Postings[r] {
				common[int(rec)] += min(qtf, int(e.tf[r][j]))
			}
		}
	}
	for idx, c := range common {
		if sim, ok := e.verify(qnorm, qlen, qgrams, idx, c); ok {
			acc[idx] = sim
		}
	}
	return acc.matches(e.recs, opts)
}

// editSim computes the edit similarity against a normalized record.
func editSim(qnorm string, qlen int, dnorm string) float64 {
	maxLen := max(qlen, len([]rune(dnorm)))
	if maxLen == 0 {
		return 1
	}
	return 1 - float64(strutil.Levenshtein(qnorm, dnorm))/float64(maxLen)
}
