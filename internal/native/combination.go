package native

import (
	"math"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/minhash"
	"repro/internal/strutil"
	"repro/internal/tokenize"
)

// The combination predicates (§3.5, §4.5, Appendix B.4) work on word tokens
// and combine token-level weights with a character-level similarity. All of
// them upper-case word tokens, consistent with the q-gram tokenization the
// declarative framework applies to words (Appendix A.3). The word token
// tables, per-position idf weights, word q-gram sets and min-hash
// signatures are shared corpus layers, so the four predicates attach to one
// word tokenization pass.

func queryWords(query string) []string {
	return tokenize.Words(strings.ToUpper(query))
}

// GESCost computes the GES transformation cost tc(Q → D) of §3.5 with a
// token-sequence dynamic program: replacing q_i by d_j costs
// (1 − sim_edit(q_i,d_j))·w(q_i), inserting d_j costs c_ins·w(d_j), and
// deleting q_i costs w(q_i). It is exported so the declarative realization's
// UDF shares the exact same kernel.
func GESCost(qws []string, qWeights []float64, dws []string, dWeights []float64, cins float64) float64 {
	n, m := len(qws), len(dws)
	prev := make([]float64, m+1)
	cur := make([]float64, m+1)
	for j := 1; j <= m; j++ {
		prev[j] = prev[j-1] + cins*dWeights[j-1]
	}
	for i := 1; i <= n; i++ {
		cur[0] = prev[0] + qWeights[i-1]
		for j := 1; j <= m; j++ {
			repl := prev[j-1] + (1-strutil.EditSimilarity(qws[i-1], dws[j-1]))*qWeights[i-1]
			del := prev[j] + qWeights[i-1]
			ins := cur[j-1] + cins*dWeights[j-1]
			best := repl
			if del < best {
				best = del
			}
			if ins < best {
				best = ins
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

// GESScore turns a transformation cost into the similarity of Eq. 3.14.
func GESScore(cost, wtQ float64) float64 {
	if wtQ == 0 {
		return 0
	}
	frac := cost / wtQ
	if frac > 1 {
		frac = 1
	}
	return 1 - frac
}

// gesEval is the shared exact-GES scorer over the corpus's word layer: the
// per-position idf weight vectors and dictionary ranks are shared corpus
// state, only the cins parameter is per-attach.
type gesEval struct {
	recs  []core.Record
	w     *core.WordLayer
	idfw  [][]float64 // idf weight of every word position
	ranks [][]int32   // dictionary rank of every word position
	cins  float64
	sigs  []strutil.WordSig // dictionary word signatures by rank (exact GES only)
	// verified counts the records exact GES has scored with the dynamic
	// program, over every select: the work its record bound leaves.
	verified atomic.Int64
}

func newGESEval(s *core.Snapshot, cfg core.Config) *gesEval {
	return &gesEval{recs: s.Records, w: s.Words, idfw: s.Words.IDFWeights(), ranks: s.Words.PosRanks(), cins: cfg.GESCins}
}

// boundSlack is the margin by which a signature-derived upper bound must
// fall short of a cut before a record or word pair is skipped: the bounds
// hold in real arithmetic and are evaluated in floats.
const boundSlack = 1e-9

// queryWeights returns per-position idf weights and their sum for a query's
// word tokens; unseen tokens take the average idf (§4.5).
func (g *gesEval) queryWeights(qws []string) ([]float64, float64) {
	w := make([]float64, len(qws))
	wt := 0.0
	for i, t := range qws {
		w[i] = g.w.Stats.IDF(t)
		wt += w[i]
	}
	return w, wt
}

// scoreNaive is exact GES of one record on the per-record string-pair path:
// every (query word, record word position) pair calls the edit kernel. The
// naive oracles score with it, so the column path below is checked against
// an independent computation.
func (g *gesEval) scoreNaive(qws []string, qWeights []float64, wtQ float64, idx int) float64 {
	return GESScore(GESCost(qws, qWeights, g.w.Words[idx], g.idfw[idx], g.cins), wtQ)
}

// gesQuery is the per-query state of exact GES scoring: the query's
// weights, the similarity table of its distinct words, the table column of
// every query word position (positions repeating a word share a column) and
// the dynamic program's buffers.
type gesQuery struct {
	qWeights []float64
	wtQ      float64
	sims     *core.WordSims
	col      []int
	// noRecord is the program's first column, tc(q_1..q_i → nothing): the
	// same for every record. prev and cur are its two working columns.
	noRecord, prev, cur []float64
	// maxub holds, per distinct query word, the record bound's running
	// maximum over the record's words.
	maxub []float64
}

// begin checks out the similarity table of a query; distinctQ is
// tokenize.Distinct(qws). The caller releases q.sims.
func (g *gesEval) begin(qws, distinctQ []string, qWeights []float64, wtQ float64) gesQuery {
	n := len(qws)
	q := gesQuery{
		qWeights: qWeights,
		wtQ:      wtQ,
		sims:     core.GetWordSims(strutil.EditSimilarity, distinctQ, g.w.Stats.SortedTokens()),
		col:      make([]int, n),
	}
	buf := q.sims.Floats(3*(n+1) + len(distinctQ))
	q.noRecord, q.prev, q.cur, q.maxub = buf[:n+1], buf[n+1:2*(n+1)], buf[2*(n+1):3*(n+1)], buf[3*(n+1):]
	q.noRecord[0] = 0
	for i, t := range qws {
		q.col[i] = slices.Index(distinctQ, t)
		q.noRecord[i+1] = q.noRecord[i] + qWeights[i]
	}
	return q
}

// score is exact GES of one record. It fills the cells of GESCost's dynamic
// program with GESCost's expressions — so the cost has the same bits —
// but walks them record word by record word, reading sim_edit(q_i, d_j)
// from d_j's row of the similarity table instead of recomputing it at
// every position that holds the word.
func (g *gesEval) score(q *gesQuery, idx int) float64 {
	dWeights := g.idfw[idx]
	prev, cur := q.prev, q.cur
	copy(prev, q.noRecord)
	for j, sims := range q.sims.RowsOf(g.ranks[idx]) {
		insCost := g.cins * dWeights[j]
		cur[0] = prev[0] + insCost
		for i, wq := range q.qWeights {
			repl := prev[i] + (1-sims[q.col[i]])*wq
			del := cur[i] + wq
			ins := prev[i+1] + insCost
			best := repl
			if del < best {
				best = del
			}
			if ins < best {
				best = ins
			}
			cur[i+1] = best
		}
		prev, cur = cur, prev
	}
	return GESScore(prev[len(q.qWeights)], q.wtQ)
}

// bound is an upper bound of record idx's GES score read from the bound
// plane, where every query word's column holds an upper bound of its edit
// similarity to each dictionary word. Idf weights are non-negative and the
// dynamic program deletes or replaces each query word once, so q_i costs at
// least w(q_i)·(1 − max_j ub(q_i, d_j)); at most n record words are
// replaced, so at least (m − n)⁺ are inserted, each for at least
// c_ins·min_j w(d_j) (for a negative c_ins, every record word inserted is
// the least cost). GESScore over that cost clamps at 0 as the score does.
func (g *gesEval) bound(q *gesQuery, plane []float64, idx int) float64 {
	mx := q.maxub
	clear(mx)
	ranks, dWeights := g.ranks[idx], g.idfw[idx]
	minW, sumW := math.Inf(1), 0.0
	for j, r := range ranks {
		for c, ub := range plane[int(r)*len(mx):][:len(mx)] {
			if ub > mx[c] {
				mx[c] = ub
			}
		}
		minW = min(minW, dWeights[j])
		sumW += dWeights[j]
	}
	cost := 0.0
	for i, wq := range q.qWeights {
		cost += (1 - mx[q.col[i]]) * wq
	}
	if g.cins < 0 {
		cost += g.cins * sumW
	} else if extra := len(ranks) - len(q.qWeights); extra > 0 {
		cost += g.cins * minW * float64(extra)
	}
	return GESScore(cost, q.wtQ)
}

// attachGES is the exact generalized edit similarity predicate (Eq. 3.14).
// Exact scoring of every record is precisely the cost GESJaccard and GESapx
// were designed to avoid; under a limit or a threshold GES bounds every
// record first and scores only those the bound cannot rule out.
func attachGES(s *core.Snapshot, cfg core.Config) predicate {
	g := newExactGES(s, cfg)
	return predicate{sel: g.selectAll, naive: g.selectAllNaive}
}

// newExactGES is the scorer of exact GES: a gesEval that also holds the
// dictionary's word signatures its record bound reads.
func newExactGES(s *core.Snapshot, cfg core.Config) *gesEval {
	g := newGESEval(s, cfg)
	g.sigs = s.Words.WordSigs()
	return g
}

// selectAll ranks the base records by exact GES. An O(letters) signature
// bound of every (query word, dictionary word) pair gives each record an
// upper bound of its score (bound); records are scored in decreasing bound
// order until the bound falls below the cut — the threshold, or the k-th
// best score found so far — less boundSlack. A record left unscored scores
// strictly below the cut, so results, scores and ties are those of the full
// scan. With no limit and no threshold the cut stays at −∞ and every record
// is scored. The edit kernel runs only for the words of the records scored.
func (g *gesEval) selectAll(query string, opts core.SelectOptions) []core.Match {
	qws := queryWords(query)
	if len(qws) == 0 {
		return nil
	}
	qWeights, wtQ := g.queryWeights(qws)
	q := g.begin(qws, tokenize.Distinct(qws), qWeights, wtQ)
	defer q.sims.Release()
	plane := q.sims.EditBounds(g.sigs)
	cut := math.Inf(-1)
	if opts.HasThreshold {
		cut = opts.Threshold
	}
	cands := core.GetScratch(len(g.recs))
	defer cands.Release()
	for i := range g.recs {
		if u := g.bound(&q, plane, i); u >= cut-boundSlack {
			cands.Add(int32(i), u)
		}
	}
	top := core.NewTopK(opts.Limit, len(g.recs))
	scored := 0
	for rec, u := range cands.Descending() {
		if u < cut-boundSlack {
			break
		}
		score := g.score(&q, int(rec))
		scored++
		if !opts.Keeps(score) {
			continue
		}
		top.Push(core.Match{TID: g.recs[rec].TID, Score: score})
		if floor, full := top.Floor(); full && floor > cut {
			cut = floor
		}
	}
	g.verified.Add(int64(scored))
	return top.Ranked()
}

// selectAllNaive scores every record position by position on strings,
// through a map accumulator.
func (g *gesEval) selectAllNaive(query string, opts core.SelectOptions) []core.Match {
	qws := queryWords(query)
	if len(qws) == 0 {
		return nil
	}
	qWeights, wtQ := g.queryWeights(qws)
	acc := accumulator{}
	for i := range g.recs {
		acc[i] = g.scoreNaive(qws, qWeights, wtQ, i)
	}
	return acc.matches(g.recs, opts)
}

// gesFilter is the scorer of the two filtered GES predicates: candidates
// whose over-estimate of GES reaches θ are verified with exact GES.
// GESJaccard bounds each word similarity by the Jaccard coefficient of the
// words' q-gram sets (Eq. 4.7), over the corpus's word q-gram inverted
// index (core.LayerWordGrams). GESapx replaces it with a min-hash estimate
// (Eq. 4.8), trading accuracy for faster filtering; its signature index is
// shared corpus state (core.LayerSigs) and only the query-side hash family
// is reconstructed at attach (it is deterministic in k and seed). The
// first view to attach to a snapshot builds the snapshot's word index
// (core.WordLayer.Index), inside its timed weight phase; later views share
// it.
type gesFilter struct {
	ges    *gesEval
	idx    *core.WordIndex
	family *minhash.Family // nil for GESJaccard
	q      int
	theta  float64
}

func attachGESJaccard(s *core.Snapshot, cfg core.Config) predicate {
	return newGESFilter(s, cfg, nil).view()
}

func attachGESapx(s *core.Snapshot, cfg core.Config) predicate {
	return newGESFilter(s, cfg, minhash.NewFamily(cfg.MinHashSize(), cfg.MinHashSeed)).view()
}

func newGESFilter(s *core.Snapshot, cfg core.Config, family *minhash.Family) *gesFilter {
	return &gesFilter{ges: newGESEval(s, cfg), idx: s.Words.Index(), family: family, q: cfg.WordQ, theta: cfg.GESThreshold}
}

func (f *gesFilter) view() predicate { return predicate{sel: f.selectOpts, naive: f.selectNaive} }

// estimate turns c, the match count of word wid, into the filter's word
// similarity: the Jaccard coefficient of the q-gram sets, or the share of
// agreeing signature slots.
func (f *gesFilter) estimate(c float64, grams int, wid int32) float64 {
	if f.family == nil {
		return c / (float64(grams+int(f.idx.GramSizeOf[wid])) - c)
	}
	return c / float64(f.family.K())
}

// selectOpts generates candidates whose estimate reaches θ, then ranks them
// by exact GES score. Per-word match counts accumulate in a dense scratch
// over the corpus's flat word-id space, and the per-record maxsim rows live
// in a second scratch's flat stride buffer — the former WordRef- and
// record-keyed maps of this filter, pooled and reused.
func (f *gesFilter) selectOpts(query string, opts core.SelectOptions) []core.Match {
	qws := queryWords(query)
	if len(qws) == 0 {
		return nil
	}
	qWeights, wtQ := f.ges.queryWeights(qws)
	if wtQ == 0 {
		return nil
	}
	w := f.idx
	distinctQ := tokenize.Distinct(qws)
	ws := core.GetScratch(w.WordTotal)
	rs := core.GetScratch(len(f.ges.recs))
	defer ws.Release()
	defer rs.Release()
	for qi, t := range distinctQ {
		grams := tokenize.Distinct(tokenize.WordQGrams(t, f.q))
		ws.Reset(w.WordTotal)
		// Count each word's matches: shared q-grams for GESJaccard, agreeing
		// signature slots for GESapx.
		if f.family == nil {
			for _, g := range grams {
				for _, wid := range w.GramRefs(g) {
					ws.Add(wid, 1)
				}
			}
		} else {
			for slot, v := range f.family.Signature(grams) {
				for _, wid := range w.SigRefs(core.SigKey{Slot: slot, Value: v}) {
					ws.Add(wid, 1)
				}
			}
		}
		for _, wid := range ws.Touched() {
			sim := f.estimate(ws.Val(wid), len(grams), wid)
			row := rs.RowFor(w.WordRecOf[wid], len(distinctQ))
			if sim > row[qi] {
				row[qi] = sim
			}
		}
	}
	return f.verify(rs, distinctQ, qws, qWeights, wtQ, opts)
}

// verify evaluates the Fig. 4.6 filter score over matched query words only
// and verifies survivors with exact GES. The similarity columns fill on
// first read, so verification pays the edit kernel only for the words the
// survivors hold.
func (f *gesFilter) verify(rs *core.Scratch, distinctQ, qws []string, qWeights []float64, wtQ float64, opts core.SelectOptions) []core.Match {
	dq := 1 - 1.0/float64(f.q)
	twoOverQ := 2.0 / float64(f.q)
	idf := make([]float64, len(distinctQ))
	for qi, t := range distinctQ {
		idf[qi] = f.ges.w.Stats.IDF(t)
	}
	gq := f.ges.begin(qws, distinctQ, qWeights, wtQ)
	defer gq.sims.Release()
	out := make([]core.Match, 0, len(rs.Touched()))
	for _, rec := range rs.Touched() {
		ms := rs.RowFor(rec, len(distinctQ))
		score := 0.0
		for qi := range distinctQ {
			if ms[qi] == 0 {
				continue
			}
			score += idf[qi] * (twoOverQ*ms[qi] + dq)
		}
		score = (1.0 / wtQ) * score // match the SQL plan's association order
		if score >= f.theta {
			g := f.ges.score(&gq, int(rec))
			if opts.Keeps(g) {
				out = append(out, core.Match{TID: f.ges.recs[rec].TID, Score: g})
			}
		}
	}
	return core.FinishMatches(out, opts)
}

// selectNaive is the pre-optimization filter: word-id- and record-keyed
// maps allocated per query.
func (f *gesFilter) selectNaive(query string, opts core.SelectOptions) []core.Match {
	qws := queryWords(query)
	if len(qws) == 0 {
		return nil
	}
	qWeights, wtQ := f.ges.queryWeights(qws)
	if wtQ == 0 {
		return nil
	}
	w := f.idx
	dq := 1 - 1.0/float64(f.q)
	twoOverQ := 2.0 / float64(f.q)

	// maxsim per record per distinct query word.
	maxsim := map[int][]float64{}
	distinctQ := tokenize.Distinct(qws)
	for qi, t := range distinctQ {
		grams := tokenize.Distinct(tokenize.WordQGrams(t, f.q))
		common := map[int32]int{}
		if f.family == nil {
			for _, g := range grams {
				for _, wid := range w.GramRefs(g) {
					common[wid]++
				}
			}
		} else {
			for slot, v := range f.family.Signature(grams) {
				for _, wid := range w.SigRefs(core.SigKey{Slot: slot, Value: v}) {
					common[wid]++
				}
			}
		}
		for wid, c := range common {
			sim := f.estimate(float64(c), len(grams), wid)
			rec := int(w.WordRecOf[wid])
			ms, ok := maxsim[rec]
			if !ok {
				ms = make([]float64, len(distinctQ))
				maxsim[rec] = ms
			}
			if sim > ms[qi] {
				ms[qi] = sim
			}
		}
	}

	// Filter score over matched query words only (Fig. 4.6's SQL shape).
	acc := accumulator{}
	for rec, ms := range maxsim {
		score := 0.0
		for qi, t := range distinctQ {
			if ms[qi] == 0 {
				continue
			}
			score += f.ges.w.Stats.IDF(t) * (twoOverQ*ms[qi] + dq)
		}
		score = (1.0 / wtQ) * score // match the SQL plan's association order
		if score >= f.theta {
			acc[rec] = f.ges.scoreNaive(qws, qWeights, wtQ, rec)
		}
	}
	return acc.matches(f.ges.recs, opts)
}

// softTFIDF is the scorer of SoftTFIDF, which combines normalized tf-idf
// word weights with Jaro–Winkler word-level similarity (Eq. 3.15), the
// configuration Cohen et al. found strongest and the paper confirms
// (§5.3.2). Its per-record weight maps are shared corpus state
// (core.LayerWordTFIDF).
type softTFIDF struct {
	recs  []core.Record
	w     *core.WordLayer
	tfidf [][]float64       // normalized tf-idf weight of every word position
	ranks [][]int32         // dictionary rank of every word position
	sigs  []strutil.WordSig // dictionary word signatures by rank
	theta float64
}

func attachSoftTFIDF(s *core.Snapshot, cfg core.Config) predicate {
	p := &softTFIDF{recs: s.Records, w: s.Words, tfidf: s.Words.TFIDF(), ranks: s.Words.PosRanks(), sigs: s.Words.WordSigs(), theta: cfg.SoftTFIDFTheta}
	return predicate{sel: p.selectOpts, naive: p.selectNaive}
}

// queryPlan tokenizes and weighs a query: the known query words in the
// corpus's sorted word order, their normalized tf-idf weights and their
// frequencies in the query. ok is false for a query without words.
func (p *softTFIDF) queryPlan(query string) (ordered []string, qw map[string]float64, qcounts map[string]int, ok bool) {
	qws := queryWords(query)
	if len(qws) == 0 {
		return nil, nil, nil, false
	}
	qcounts = tokenize.Counts(qws)
	qw = p.w.Stats.TFIDF(qcounts)
	return p.w.OrderedKnownWeights(qw), qw, qcounts, true
}

// selectOpts ranks records by Eq. 3.15: for every query word within θ of some
// record word (CLOSE set), the contribution is w_q(t)·w_d(argmax)·maxsim.
// Multiplicities follow the declarative cross-product: repeated query or
// record word occurrences contribute repeatedly, and argmax ties all count.
//
// Jaro–Winkler is read from the query words' similarity columns at the
// record words' dictionary ranks. The columns are filled for the whole
// dictionary at once, and the kernel runs only on the pairs whose signature
// bound reaches θ less boundSlack; the others hold 0. Eq. 3.15 never reads a
// value below θ — it only tests sim ≥ θ and compares with a maximum that
// passed the test — so every score keeps its bits. A record none of whose
// words is CLOSE to a query word matches nothing, so only records holding a
// CLOSE word are scored.
func (p *softTFIDF) selectOpts(query string, opts core.SelectOptions) []core.Match {
	ordered, qw, qcounts, ok := p.queryPlan(query)
	if !ok {
		return nil
	}
	sims := core.GetWordSims(strutil.JaroWinkler, ordered, p.w.Stats.SortedTokens())
	defer sims.Release()
	sims.FillJaroWinkler(p.sigs, p.theta-boundSlack)
	close := core.GetScratch(len(p.sigs))
	defer close.Release()
	for r := range p.sigs {
		for _, sim := range sims.Row(int32(r)) {
			if sim >= p.theta && sim > 0 {
				close.Add(int32(r), 1)
				break
			}
		}
	}
	coef := make([]float64, len(ordered)) // query-side factor qtf·w_q(t)
	for k, t := range ordered {
		coef[k] = float64(qcounts[t]) * qw[t]
	}
	top := core.NewTopK(opts.Limit, len(p.recs))
	for i, ranks := range p.ranks {
		if !slices.ContainsFunc(ranks, close.Stamped) {
			continue
		}
		if total, matched := p.scoreRecord(i, sims, coef); matched && opts.Keeps(total) {
			top.Push(core.Match{TID: p.recs[i].TID, Score: total})
		}
	}
	return top.Ranked()
}

// scoreRecord evaluates Eq. 3.15 for one record, reading Jaro–Winkler from
// the record words' rows of the query's similarity table.
func (p *softTFIDF) scoreRecord(i int, sims *core.WordSims, coef []float64) (float64, bool) {
	rows, weights := sims.RowsOf(p.ranks[i]), p.tfidf[i]
	total := 0.0
	matched := false
	for k := range coef {
		maxsim := 0.0
		for _, row := range rows {
			if sim := row[k]; sim >= p.theta && sim > maxsim {
				maxsim = sim
			}
		}
		if maxsim == 0 {
			continue
		}
		matched = true
		for j, row := range rows {
			if row[k] == maxsim {
				total += coef[k] * weights[j] * maxsim
			}
		}
	}
	return total, matched
}

// scoreRecordNaive evaluates Eq. 3.15 for one record on the string-pair
// path: Jaro–Winkler is called for every (query word, record word position)
// pair, twice.
func (p *softTFIDF) scoreRecordNaive(i int, ordered []string, qw map[string]float64, qcounts map[string]int) (float64, bool) {
	recWords := p.w.Words[i]
	if len(recWords) == 0 {
		return 0, false
	}
	total := 0.0
	matched := false
	for _, t := range ordered {
		wq := qw[t]
		maxsim := 0.0
		for _, r := range recWords {
			if sim := strutil.JaroWinkler(t, r); sim >= p.theta && sim > maxsim {
				maxsim = sim
			}
		}
		if maxsim == 0 {
			continue
		}
		matched = true
		qtf := float64(qcounts[t])
		for j, r := range recWords {
			if strutil.JaroWinkler(t, r) == maxsim {
				total += qtf * wq * p.tfidf[i][j] * maxsim
			}
		}
	}
	return total, matched
}

// selectNaive is the pre-optimization scan: per-position string kernels
// merged through a map accumulator.
func (p *softTFIDF) selectNaive(query string, opts core.SelectOptions) []core.Match {
	ordered, qw, qcounts, ok := p.queryPlan(query)
	if !ok {
		return nil
	}
	acc := accumulator{}
	for i := range p.recs {
		if total, matched := p.scoreRecordNaive(i, ordered, qw, qcounts); matched {
			acc[i] = total
		}
	}
	return acc.matches(p.recs, opts)
}
