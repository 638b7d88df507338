package core

import (
	"math"
	"math/bits"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// This file implements the score-at-a-time selection hot path shared by the
// native predicates: a dense term-at-a-time merge over precomputed posting
// lists, driven in descending-impact token order with max-score early
// termination (Turtle & Flood style, exact results only).
//
// The contract is strict exactness: for any options, the result is
// bit-identical — scores and tie order — to NaiveTermSelect over the same
// terms, which performs the classic full map merge. Pruning only ever
// avoids work whose absence is provable from precomputed per-list weight
// bounds, and only where avoiding it is cheaper than doing it:
//
//   - While "admission" is open, the plain accumulate loop applies every
//     posting of every list; nothing else happens per posting.
//   - At a list boundary the engine knows an upper bound on the score any
//     not-yet-touched record could still reach (the suffix sum of per-list
//     maxima, plus the best per-record offset). Once it falls strictly
//     below the floor — the pushed-down threshold, an O(1) test, or the
//     k-th best candidate key, a scan of the candidates taken only when
//     the scan budget allows — no new record can enter the result, and
//     admission closes.
//   - After closure the candidates that cannot reach the result are
//     dropped, and a remaining list gets the cheaper update-only walk or —
//     when lookups by the survivors cost less — is skipped entirely, their
//     contributions recovered by binary search into the (record-sorted)
//     list: every reported score still sums exactly the same contributions
//     in the same order.

// Term is one query token's posting-list contribution to a selection. Ids
// is the posting list, sorted by ascending record position (the layer's
// shared id list). W == nil means unweighted: every posting contributes Q.
// Otherwise W is the weight column aligned with Ids, index for index, and
// posting j contributes Q·W[j].
type Term struct {
	// Q is the query-side factor of the token.
	Q   float64
	Ids []int32
	W   []float64
	// MaxW and MinW bound the record-side weights of W (ignored when W is
	// nil: the implicit weight is 1). They are the precomputed per-rank
	// bound columns of the corpus snapshot or the attach-time weight tables.
	MaxW, MinW float64
}

// bounds returns the per-record contribution bounds of the term: ub ≥ any
// single record's gain from this list (clamped at 0 — absent records gain
// nothing), lb ≤ any single record's gain (clamped at 0).
func (t *Term) bounds() (ub, lb float64) {
	var hi, lo float64
	if t.W == nil {
		hi, lo = t.Q, t.Q
	} else {
		hi, lo = t.Q*t.MaxW, t.Q*t.MinW
		if lo > hi {
			hi, lo = lo, hi
		}
	}
	return math.Max(0, hi), math.Min(0, lo)
}

func (t *Term) size() int { return len(t.Ids) }

// OrderTermsByImpact sorts terms by decreasing contribution upper bound,
// keeping the original (token-rank) order for ties. Both the optimized and
// the naive reference paths run over this order, so per-record
// floating-point accumulation order — and therefore every score bit — is
// shared by construction.
func OrderTermsByImpact(terms []Term) {
	slices.SortStableFunc(terms, func(a, b Term) int {
		ua, _ := a.bounds()
		ub, _ := b.bounds()
		switch {
		case ua > ub:
			return -1
		case ua < ub:
			return 1
		}
		return 0
	})
}

// Shape maps a record's accumulated mass to its final score. The zero
// value is the identity (score = accumulated sum).
type Shape struct {
	// Comp is a per-record additive offset applied before Exp (the LM
	// predicate's Σ log(1−pm) column); CompMax is its maximum over records
	// that can appear in a posting list — the snapshot bound column.
	Comp    []float64
	CompMax float64
	// Exp applies exp() to the offset sum (LM, HMM).
	Exp bool
	// Skip, when non-nil, marks records that are never part of a result
	// however they accumulate (PostTable.Skip). Their aligned weights are
	// 0, so their key is 0 — never above a candidate's in a family whose
	// weights are non-negative, which is the only one that sets Skip: as a
	// floor witness a skipped record can only lower the floor.
	Skip []bool
	// Den switches to the ratio family (Jaccard, WeightedJaccard):
	// score = acc / (Den[rec] + QSide − acc), with DenMin the precomputed
	// minimum of Den over records. DenAtLeastAcc declares Den[rec] ≥ acc
	// for every reachable record (true for Jaccard, where the denominator
	// column counts a superset of the intersection), which tightens the
	// admission bound.
	Den           []float64
	DenMin        float64
	DenAtLeastAcc bool
	QSide         float64
}

func (sh *Shape) ratio() bool { return sh.Den != nil }

// pruneSlack is the relative safety margin applied to every pruning
// comparison. The suffix bounds and a candidate's own accumulation sum the
// same contributions in different association orders, so either float
// result may exceed the other by a few ulps (~2^-52 relative per
// addition); likewise exp/log are not exact inverses when a threshold is
// mapped into key space. Widening the bound side by 1e-12 — orders of
// magnitude above the achievable rounding error for any realistic term
// count, immeasurably below any real floor gap — makes every skip
// decision rigorous: rounding can only make pruning less aggressive,
// never drop a record the naive merge would keep.
const pruneSlack = 1e-12

// upBound inflates an upper bound computed from x (whose magnitude also
// caps the summation error of what it bounds).
func upBound(x, scale float64) float64 {
	return x + pruneSlack*(math.Abs(x)+math.Abs(scale)+1)
}

// downBound deflates a lower bound symmetrically.
func downBound(x, scale float64) float64 {
	return x - pruneSlack*(math.Abs(x)+math.Abs(scale)+1)
}

// final computes the exact final score of a touched record; ok=false drops
// the record (the ratio family's zero-denominator guard).
func (sh *Shape) final(rec int32, acc float64) (float64, bool) {
	if sh.Skip != nil && sh.Skip[rec] {
		return 0, false
	}
	if sh.Den != nil {
		den := sh.Den[rec] + sh.QSide - acc
		if den == 0 {
			return 0, false
		}
		return acc / den, true
	}
	k := acc
	if sh.Comp != nil {
		k += sh.Comp[rec]
	}
	if sh.Exp {
		return math.Exp(k), true
	}
	return k, true
}

// ratioBound returns an upper bound on the final score of any not-yet
// touched record whose remaining accumulable mass is at most x. +Inf means
// no finite bound is provable (pruning stays off).
func (sh *Shape) ratioBound(x float64) float64 {
	if sh.QSide <= 0 {
		return math.Inf(1)
	}
	if sh.DenAtLeastAcc && x > sh.QSide {
		x = sh.QSide
	}
	dm := sh.DenMin
	if sh.DenAtLeastAcc && x > dm {
		dm = x
	}
	den := dm + sh.QSide - x
	if den <= 0 {
		return math.Inf(1)
	}
	return x / den
}

// ---- engine ----

// The engine prices its work in postings walked. BenchmarkEngineWalkVsLookup
// measures the unit operations (2-core sandbox, lists of 500 / 4 000 /
// 30 000 postings over 40 000 records): an admission-open walk costs
// 1.8–2.2 ns per posting, an update-only walk 0.8–1.1 ns, one binary-search
// step 5.9–7.1 ns (a cache miss and a mispredicted branch), a floor scan or
// a compaction 1.2–1.8 ns per candidate.
const (
	// lookupStepCost prices one binary-search step of finishByLookup against
	// the posting of the update-only walk it replaces.
	lookupStepCost = 6
	// scanShare bounds what floor scans and compactions may cost: one scan
	// of the candidates at most 1/scanShare of the postings still to walk,
	// all scans of a query at most 1/scanShare of its postings — a query
	// whose scans never pay loses at most a quarter of a full walk.
	scanShare = 4
	// floorScans is the room a floor scan needs in that budget: it buys
	// nothing unless it closes admission, which costs a compaction more.
	// With room for fewer than eight scans, floors taken on the dirty DBLP
	// relation cost more than they saved (README, "Max-score").
	floorScans = 8
	// scanRetry is how far the suffix bound has to fall after a scan of the
	// candidates before another one can tell anything new.
	scanRetry = 0.75
)

// lookupCost prices finishing a list by lookup: per candidate, the steps of
// one binary search plus the compaction pass that precedes it. A list is
// skipped when that is less than its postings, the price of walking it.
func lookupCost(candidates, posts int) int {
	return candidates * ((bits.Len(uint(posts))+1)*lookupStepCost + 1)
}

// MaxScoreSelect runs the score-at-a-time merge over terms (already in
// OrderTermsByImpact order) and returns the ranked matches under opts.
// The scratch must have been Reset for len(recs) records (GetScratch does).
func MaxScoreSelect(s *Scratch, recs []Record, terms []Term, sh Shape, opts SelectOptions) []Match {
	// Stage attribution (accumulator merge vs. materialize) feeds the
	// tracer's per-stage aggregates. The guard is one atomic load; with
	// tracing disabled (the default) the engine pays nothing else — the
	// allocation test asserts this path stays map- and alloc-free.
	traced := obs.TracingEnabled()
	var t0 time.Time
	if traced {
		t0 = time.Now()
	}
	pos, neg, posts := s.suffixBounds(terms)
	rem := posts // postings of terms[i:]

	// Threshold in key space for the additive family: a key strictly below
	// thKey has a final score provably below θ. The conversion is deflated
	// by the pruning slack because log/exp are not exact inverses.
	thKey := math.Inf(-1)
	switch {
	case !opts.HasThreshold || sh.ratio():
	case !sh.Exp:
		thKey = downBound(opts.Threshold, 0)
	case opts.Threshold > 0:
		thKey = downBound(math.Log(opts.Threshold), 0)
	}
	// The top-k floor closes admission for the additive family only.
	k := 0
	if !sh.ratio() {
		k = opts.Limit
	}
	// scanAt is the suffix bound below which the next scan of the
	// candidates (a floor, or a compaction after closure) may run. A key
	// cannot exceed the mass already processed, so no floor beats the
	// unseen bound before half the mass is behind.
	scanAt := pos[0] / 2

	closed := false
	work, scanned := 0, 0
	var skipped, updateOnly, postsSkipped uint64
	for i := range terms {
		t := &terms[i]
		n := t.size()
		c := len(s.touched)
		// room is what a scan of the candidates may cost at this boundary.
		room := min(rem, posts-scanShare*scanned) / scanShare
		compact := false
		if !closed {
			// Admission closes when no unseen record can reach the result —
			// and only if the compaction that follows fits the budget.
			switch {
			case sh.ratio():
				closed = opts.HasThreshold && c <= room &&
					upBound(sh.ratioBound(upBound(pos[i], pos[i])), 0) < opts.Threshold
			case upBound(pos[i]+sh.CompMax, pos[i]) < thKey:
				closed = c <= room
			case k > 0 && c >= k && pos[i] < scanAt && floorScans*c <= room:
				scanned += c
				scanAt = pos[i] * scanRetry
				closed = upBound(pos[i]+sh.CompMax, pos[i]) < downBound(s.kthKey(sh.Comp, k)+neg[i], neg[i])
			}
			compact = closed
		} else {
			// A lookup's price includes the compaction before it; before a
			// walk a compaction, which may flip the list to a lookup, runs
			// once the bound has moved and the budget allows.
			compact = lookupCost(c, n) < n || (pos[i] < scanAt && c <= room)
		}
		if compact {
			s.compactCandidates(&sh, opts, pos[i], neg[i], thKey, k)
			scanned += c
			scanAt = pos[i] * scanRetry
			c = len(s.touched)
		}
		switch {
		case !closed:
			s.walkFull(t)
			work += n
		case lookupCost(c, n) < n:
			s.finishByLookup(t)
			work += lookupCost(c, n) - c // the compaction is in scanned
			skipped++
			postsSkipped += uint64(n)
		default:
			s.walkUpdateOnly(t)
			work += n
			updateOnly++
		}
		rem -= n
	}
	s.work = work + scanned

	var t1 time.Time
	if traced {
		t1 = time.Now()
	}
	out := s.materialize(recs, &sh, opts, thKey)
	if traced {
		t2 := time.Now()
		obs.RecordStage("engine.accumulate", t1.Sub(t0))
		obs.RecordStage("engine.materialize", t2.Sub(t1))
	}

	hotPath.queries.Add(1)
	hotPath.lists.Add(uint64(len(terms)))
	if closed {
		hotPath.prunedQueries.Add(1)
		hotPath.listsSkipped.Add(skipped)
		hotPath.listsUpdateOnly.Add(updateOnly)
		hotPath.postingsSkipped.Add(postsSkipped)
	}
	s.terms = terms[:0]
	return out
}

// NaiveTermSelect is the reference merge the optimized engine is
// differential-tested against, and the "old" side of BENCH_hotpath.json:
// a per-query map accumulator over every posting of every term, fully
// materialized, then sorted and truncated. Because it visits the same
// contributions in the same term order as MaxScoreSelect, the two paths
// agree bit for bit.
func NaiveTermSelect(recs []Record, terms []Term, sh Shape, opts SelectOptions) []Match {
	acc := make(map[int32]float64)
	for i := range terms {
		t := &terms[i]
		for j, r := range t.Ids {
			if t.W == nil {
				acc[r] += t.Q
			} else {
				acc[r] += t.Q * t.W[j]
			}
		}
	}
	out := make([]Match, 0, len(acc))
	for r, a := range acc {
		score, ok := sh.final(r, a)
		if !ok || !opts.Keeps(score) {
			continue
		}
		out = append(out, Match{TID: recs[r].TID, Score: score})
	}
	return FinishMatches(out, opts)
}

// suffixBounds fills the scratch's suffix arrays: pos[i] (neg[i]) is the
// summed positive (negative) contribution bound of terms[i:]. posts is the
// summed length of all lists.
func (s *Scratch) suffixBounds(terms []Term) (pos, neg []float64, posts int) {
	nt := len(terms)
	if cap(s.pos) < nt+1 {
		s.pos = make([]float64, nt+1)
		s.neg = make([]float64, nt+1)
	}
	pos = s.pos[:nt+1]
	neg = s.neg[:nt+1]
	pos[nt], neg[nt] = 0, 0
	for i := nt - 1; i >= 0; i-- {
		ub, lb := terms[i].bounds()
		pos[i] = pos[i+1] + ub
		neg[i] = neg[i+1] + lb
		posts += terms[i].size()
	}
	return pos, neg, posts
}

// walkFull is the admission-open accumulate loop: Scratch.Add per posting,
// without its branch — mid-query, whether a record is a candidate already
// is a coin flip. The record is stored at the end of the touched list, which
// grows only if the stamp was stale (Reset keeps a spare cell), and a stale
// accumulator is masked to +0 before the add: 0 + w, exactly what the
// reference merge computes for a first contribution. A weighted list reads
// its ids and the weight column side by side, the column resliced to the
// ids' length so the loop carries no bounds check.
func (s *Scratch) walkFull(t *Term) {
	f, stamp, cur, q, ids := s.f, s.stamp, s.cur, t.Q, t.Ids
	touched := s.touched[:cap(s.touched)]
	nt := len(s.touched)
	if t.W == nil {
		for _, r := range ids {
			fresh := 0
			if stamp[r] != cur {
				fresh = 1
			}
			touched[nt] = r
			nt += fresh
			stamp[r] = cur
			f[r] = math.Float64frombits(math.Float64bits(f[r])&(uint64(fresh)-1)) + q
		}
	} else {
		w := t.W[:len(ids)]
		for j, r := range ids {
			fresh := 0
			if stamp[r] != cur {
				fresh = 1
			}
			touched[nt] = r
			nt += fresh
			stamp[r] = cur
			f[r] = math.Float64frombits(math.Float64bits(f[r])&(uint64(fresh)-1)) + q*w[j]
		}
	}
	s.touched = touched[:nt]
}

// walkUpdateOnly accumulates a list after admission has closed, without
// the stamp test: the accumulator cell of a record that is not a candidate
// holds nothing anybody reads (a first touch stores, it never adds), so
// adding into it is harmless, and the loop has no branch to mispredict.
func (s *Scratch) walkUpdateOnly(t *Term) {
	f, q, ids := s.f, t.Q, t.Ids
	if t.W == nil {
		for _, r := range ids {
			f[r] += q
		}
		return
	}
	w := t.W[:len(ids)]
	for j, r := range ids {
		f[r] += q * w[j]
	}
}

// key is a candidate's rank in the additive family: its accumulated mass
// plus its Comp offset, the value final maps monotonically to the score.
func key(f, comp []float64, r int32) float64 {
	if comp != nil {
		return f[r] + comp[r]
	}
	return f[r]
}

// kthKey returns the k-th largest candidate key by one pass with a k-sized
// min-heap, which it leaves in the scratch: the root is the minimum of k
// actual candidate keys, so it is a valid lower bound on the true k-th best
// key, and hrecs names the k witnesses. There must be at least k candidates.
func (s *Scratch) kthKey(comp []float64, k int) float64 {
	f, hk, hr := s.f, s.hkeys[:0], s.hrecs[:0]
	down := func(i int) {
		for {
			small := i
			if l := 2*i + 1; l < k && hk[l] < hk[small] {
				small = l
			}
			if l := 2*i + 2; l < k && hk[l] < hk[small] {
				small = l
			}
			if small == i {
				return
			}
			hk[i], hk[small] = hk[small], hk[i]
			hr[i], hr[small] = hr[small], hr[i]
			i = small
		}
	}
	for _, r := range s.touched[:k] {
		hk, hr = append(hk, key(f, comp, r)), append(hr, r)
	}
	for i := k/2 - 1; i >= 0; i-- {
		down(i)
	}
	root := hk[0]
	for _, r := range s.touched[k:] {
		if kv := key(f, comp, r); kv > root {
			hk[0], hr[0] = kv, r
			down(0)
			root = hk[0]
		}
	}
	s.hkeys, s.hrecs = hk, hr
	return root
}

// compactCandidates drops candidates that provably cannot appear in the
// result: with k floor witnesses, a candidate whose best possible final
// key (current key plus the remaining positive suffix) stays strictly
// below the witnesses' worst possible final key is outside the top-k —
// the k witnesses all outrank it; with a threshold, a candidate whose best
// possible final score stays below θ is filtered either way. Dropping is
// pure exclusion: surviving candidates keep accumulating every remaining
// contribution, so reported scores are untouched.
func (s *Scratch) compactCandidates(sh *Shape, opts SelectOptions, pos, neg, thKey float64, k int) {
	if sh.ratio() { // closed by the threshold: there is one
		kept := s.touched[:0]
		for _, r := range s.touched {
			x := upBound(s.f[r]+pos, pos)
			if sh.DenAtLeastAcc {
				if x > sh.Den[r] {
					x = sh.Den[r]
				}
				if x > sh.QSide {
					x = sh.QSide
				}
			}
			den := sh.Den[r] + sh.QSide - x
			if den <= 0 || upBound(x/den, 0) >= opts.Threshold {
				kept = append(kept, r)
			}
		}
		s.touched = kept
		return
	}
	// Floor over the witnesses' current keys (update-only walks and lookups
	// keep accumulating into them, so recompute instead of trusting the
	// root). A candidate is dropped when its best possible key — current key
	// plus pos — stays below low, the higher of the floor's worst case and
	// the threshold key.
	low := thKey
	if k > 0 && len(s.hrecs) == k {
		floor := math.Inf(1)
		for _, hr := range s.hrecs {
			floor = math.Min(floor, key(s.f, sh.Comp, hr))
		}
		low = math.Max(low, downBound(floor+neg, neg))
	}
	// The slack moves to the constant side, one compare per candidate: a
	// key below cut has |kv| ≤ |low|+|pos| or is far below, so kv+pos
	// inflated by the slack stays below low; the four-fold margin covers
	// that substitution and the rounding of cut itself.
	cut := low - pos - 4*pruneSlack*(math.Abs(low)+math.Abs(pos)+1)
	f, kept := s.f, s.touched[:0]
	for _, r := range s.touched {
		if key(f, sh.Comp, r) >= cut {
			kept = append(kept, r)
		}
	}
	s.touched = kept
}

// finishByLookup recovers the candidates' contributions from a skipped
// list by binary search, in touched order — each record still receives its
// lists' contributions in list-processing order, so sums stay exact.
func (s *Scratch) finishByLookup(t *Term) {
	q, ids, w := t.Q, t.Ids, t.W
	for _, r := range s.touched {
		lo, hi := 0, len(ids)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if ids[mid] < r {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(ids) && ids[lo] == r {
			if w == nil {
				s.f[r] += q
			} else {
				s.f[r] += q * w[lo]
			}
		}
	}
}

// materialize turns the touched set into the ranked result. The additive
// family is ranked in key space first: final is monotone in the key, so a
// candidate whose key is below the threshold key, or below the k-th best
// key deflated by the pruning slack, cannot be in the result, and only the
// contenders pay final (an exp for LM/HMM) and a Match. Contenders stage
// through the scratch's match buffer, so the only allocation is the result
// itself, at its exact size.
func (s *Scratch) materialize(recs []Record, sh *Shape, opts SelectOptions, thKey float64) []Match {
	low := thKey
	if k := opts.Limit; k > 0 && k < len(s.touched) && !sh.ratio() {
		kth := downBound(s.kthKey(sh.Comp, k), 0)
		// Two keys the slack apart have distinct scores wherever exp
		// neither underflows nor overflows; elsewhere they may tie, ties go
		// by TID, and every candidate stays a contender.
		e := 1.0
		if sh.Exp {
			e = math.Exp(kth)
		}
		if e >= 0x1p-1022 && !math.IsInf(e, 1) {
			low = math.Max(low, kth)
		}
	}
	f, buf := s.f, s.ms[:0]
	for _, r := range s.touched {
		if !sh.ratio() && key(f, sh.Comp, r) < low {
			continue
		}
		score, ok := sh.final(r, f[r])
		if !ok || !opts.Keeps(score) {
			continue
		}
		buf = append(buf, Match{TID: recs[r].TID, Score: score})
	}
	s.ms = buf
	if opts.Limit > 0 && opts.Limit < len(buf) {
		return FinishMatches(buf, opts) // k-bounded heap, fresh k-slice
	}
	out := append(make([]Match, 0, len(buf)), buf...)
	SortMatches(out)
	return out
}

// ---- pruning statistics ----

// hotPathCounters aggregates process-wide max-score pruning counters. They
// are written once per query (not per posting) and surface through
// HotPathSnapshot, the /v1/stats hot_path block, and BENCH_hotpath.json.
var hotPath struct {
	queries         atomic.Uint64
	prunedQueries   atomic.Uint64
	lists           atomic.Uint64
	listsSkipped    atomic.Uint64
	listsUpdateOnly atomic.Uint64
	postingsSkipped atomic.Uint64
}

// HotPathStats is a snapshot of the hot path's pruning counters.
type HotPathStats struct {
	// Queries counts engine selections; PrunedQueries those where
	// admission closed before the last list.
	Queries       uint64 `json:"queries"`
	PrunedQueries uint64 `json:"pruned_queries"`
	// Lists counts posting lists presented to the engine; ListsSkipped the
	// ones never walked (candidates finished by binary search);
	// ListsUpdateOnly the ones walked without admitting new candidates.
	Lists           uint64 `json:"lists"`
	ListsSkipped    uint64 `json:"lists_skipped"`
	ListsUpdateOnly uint64 `json:"lists_update_only"`
	// PostingsSkipped sums the lengths of skipped lists.
	PostingsSkipped uint64 `json:"postings_skipped"`
}

// PruneRate is the fraction of posting lists skipped entirely.
func (st HotPathStats) PruneRate() float64 {
	if st.Lists == 0 {
		return 0
	}
	return float64(st.ListsSkipped) / float64(st.Lists)
}

// HotPathSnapshot returns the current pruning counters.
func HotPathSnapshot() HotPathStats {
	return HotPathStats{
		Queries:         hotPath.queries.Load(),
		PrunedQueries:   hotPath.prunedQueries.Load(),
		Lists:           hotPath.lists.Load(),
		ListsSkipped:    hotPath.listsSkipped.Load(),
		ListsUpdateOnly: hotPath.listsUpdateOnly.Load(),
		PostingsSkipped: hotPath.postingsSkipped.Load(),
	}
}

// Sub returns the counter deltas since an earlier snapshot.
func (st HotPathStats) Sub(prev HotPathStats) HotPathStats {
	return HotPathStats{
		Queries:         st.Queries - prev.Queries,
		PrunedQueries:   st.PrunedQueries - prev.PrunedQueries,
		Lists:           st.Lists - prev.Lists,
		ListsSkipped:    st.ListsSkipped - prev.ListsSkipped,
		ListsUpdateOnly: st.ListsUpdateOnly - prev.ListsUpdateOnly,
		PostingsSkipped: st.PostingsSkipped - prev.PostingsSkipped,
	}
}
