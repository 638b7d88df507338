package core

import (
	"math"
	"math/rand"
	"testing"
)

// randomTerms builds a random but valid query plan over n records: sorted
// posting lists, mixed-sign weights, correct per-list bound columns. A
// skewed plan makes every other list short and a hundred times heavier, the
// shape on which the engine closes admission and finishes by lookups.
func randomTerms(rng *rand.Rand, n, nt int, weighted, signed, skewed bool) []Term {
	terms := make([]Term, 0, nt)
	for t := 0; t < nt; t++ {
		df := 1 + rng.Intn(n)
		heavy := skewed && t%2 == 0
		if heavy {
			df = 1 + rng.Intn(8)
		}
		perm := rng.Perm(n)[:df]
		recs := append([]int(nil), perm...)
		// Posting lists must be sorted by record position.
		for i := 1; i < len(recs); i++ {
			for j := i; j > 0 && recs[j] < recs[j-1]; j-- {
				recs[j], recs[j-1] = recs[j-1], recs[j]
			}
		}
		q := rng.Float64() * 3
		if heavy {
			q *= 100
		}
		if signed && rng.Intn(3) == 0 {
			q = -q
		}
		if !weighted {
			ids := make([]int32, len(recs))
			for i, r := range recs {
				ids[i] = int32(r)
			}
			terms = append(terms, Term{Q: q, Ids: ids})
			continue
		}
		ids, ws := make([]int32, len(recs)), make([]float64, len(recs))
		mx, mn := math.Inf(-1), math.Inf(1)
		for i, r := range recs {
			w := rng.Float64() * 2
			if signed && rng.Intn(4) == 0 {
				w = -w
			}
			ids[i], ws[i] = int32(r), w
			mx = math.Max(mx, w)
			mn = math.Min(mn, w)
		}
		terms = append(terms, Term{Q: q, Ids: ids, W: ws, MaxW: mx, MinW: mn})
	}
	OrderTermsByImpact(terms)
	return terms
}

func matchesIdentical(t *testing.T, label string, want, got []Match) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d != %d\nwant %v\ngot  %v", label, len(want), len(got), want, got)
	}
	for i := range want {
		if want[i].TID != got[i].TID || want[i].Score != got[i].Score {
			t.Fatalf("%s: position %d: want %+v got %+v", label, i, want[i], got[i])
		}
	}
}

// TestMaxScoreMatchesNaive fuzzes the score-at-a-time engine against the
// naive reference merge across every shape family and option combination:
// the results must be bit-identical — scores and tie order — because
// pruning is only ever allowed to skip provably irrelevant work.
func TestMaxScoreMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 400
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{TID: 1000 - i} // non-monotone TIDs exercise tie order
	}
	comp := make([]float64, n)
	den := make([]float64, n)
	for i := range comp {
		comp[i] = -5 * rng.Float64()
		den[i] = rng.Float64() * 10
	}
	compMax := math.Inf(-1)
	denMin := math.Inf(1)
	for i := range comp {
		compMax = math.Max(compMax, comp[i])
		denMin = math.Min(denMin, den[i])
	}

	before := HotPathSnapshot()
	for trial := 0; trial < 200; trial++ {
		nt := 1 + rng.Intn(12)
		weighted := rng.Intn(2) == 0
		signed := rng.Intn(2) == 0
		terms := randomTerms(rng, n, nt, weighted, signed, trial%8 >= 4)

		var sh Shape
		var thresholds []float64
		switch trial % 4 {
		case 0: // identity (Cosine/BM25/WeightedMatch/IntersectSize)
			sh = Shape{}
			thresholds = []float64{0.5, 2, -1}
		case 1: // exp (HMM)
			sh = Shape{Exp: true}
			thresholds = []float64{1.5, 0.2}
		case 2: // exp with per-record offset (LM)
			sh = Shape{Exp: true, Comp: comp, CompMax: compMax}
			thresholds = []float64{0.05, 0.3}
		case 3: // ratio (Jaccard/WeightedJaccard)
			// A denominator column that dominates any achievable count
			// keeps DenAtLeastAcc honest for the unweighted case.
			rden := make([]float64, n)
			for i := range rden {
				rden[i] = den[i] + float64(nt)
			}
			sh = Shape{Den: rden, DenMin: denMin + float64(nt), DenAtLeastAcc: !signed && !weighted, QSide: float64(nt) + 1}
			thresholds = []float64{0.1, 0.4}
		}

		optsList := []SelectOptions{
			{},
			{Limit: 1},
			{Limit: 5},
			{Limit: n + 10},
			{Threshold: thresholds[0], HasThreshold: true},
			{Limit: 3, Threshold: thresholds[len(thresholds)-1], HasThreshold: true},
		}
		for _, opts := range optsList {
			want := NaiveTermSelect(recs, cloneTerms(terms), sh, opts)
			s := GetScratch(n)
			got := MaxScoreSelect(s, recs, cloneTerms(terms), sh, opts)
			s.Release()
			matchesIdentical(t, "engine vs naive", want, got)
		}
	}
	// The comparison is only worth its name if the pruning half ran.
	d := HotPathSnapshot().Sub(before)
	if d.PrunedQueries < 100 || d.ListsSkipped < 100 || d.ListsUpdateOnly < 100 {
		t.Fatalf("the trials barely reach closure, lookups and update-only walks: %+v", d)
	}
}

// cloneTerms guards against the engine mutating the shared plan.
func cloneTerms(terms []Term) []Term {
	return append([]Term(nil), terms...)
}

// strideList is one list of equal-weight postings: the records r in [0, n)
// with r%stride == 0, at weight w.
func strideList(n, stride int, w float64) Term {
	var t Term
	for r := 0; r < n; r += stride {
		t.Ids, t.W = append(t.Ids, int32(r)), append(t.W, w)
	}
	t.Q, t.MaxW, t.MinW = 1, w, w
	return t
}

func totalPostings(terms []Term) int {
	n := 0
	for i := range terms {
		n += terms[i].size()
	}
	return n
}

// TestMaxScorePrunesSkewedLists pins a case where pruning must pay: three
// short heavy lists leave 30 candidates, ten feather-weight lists covering
// all 20 000 records follow. Taking the floor costs 30 candidates against
// 200 000 postings still to walk, admission closes, and every long list is
// finished by 30 lookups instead of a walk — the work tally, in postings,
// stays far below the full walk.
func TestMaxScorePrunesSkewedLists(t *testing.T) {
	n := 20000
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{TID: i}
	}
	var terms []Term
	for k := 0; k < 3; k++ {
		t := Term{Q: 1, MaxW: 5, MinW: 5}
		for r := k * 10; r < k*10+10; r++ {
			t.Ids, t.W = append(t.Ids, int32(r)), append(t.W, 5)
		}
		terms = append(terms, t)
	}
	for k := 0; k < 10; k++ {
		terms = append(terms, strideList(n, 1, 0.001))
	}
	OrderTermsByImpact(terms)
	full := totalPostings(terms)

	before := HotPathSnapshot()
	s := GetScratch(n)
	got := MaxScoreSelect(s, recs, cloneTerms(terms), Shape{}, SelectOptions{Limit: 5})
	work := s.work
	s.Release()
	delta := HotPathSnapshot().Sub(before)

	want := NaiveTermSelect(recs, terms, Shape{}, SelectOptions{Limit: 5})
	matchesIdentical(t, "pruned top-k", want, got)
	if delta.PrunedQueries != 1 || delta.ListsSkipped != 10 || delta.PostingsSkipped != uint64(10*n) {
		t.Fatalf("the ten long feather-weight lists must be skipped entirely: %+v", delta)
	}
	if work*4 > full {
		t.Fatalf("work tally %d is not well under the full walk of %d postings", work, full)
	}
}

// TestMaxScoreWalksDenseLists is the mirror: thirty equal-weight lists each
// covering a large share of the relation — the shape of bigram postings —
// make nearly every record a candidate early, so a floor scan costs as
// much as the lists it could save. Closure must not engage: the engine
// does the plain walk and nothing else.
func TestMaxScoreWalksDenseLists(t *testing.T) {
	n := 4000
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{TID: i}
	}
	terms := make([]Term, 30)
	for i := range terms {
		terms[i] = strideList(n, 2+i%5, 1)
	}
	full := totalPostings(terms)

	before := HotPathSnapshot()
	s := GetScratch(n)
	got := MaxScoreSelect(s, recs, cloneTerms(terms), Shape{}, SelectOptions{Limit: 10})
	work := s.work
	s.Release()
	delta := HotPathSnapshot().Sub(before)

	want := NaiveTermSelect(recs, terms, Shape{}, SelectOptions{Limit: 10})
	matchesIdentical(t, "dense top-k", want, got)
	if delta.PrunedQueries != 0 {
		t.Fatalf("closure engaged on dense lists: %+v", delta)
	}
	if work != full {
		t.Fatalf("work tally %d, want exactly the %d postings of the plain walk", work, full)
	}
}

// TestScratchEpochWrap forces the 32-bit epoch counter to wrap and checks
// that stale stamps cannot leak into the new epoch.
func TestScratchEpochWrap(t *testing.T) {
	s := GetScratch(4)
	defer s.Release()
	s.Add(2, 1.5)
	if !s.Stamped(2) || s.Val(2) != 1.5 {
		t.Fatal("basic accumulate broken")
	}
	s.cur = ^uint32(0) // pretend 2^32-1 resets happened; stamp[2] aliases nothing yet
	s.stamp[2] = s.cur // simulate a record stamped at the wrap boundary
	s.Reset(4)
	if s.cur != 1 {
		t.Fatalf("epoch must restart at 1 after wrap, got %d", s.cur)
	}
	if s.Stamped(2) {
		t.Fatal("stale stamp survived the epoch wrap")
	}
	if s.Val(2) != 0 {
		t.Fatal("stale value visible after wrap")
	}
}

// TestScratchRowFor exercises the flat stride-row buffer the GES filters
// use for their per-(record, query word) maxsim tables.
func TestScratchRowFor(t *testing.T) {
	s := GetScratch(8)
	defer s.Release()
	r1 := s.RowFor(3, 4)
	r1[2] = 0.5
	r2 := s.RowFor(6, 4)
	r2[0] = 0.25
	again := s.RowFor(3, 4)
	if again[2] != 0.5 || again[0] != 0 {
		t.Fatalf("row not stable across touches: %v", again)
	}
	if got := s.RowFor(6, 4); got[0] != 0.25 {
		t.Fatalf("second record's row clobbered: %v", got)
	}
	if len(s.Touched()) != 2 {
		t.Fatalf("touched list: %v", s.Touched())
	}
	s.Reset(8)
	if row := s.RowFor(3, 4); row[2] != 0 {
		t.Fatal("row not zeroed after reset")
	}
}
