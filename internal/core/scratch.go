package core

import (
	"iter"
	"sync"

	"repro/internal/strutil"
)

// Scratch is the reusable dense accumulator of the selection hot path. It
// replaces the per-query map[int]float64 accumulators (and their secondary
// intersection/match maps) with one epoch-stamped float column plus a
// touched list: accumulating into a record is an array add, resetting
// between queries is a single epoch bump, and the backing arrays are
// recycled through a sync.Pool so concurrent Selects stop allocating
// O(candidates) maps per query.
//
// A Scratch is single-goroutine state: concurrent selections each check
// their own scratch out of the pool (GetScratch) and return it when the
// query's results have been materialized (Release).
type Scratch struct {
	f     []float64 // dense accumulator, valid where stamp matches cur
	slot  []int32   // per-record spill-row slot, valid where stamp matches cur
	stamp []uint32
	cur   uint32
	// touched lists the stamped records in first-touch order; its length is
	// the candidate count of the running query.
	touched []int32

	// Floor heap of the max-score engine (kthKey): a min-heap over the k
	// best candidate keys of one pass, and the records that hold them.
	hkeys []float64
	hrecs []int32
	// work is the last MaxScoreSelect's deterministic work tally: postings
	// walked, priced lookup steps, and candidates scanned for floors and
	// compaction.
	work int

	// Per-query side buffers reused across checkouts.
	terms []Term
	pos   []float64 // suffix sums of positive contribution bounds
	neg   []float64 // suffix sums of negative contribution bounds
	ms    []Match
	spill []float64 // flat stride-rows buffer (the GES filters' maxsim table)
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch checks a scratch out of the shared pool, reset for n records.
func GetScratch(n int) *Scratch {
	s := scratchPool.Get().(*Scratch)
	s.Reset(n)
	return s
}

// Release returns the scratch (and its grown backing arrays) to the pool.
func (s *Scratch) Release() { scratchPool.Put(s) }

// Reset prepares the scratch for a fresh accumulation over records
// 0..n-1: the backing arrays grow to cover n and every previous stamp is
// invalidated by bumping the epoch (no O(n) clearing).
func (s *Scratch) Reset(n int) {
	if cap(s.stamp) < n {
		s.f = make([]float64, n)
		s.slot = make([]int32, n)
		s.stamp = make([]uint32, n)
		s.touched = make([]int32, 0, n+1) // walkFull stores before it grows
		s.cur = 0
	} else {
		s.f = s.f[:cap(s.stamp)]
		s.slot = s.slot[:cap(s.stamp)]
		s.stamp = s.stamp[:cap(s.stamp)]
	}
	s.cur++
	if s.cur == 0 {
		// Epoch wrap: stale stamps from 2^32 resets ago could alias the new
		// epoch, so clear them once and restart at 1.
		clear(s.stamp)
		s.cur = 1
	}
	s.touched = s.touched[:0]
	s.hkeys = s.hkeys[:0]
	s.hrecs = s.hrecs[:0]
}

// Add accumulates w into rec's score, stamping the record into the touched
// list on first contact. First touch stores w directly, which is exactly
// 0 + w, so the accumulated value is bit-identical to a map merge visiting
// the same contributions in the same order.
func (s *Scratch) Add(rec int32, w float64) {
	if s.stamp[rec] != s.cur {
		s.stamp[rec] = s.cur
		s.f[rec] = w
		s.touched = append(s.touched, rec)
		return
	}
	s.f[rec] += w
}

// Stamped reports whether rec has been touched since the last Reset.
func (s *Scratch) Stamped(rec int32) bool { return s.stamp[rec] == s.cur }

// Val returns rec's accumulated value (zero when untouched).
func (s *Scratch) Val(rec int32) float64 {
	if s.stamp[rec] != s.cur {
		return 0
	}
	return s.f[rec]
}

// Touched returns the stamped records in first-touch order. The slice is
// owned by the scratch and is invalidated by the next Reset.
func (s *Scratch) Touched() []int32 { return s.touched }

// Descending visits the stamped records by decreasing value. It heapifies
// the touched list in place and pops one record per step, so a caller that
// stops after p records pays O(n + p·log n) instead of a sort. The touched
// list is consumed.
func (s *Scratch) Descending() iter.Seq2[int32, float64] {
	return func(yield func(int32, float64) bool) {
		h := s.touched
		for i := len(h)/2 - 1; i >= 0; i-- {
			s.siftMax(h, i)
		}
		for len(h) > 0 {
			rec := h[0]
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
			s.siftMax(h, 0)
			if !yield(rec, s.f[rec]) {
				break
			}
		}
		s.touched = h[:0]
	}
}

// siftMax restores the max-heap order of h, keyed by value, below i.
func (s *Scratch) siftMax(h []int32, i int) {
	for {
		top := i
		if l := 2*i + 1; l < len(h) && s.f[h[l]] > s.f[h[top]] {
			top = l
		}
		if r := 2*i + 2; r < len(h) && s.f[h[r]] > s.f[h[top]] {
			top = r
		}
		if top == i {
			return
		}
		h[i], h[top] = h[top], h[i]
		i = top
	}
}

// TermBuf returns the scratch's reusable term buffer, empty. A nil scratch
// yields a nil buffer, so plan builders work without a scratch too.
func (s *Scratch) TermBuf() []Term {
	if s == nil {
		return nil
	}
	return s.terms[:0]
}

// RowFor returns rec's stride-sized row of the flat spill buffer, zeroing
// the row (and assigning the record a dense slot) on first touch. It backs
// the per-(record, query-token) maxsim tables of the GES filters, replacing
// their map[int][]float64 with one reusable flat array.
func (s *Scratch) RowFor(rec int32, stride int) []float64 {
	if s.stamp[rec] != s.cur {
		s.stamp[rec] = s.cur
		s.slot[rec] = int32(len(s.touched))
		s.touched = append(s.touched, rec)
		need := len(s.touched) * stride
		for cap(s.spill) < need {
			s.spill = append(s.spill[:cap(s.spill)], 0)
		}
		s.spill = s.spill[:cap(s.spill)]
		row := s.spill[need-stride : need]
		clear(row)
		return row
	}
	off := int(s.slot[rec]) * stride
	return s.spill[off : off+stride]
}

// WordSims is the pooled per-query word-similarity table of the combination
// predicates (GES family, SoftTFIDF). Those predicates compare every query
// word with every word of every record they score; two records holding the
// same word ask the same question, so the answer is kept per (query word,
// dictionary word) instead: the row of dictionary rank r holds
// kernel(words[c], dict[r]) at c, where ranks are those of the word layer's
// dictionary (WordLayer.PosRanks maps word positions to them) and c numbers
// the distinct query words.
//
// A dictionary word's row is computed the first time the query reads it and
// epoch-stamped like Scratch, so a filtered predicate only pays the kernel
// for the words its candidates hold and a checkout never clears anything.
// The stored value is the kernel's own return value: reading it is
// indistinguishable from calling the kernel. The table is sized at checkout
// for the dictionary it is handed — ranks shift with every snapshot — and
// keeps no reference to it after Release. Its footprint is distinct query
// words × dictionary size floats, plus one stamp per dictionary word.
//
// Before any kernel runs, a predicate can bound every cell from the words'
// signatures (WordLayer.WordSigs): EditBounds fills a second plane of the
// same shape with an upper bound of each edit similarity, and
// FillJaroWinkler computes the whole Jaro–Winkler table at once, running
// the kernel only where the bound reaches a floor.
//
// Like a Scratch, a WordSims is single-goroutine state.
type WordSims struct {
	kernel func(q, w string) float64
	words  []string // distinct query words, one column each
	dict   []string // dictionary words by rank
	vals   []float64
	stamp  []uint32 // row r of vals is valid where stamp[r] == cur
	cur    uint32
	// Per-query side buffers reused across checkouts.
	qsigs   []strutil.WordSig // signatures of words
	bounds  []float64         // the bound plane, laid out like vals
	recRows [][]float64
	floats  []float64
}

var wordSimsPool = sync.Pool{New: func() any { return new(WordSims) }}

// GetWordSims checks a table out of the shared pool, with no row computed:
// one column per word of words over the rank-ordered dictionary dict.
func GetWordSims(kernel func(q, w string) float64, words, dict []string) *WordSims {
	t := wordSimsPool.Get().(*WordSims)
	t.kernel, t.words, t.dict = kernel, words, dict
	if n := len(words) * len(dict); cap(t.vals) < n {
		t.vals = make([]float64, n)
	} else {
		t.vals = t.vals[:n]
	}
	if cap(t.stamp) < len(dict) {
		t.stamp = make([]uint32, len(dict))
		t.cur = 0
	} else {
		t.stamp = t.stamp[:len(dict)]
	}
	t.cur++
	if t.cur == 0 { // epoch wrap, as in Scratch.Reset
		clear(t.stamp[:cap(t.stamp)])
		t.cur = 1
	}
	return t
}

// Release returns the table to the pool, dropping its references into the
// snapshot and the query.
func (t *WordSims) Release() {
	t.kernel, t.words, t.dict = nil, nil, nil
	wordSimsPool.Put(t)
}

// Row returns dictionary rank r's similarities to every query word:
// Row(r)[c] is kernel(words[c], dict[r]). The slice is owned by the table.
func (t *WordSims) Row(r int32) []float64 {
	n := len(t.words)
	row := t.vals[int(r)*n:][:n:n]
	if t.stamp[r] != t.cur {
		t.stamp[r] = t.cur
		for c, q := range t.words {
			row[c] = t.kernel(q, t.dict[r])
		}
	}
	return row
}

// RowsOf returns, for a record's word positions given as dictionary ranks,
// each position's row: RowsOf(ranks)[j] is Row(ranks[j]). The outer slice is
// reused by the next call.
func (t *WordSims) RowsOf(ranks []int32) [][]float64 {
	rows := t.recRows[:0]
	for _, r := range ranks {
		rows = append(rows, t.Row(r))
	}
	t.recRows = rows
	return rows
}

// querySigs returns the signatures of the query words.
func (t *WordSims) querySigs() []strutil.WordSig {
	t.qsigs = t.qsigs[:0]
	for _, q := range t.words {
		t.qsigs = append(t.qsigs, strutil.Sig(q))
	}
	return t.qsigs
}

// EditBounds returns the edit bound plane of the query: row r, at
// [r·len(words), (r+1)·len(words)), holds Sig(words[c]).EditBound(&sigs[r])
// at c, an upper bound of EditSimilarity(words[c], dict[r]), where sigs are
// the dictionary's signatures by rank. No kernel runs. The slice is owned by
// the table.
func (t *WordSims) EditBounds(sigs []strutil.WordSig) []float64 {
	qs := t.querySigs()
	n := len(qs)
	if cap(t.bounds) < n*len(sigs) {
		t.bounds = make([]float64, n*len(sigs))
	}
	t.bounds = t.bounds[:n*len(sigs)]
	for r := range sigs {
		row := t.bounds[r*n : r*n+n]
		for c := range qs {
			row[c] = qs[c].EditBound(&sigs[r])
		}
	}
	return t.bounds
}

// FillJaroWinkler computes every row of a table whose kernel is
// strutil.JaroWinkler now. A cell whose Sig(words[c]).JaroWinklerBound(&sigs[r])
// falls below floor holds 0 and costs no kernel call; every other cell holds
// the kernel's value. A caller that never reads a value below floor — the
// CLOSE test of SoftTFIDF — cannot tell the table from the kernel.
func (t *WordSims) FillJaroWinkler(sigs []strutil.WordSig, floor float64) {
	qs := t.querySigs()
	n := len(qs)
	for r := range sigs {
		row := t.vals[r*n : r*n+n]
		for c := range qs {
			row[c] = 0
			if qs[c].JaroWinklerBound(&sigs[r]) >= floor {
				row[c] = t.kernel(t.words[c], t.dict[r])
			}
		}
		t.stamp[r] = t.cur
	}
}

// Floats returns a reusable float buffer of length n with unspecified
// contents (the GES dynamic program's rows).
func (t *WordSims) Floats(n int) []float64 {
	if cap(t.floats) < n {
		t.floats = make([]float64, n)
	}
	return t.floats[:n]
}
