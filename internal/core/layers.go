package core

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/minhash"
	"repro/internal/strutil"
	"repro/internal/tokenize"
	"repro/internal/weights"
)

// This file holds the two token layers of a snapshot. Each layer has three
// kinds of state:
//
//   - per-record tokenization products, shared row by row between
//     snapshots: the interned (rank, tf) pairs and lengths of the gram
//     multisets and the word sequences. No per-gram string is kept: a
//     record's grams are ranks into the sorted token table;
//   - structural tables — the sorted token dictionaries with their integer
//     counters and the gram layer's inverted lists — spliced from the
//     predecessor by the primitives of splice.go;
//   - state built on first use, once per snapshot, by the first predicate
//     view that asks for it: the weight columns that depend on N (idf, RS,
//     tf-idf, the language-model table, the float aggregates of the
//     statistics), derived by flat passes over the interned pairs, and the
//     word layer's filter index (dense word ids, the word q-gram and
//     min-hash signature indexes), built per dictionary word from the
//     word sequences.
//
// A write therefore pays for the records it changes plus a handful of
// memmove-speed passes; the weight phase moved to the first read that
// needs a given table, the rule BM25 and HMM always followed for their
// parameter-dependent tables.

// RankTF is one interned token occurrence of a record: the token's dense
// rank in the sorted token order and its frequency in the record.
type RankTF = weights.RankTF

// lazy is a column computed on first use and then immutable.
type lazy[T any] struct {
	once sync.Once
	v    T
}

func (l *lazy[T]) get(build func() T) T {
	l.once.Do(func() { l.v = build() })
	return l.v
}

// PostTable is a rank-indexed weight column aligned with a layer's posting
// ids — Post[r][j] is the weight of the token of rank r in record
// Postings[r][j] — with its per-rank weight bound columns, the max-score
// pruning input of the hot path. Skip, when non-nil, marks records whose
// aligned weights are placeholders: they bound nothing and Shape.Skip keeps
// them out of every result (Cosine's zero-norm records).
type PostTable struct {
	Post     [][]float64
	Max, Min []float64
	Skip     []bool
}

// RSTable is the Robertson–Sparck Jones weight table (Eq. 3.5). Each RS
// posting list has the uniform weight ByRank[r], so the table doubles as
// its own per-rank score bound. Len is the per-record summed RS weight over
// distinct tokens (the weighted Jaccard union denominator, present when the
// layer has postings) and LenMin its minimum, the denominator bound of
// WeightedJaccard's admission test.
type RSTable struct {
	ByRank []float64
	Len    []float64
	LenMin float64
}

// LMTable is the language-model posting table with the per-record
// Σ log(1−pm) column; CompMax bounds SumComp over records that can appear
// in a posting list.
type LMTable struct {
	PostTable
	SumComp []float64
	CompMax float64
}

// GramLayer is the q-gram token layer of a snapshot. All fields are
// read-only once the snapshot is published.
type GramLayer struct {
	// DL is the size of every record's gram multiset. The multisets
	// themselves are the Pairs; their occurrence order is not kept (the
	// positional edit filter recounts it from the record text).
	DL []int
	// Stats holds the collection statistics; TokenByRank is its sorted
	// token order, which ranks index.
	Stats       *weights.Corpus
	TokenByRank []string
	// Pairs are the per-record rank-sorted (rank, tf) pairs: the interned
	// form of the frequency maps every table derives from.
	Pairs [][]RankTF
	// Postings is the distinct-token inverted index, indexed by token rank
	// (LayerPostings): ascending record ids, the one copy every weight
	// column of the layer is aligned with.
	Postings [][]int32

	// layers says which derived tables this layer carries: the corpus's
	// layer set, narrowed when pruning splits raw and effective layers.
	layers CorpusLayers
	idf    lazy[[]float64]
	rs     lazy[*RSTable]
	tfidf  lazy[*PostTable]
	lm     lazy[*LMTable]
	tf     lazy[[][]int32]
}

func emptyGramLayer() *GramLayer {
	return &GramLayer{Stats: weights.New(nil, nil, nil, 0, 0, nil)}
}

// splice produces the layer that follows l when the record list changes by
// sp; docs are the token multisets of sp.recs, which the layer keeps only
// as interned pairs.
func (l *GramLayer) splice(sp *splice, docs [][]string, layers CorpusLayers) *GramLayer {
	removed := sp.removed
	kd := newKeyDelta(l.TokenByRank, strings.Compare)
	dcf := make([]int32, len(l.TokenByRank))
	dcs := 0
	for _, p := range removed {
		for _, pr := range l.Pairs[p] {
			kd.remove(pr.Rank)
			dcf[pr.Rank] -= pr.TF
		}
		dcs -= l.DL[p]
	}
	added := make([][]RankTF, len(docs))
	dls := make([]int, len(docs))
	var ids []int32
	for k, doc := range docs {
		ids = ids[:0]
		for _, t := range doc {
			ids = append(ids, kd.id(t))
		}
		added[k] = weights.CountRanks(ids)
		dcf = append(dcf, make([]int32, len(kd.delta)-len(dcf))...)
		for _, pr := range added[k] {
			kd.add(pr.Rank)
			dcf[pr.Rank] += pr.TF
		}
		dls[k] = len(doc)
		dcs += len(doc)
	}
	tokens, remap := kd.finish(func(id int32) int32 { return l.Stats.DFs()[id] })

	next := &GramLayer{
		DL:          spliceRows(l.DL, sp, dls),
		TokenByRank: tokens,
		layers:      layers,
	}
	next.Pairs = splicePairs(l.Pairs, sp, removed, added, remap)
	pairs, dl := next.Pairs, next.DL
	next.Stats = weights.New(tokens,
		remapCounts(l.Stats.DFs(), kd.delta, remap, len(tokens)),
		remapCounts(l.Stats.CFs(), dcf, remap, len(tokens)),
		len(next.DL), l.Stats.CS()+dcs,
		func() []float64 { return weights.SumPML(pairs, dl, len(tokens)) })
	if layers.Has(LayerPostings) {
		sh := newValueShift(len(removed))
		for _, p := range removed {
			size := int32(0) // a dropped position vanishes, a replaced one stays
			if _, replaced := sp.replacement(p); replaced {
				size = 1
			}
			sh.remove(int32(p), int32(p)+1, size)
		}
		pos := sp.pos
		next.Postings = spliceLists(l.Postings, remap, len(tokens), sh, kd.lost, func(yield func(int32, int32) bool) {
			for k, row := range added {
				for _, pr := range row {
					if !yield(pr.Rank, pos[k]) {
						return
					}
				}
			}
		})
	}
	return next
}

// splicePairs carries the interned pair rows over. Added rows arrive with
// extended ids and are translated; when the vocabulary changed, every
// retained row is rewritten with the new ranks into one backing array (a
// flat int pass — the remap is monotone, so rows stay sorted).
func splicePairs(old [][]RankTF, sp *splice, removed []int, added [][]RankTF, remap []int32) [][]RankTF {
	if remap != nil {
		for _, row := range added {
			for i := range row {
				row[i].Rank = remap[row[i].Rank]
			}
			slices.SortFunc(row, func(a, b RankTF) int { return int(a.Rank) - int(b.Rank) })
		}
		total := 0
		for _, row := range old {
			total += len(row)
		}
		for _, p := range removed {
			total -= len(old[p])
		}
		backing := make([]RankTF, 0, total)
		moved := make([][]RankTF, len(old))
		r := 0
		for i, row := range old {
			if r < len(removed) && removed[r] == i {
				r++
				continue
			}
			start := len(backing)
			for _, pr := range row {
				backing = append(backing, RankTF{Rank: remap[pr.Rank], TF: pr.TF})
			}
			moved[i] = backing[start:len(backing):len(backing)]
		}
		old = moved
	}
	return spliceRows(old, sp, added)
}

// Rank returns the dense rank of a token, or false for tokens unknown to
// the layer.
func (l *GramLayer) Rank(t string) (int32, bool) { return l.Stats.Rank(t) }

// orderedKnownRanks returns the tokens of a query-side map that are known
// to the statistics, with their ranks, in the sorted token order. Score
// accumulation iterates tokens in this order so repeated Selects produce
// bit-identical results.
func orderedKnownRanks[V any](counts map[string]V, stats *weights.Corpus) []RankTok {
	out := make([]RankTok, 0, len(counts))
	for t := range counts {
		if r, ok := stats.Rank(t); ok {
			out = append(out, RankTok{Tok: t, Rank: r})
		}
	}
	slices.SortFunc(out, func(a, b RankTok) int { return int(a.Rank) - int(b.Rank) })
	return out
}

// OrderedKnownRanks returns the known tokens of a query frequency map with
// their ranks, in the corpus's sorted token order.
func (l *GramLayer) OrderedKnownRanks(counts map[string]int) []RankTok {
	return orderedKnownRanks(counts, l.Stats)
}

// OrderedKnownRankWeights is OrderedKnownRanks for weight maps.
func (l *GramLayer) OrderedKnownRankWeights(w map[string]float64) []RankTok {
	return orderedKnownRanks(w, l.Stats)
}

// PostingColumn allocates a column aligned with the layer's posting ids,
// carved from one backing array: rank r's slice is empty with capacity
// len(Postings[r]), so a builder that visits records in ascending order and
// appends one value per (rank, record) pair fills every slice exactly,
// without reallocating.
func PostingColumn[T any](l *GramLayer) [][]T {
	total := 0
	for _, ids := range l.Postings {
		total += len(ids)
	}
	backing := make([]T, total)
	col := make([][]T, len(l.Postings))
	off := 0
	for r, ids := range l.Postings {
		col[r] = backing[off : off : off+len(ids)]
		off += len(ids)
	}
	return col
}

// ---- weight columns, derived on first use ----

// idfByRank is the idf of every rank.
func (l *GramLayer) idfByRank() []float64 {
	return l.idf.get(func() []float64 {
		col := make([]float64, len(l.TokenByRank))
		for r := range col {
			col[r] = l.Stats.IDFAt(int32(r))
		}
		return col
	})
}

// RS returns the Robertson–Sparck Jones weight table (LayerRS), nil when
// the layer does not carry it.
func (l *GramLayer) RS() *RSTable {
	if !l.layers.Has(LayerRS) {
		return nil
	}
	return l.rs.get(func() *RSTable {
		t := &RSTable{ByRank: make([]float64, len(l.TokenByRank))}
		for r := range t.ByRank {
			t.ByRank[r] = l.Stats.RSAt(int32(r))
		}
		if l.layers.Has(LayerPostings) {
			// Per record the weights sum in ascending token order.
			t.Len = make([]float64, len(l.Pairs))
			for i, pairs := range l.Pairs {
				sum := 0.0
				for _, p := range pairs {
					sum += t.ByRank[p.Rank]
				}
				t.Len[i] = sum
				if i == 0 || sum < t.LenMin {
					t.LenMin = sum
				}
			}
		}
		return t
	})
}

// TFIDF returns the normalized tf-idf posting table (LayerTFIDF, §3.2.1),
// nil when the layer does not carry it.
func (l *GramLayer) TFIDF() *PostTable {
	if !l.layers.Has(LayerTFIDF) {
		return nil
	}
	return l.tfidf.get(func() *PostTable {
		idf := l.idfByRank()
		post := PostingColumn[float64](l)
		for _, pairs := range l.Pairs {
			// Mirrors weights.Corpus.TFIDF term for term: the norm sums
			// (tf·idf)² in sorted-token order. A zero-norm record has no
			// tf-idf vector; its aligned weights are placeholders.
			norm := tfidfNorm(pairs, idf)
			for _, p := range pairs {
				w := 0.0
				if norm != 0 {
					w = float64(p.TF) * idf[p.Rank] / norm
				}
				post[p.Rank] = append(post[p.Rank], w)
			}
		}
		return NewPostTable(post, l.Postings, zeroNorms(l.Pairs, idf))
	})
}

// zeroNorms marks the records that hold grams but have a tf-idf norm of 0
// (every gram has idf 0), nil when there are none.
func zeroNorms(pairs [][]RankTF, idf []float64) []bool {
	var skip []bool
	for i, row := range pairs {
		if len(row) > 0 && tfidfNorm(row, idf) == 0 {
			if skip == nil {
				skip = make([]bool, len(pairs))
			}
			skip[i] = true
		}
	}
	return skip
}

func tfidfNorm(pairs []RankTF, idf []float64) float64 {
	norm := 0.0
	for _, p := range pairs {
		w := float64(p.TF) * idf[p.Rank]
		norm += w * w
	}
	if norm == 0 {
		return 0
	}
	return math.Sqrt(norm)
}

// NewPostTable wraps a weight column aligned with ids and derives its
// per-rank bound columns: Max[r] and Min[r] bound the weights of rank r's
// list over the records skip does not mark (both zero for a list without
// such records). These are the score upper bounds max-score pruning
// consumes; they are built with their column, so they can never drift out
// of sync with it.
func NewPostTable(post [][]float64, ids [][]int32, skip []bool) *PostTable {
	t := &PostTable{Post: post, Max: make([]float64, len(post)), Min: make([]float64, len(post)), Skip: skip}
	for r, ws := range post {
		first := true
		for j, w := range ws {
			if skip != nil && skip[ids[r][j]] {
				continue
			}
			if first || w > t.Max[r] {
				t.Max[r] = w
			}
			if first || w < t.Min[r] {
				t.Min[r] = w
			}
			first = false
		}
	}
	return t
}

// LM returns the language-model posting table (LayerLM, §3.3.1), nil when
// the layer does not carry it.
func (l *GramLayer) LM() *LMTable {
	if !l.layers.Has(LayerLM) {
		return nil
	}
	return l.lm.get(func() *LMTable {
		// Mirrors weights.Corpus.LM term for term, with pavg and log(cf/cs)
		// precomputed per rank.
		pavg := make([]float64, len(l.TokenByRank))
		cfcsLog := make([]float64, len(l.TokenByRank))
		for r := range pavg {
			pavg[r] = l.Stats.PavgAt(int32(r))
			cfcsLog[r] = math.Log(l.Stats.CFCSAt(int32(r)))
		}
		post := PostingColumn[float64](l)
		t := &LMTable{SumComp: make([]float64, len(l.Pairs))}
		// The admission bound only has to cover records reachable through
		// a posting list, i.e. records with tokens; zero-length records
		// keep the neutral SumComp of 0, which would badly loosen the
		// bound (their Σ log(1−pm) would be far below 0 if they had any).
		first := true
		for i, pairs := range l.Pairs {
			dl := float64(l.DL[i])
			if dl == 0 {
				continue
			}
			sum := 0.0
			for _, p := range pairs {
				tf := float64(p.TF)
				pml := tf / dl
				pa := pavg[p.Rank]
				fbar := pa * dl
				risk := (1.0 / (1.0 + fbar)) * powInt(fbar/(1.0+fbar), int(p.TF))
				pm := math.Pow(pml, 1.0-risk) * math.Pow(pa, risk)
				if pm > 1-1e-12 {
					pm = 1 - 1e-12
				}
				sum += math.Log(1.0 - pm)
				term := math.Log(pm) - math.Log(1.0-pm) - cfcsLog[p.Rank]
				post[p.Rank] = append(post[p.Rank], term)
			}
			t.SumComp[i] = sum
			if first || sum > t.CompMax {
				t.CompMax = sum
			}
			first = false
		}
		t.PostTable = *NewPostTable(post, l.Postings, nil)
		return t
	})
}

// TF returns the gram-frequency column aligned with the posting ids
// (LayerNorms, on the raw layer): the record-side multiset the edit
// predicate's count filter scans. Nil when the layer does not carry it.
func (l *GramLayer) TF() [][]int32 {
	if !l.layers.Has(LayerNorms) {
		return nil
	}
	return l.tf.get(func() [][]int32 {
		col := PostingColumn[int32](l)
		for _, pairs := range l.Pairs {
			for _, p := range pairs {
				col[p.Rank] = append(col[p.Rank], p.TF)
			}
		}
		return col
	})
}

// powInt is x^n for small positive integer exponents (term frequencies):
// repeated multiplication is an order of magnitude cheaper than math.Pow
// and exact for the n=1 common case. Large exponents fall back to math.Pow.
func powInt(x float64, n int) float64 {
	switch {
	case n == 1:
		return x
	case n == 2:
		return x * x
	case n == 3:
		return x * x * x
	case n <= 8:
		out := x
		for i := 1; i < n; i++ {
			out *= x
		}
		return out
	default:
		return math.Pow(x, float64(n))
	}
}

// pruneLayer is the §5.6 IDF-pruned layer over l: every rank whose idf falls
// below min(idf) + rate·(max(idf) − min(idf)) leaves, the kept ranks map
// monotonically into the pruned token table (so every row stays sorted),
// and a record's length is the tf its kept ranks sum to.
func pruneLayer(l *GramLayer, rate float64, layers CorpusLayers) *GramLayer {
	idf := l.idfByRank()
	var threshold float64
	if len(idf) > 0 {
		lo, hi := slices.Min(idf), slices.Max(idf)
		threshold = lo + rate*(hi-lo)
	}
	remap := make([]int32, len(idf))
	var tokens []string
	for r, v := range idf {
		remap[r] = -1
		if v >= threshold {
			remap[r] = int32(len(tokens))
			tokens = append(tokens, l.TokenByRank[r])
		}
	}
	total := 0
	for _, row := range l.Pairs {
		total += len(row)
	}
	backing := make([]RankTF, 0, total)
	pairs, dl := make([][]RankTF, len(l.Pairs)), make([]int, len(l.Pairs))
	for i, row := range l.Pairs {
		start := len(backing)
		for _, p := range row {
			if nr := remap[p.Rank]; nr >= 0 {
				backing = append(backing, RankTF{Rank: nr, TF: p.TF})
				dl[i] += int(p.TF)
			}
		}
		pairs[i] = backing[start:len(backing):len(backing)]
	}
	return countedGramLayer(tokens, pairs, dl, layers)
}

// countedGramLayer builds a layer over its sorted token table and interned
// rows the way assembly builds it: integer df/cf/cs counters, statistics
// whose Σ tf/dl aggregate sums on first use (the supplier GramLayer.splice
// installs), and the posting ids when the layer carries them. Every weight
// column stays lazy.
func countedGramLayer(tokens []string, pairs [][]RankTF, dl []int, layers CorpusLayers) *GramLayer {
	df, cf := make([]int32, len(tokens)), make([]int32, len(tokens))
	cs := 0
	for i, row := range pairs {
		for _, p := range row {
			df[p.Rank]++
			cf[p.Rank] += p.TF
		}
		cs += dl[i]
	}
	l := &GramLayer{DL: dl, TokenByRank: tokens, Pairs: pairs, layers: layers}
	l.Stats = weights.New(tokens, df, cf, len(pairs), cs, func() []float64 { return weights.SumPML(pairs, dl, len(tokens)) })
	if layers.Has(LayerPostings) {
		l.Postings = postingsFromPairs(pairs, len(tokens))
	}
	return l
}

// postingsFromPairs builds the distinct-token inverted index from the
// interned pairs — the lists assembly splices, rebuilt with the same
// integer arithmetic: per rank, the ascending positions of the records
// holding the token.
func postingsFromPairs(pairs [][]RankTF, nTok int) [][]int32 {
	df := make([]int, nTok)
	total := 0
	for _, row := range pairs {
		for _, p := range row {
			df[p.Rank]++
		}
		total += len(row)
	}
	backing := make([]int32, total)
	lists := make([][]int32, nTok)
	off := 0
	for r, n := range df {
		lists[r] = backing[off : off : off+n]
		off += n
	}
	for i, row := range pairs {
		for _, p := range row {
			lists[p.Rank] = append(lists[p.Rank], int32(i))
		}
	}
	return lists
}

// pairIn finds the interned pair of one of a record's own tokens through
// the record's rank-sorted pairs: a search over a few dozen entries instead
// of the whole dictionary.
func pairIn(pairs []RankTF, tokens []string, t string) RankTF {
	i, _ := slices.BinarySearchFunc(pairs, t, func(p RankTF, t string) int { return strings.Compare(tokens[p.Rank], t) })
	return pairs[i]
}

// ---- word layer ----

// SigKey addresses one min-hash signature slot value, the join key of the
// declarative GESapx plan.
type SigKey struct {
	Slot  int
	Value uint64
}

func compareSigKeys(a, b SigKey) int {
	if c := cmp.Compare(a.Slot, b.Slot); c != 0 {
		return c
	}
	return cmp.Compare(a.Value, b.Value)
}

// WordLayer is the word token layer of a snapshot. All fields are
// read-only once the snapshot is published.
type WordLayer struct {
	// Words are the per-record upper-cased word sequences; Pairs their
	// interned rank-sorted (rank, tf) form and Stats the collection
	// statistics over them are the fields of toks, the word layer's token
	// dictionary, which is a gram layer without postings.
	Words [][]string
	Pairs [][]RankTF
	Stats *weights.Corpus
	toks  *GramLayer

	layers CorpusLayers
	q      int             // word q-gram size of the index
	fam    *minhash.Family // signs every word's q-gram set (LayerSigs)
	pos    lazy[[][]int32]
	idf    lazy[[][]float64]
	tfidf  lazy[[][]float64]
	wsigs  lazy[[]strutil.WordSig]
	index  lazy[*WordIndex]
}

func newWordLayer(toks *GramLayer, words [][]string, layers CorpusLayers, q int, fam *minhash.Family) *WordLayer {
	return &WordLayer{Words: words, Pairs: toks.Pairs, Stats: toks.Stats, toks: toks, layers: layers, q: q, fam: fam}
}

// splice produces the word layer that follows l when the record list
// changes by sp: the word dictionary and the word sequences. The index is
// the next layer's own, built when a filter first asks for it.
func (l *WordLayer) splice(sp *splice) *WordLayer {
	return newWordLayer(l.toks.splice(sp, sp.raw.words, 0), spliceRows(l.Words, sp, sp.raw.words), l.layers, l.q, l.fam)
}

// WordIndex is the filter index of the GES family over a word layer
// (LayerWordGrams). WordOff, WordRecOf and GramSizeOf flatten the
// per-record distinct words, in first-occurrence order, into dense ids
// (WordOff[rec]+j), so the filters accumulate per-word match counts in a
// dense scratch; WordTotal is the id-space size and GramSizeOf the size of
// each word's q-gram set.
type WordIndex struct {
	WordOff    []int32
	WordRecOf  []int32
	GramSizeOf []int32
	WordTotal  int
	// GramKeys and GramIndex are the word q-gram inverted index: sorted
	// distinct grams, and per gram the ascending dense ids of the words
	// containing it.
	GramKeys  []string
	GramIndex [][]int32
	// SigKeys and SigIndex are the min-hash signature index (LayerSigs), in
	// the same form: per (slot, value) key, the words whose signature holds
	// it.
	SigKeys  []SigKey
	SigIndex [][]int32
}

// Index returns the word layer's filter index, nil when the layer does not
// carry LayerWordGrams. It is built on first use, once per snapshot, like
// the weight columns: a write splices only the dictionary and the words,
// and the first GESJaccard or GESapx view pays for the index in its weight
// phase.
func (l *WordLayer) Index() *WordIndex {
	if !l.layers.Has(LayerWordGrams) {
		return nil
	}
	return l.index.get(l.buildIndex)
}

// buildIndex builds the index per dictionary word: each rank's q-gram set,
// and with LayerSigs the min-hash signature of that set, is computed once
// however many records hold the word, as key ids into a key table; the
// lists then fill in one count-then-fill pass over the records' distinct
// words.
func (l *WordLayer) buildIndex() *WordIndex {
	dict := l.toks.TokenByRank
	grams := newKeyTable[string](len(dict))
	var sigs *keyTable[SigKey]
	if l.layers.Has(LayerSigs) {
		sigs = newKeyTable[SigKey](len(dict) * l.fam.K())
	}
	for _, w := range dict {
		// A repeated gram is one set member and does not move a minimum.
		gs := tokenize.WordQGrams(w, l.q)
		for _, g := range gs {
			grams.add(g)
		}
		grams.endRow()
		if sigs != nil {
			for slot, v := range l.fam.Signature(gs) {
				sigs.add(SigKey{Slot: slot, Value: v})
			}
			sigs.endRow()
		}
	}

	x := &WordIndex{WordOff: make([]int32, len(l.Words))}
	distinct := 0
	for _, pairs := range l.Pairs {
		distinct += len(pairs)
	}
	wordRank := make([]int32, 0, distinct) // the rank of every dense id
	x.WordRecOf = make([]int32, 0, distinct)
	last := make([]int32, len(dict)) // 1 + the last record holding each rank
	for i, row := range l.PosRanks() {
		x.WordOff[i] = int32(len(wordRank))
		for _, r := range row {
			if last[r] != int32(i)+1 {
				last[r] = int32(i) + 1
				wordRank = append(wordRank, r)
				x.WordRecOf = append(x.WordRecOf, int32(i))
			}
		}
	}
	x.WordTotal = len(wordRank)
	x.GramSizeOf = make([]int32, len(wordRank))
	for wid, r := range wordRank {
		x.GramSizeOf[wid] = grams.off[r+1] - grams.off[r]
	}
	x.GramKeys, x.GramIndex = grams.invert(wordRank, strings.Compare)
	if sigs != nil {
		x.SigKeys, x.SigIndex = sigs.invert(wordRank, compareSigKeys)
	}
	return x
}

// keyTable interns the key sets of one row per dictionary rank: row r's
// distinct key ids are val[off[r]:off[r+1]], ids into keys in first-seen
// order.
type keyTable[K comparable] struct {
	ids  map[K]int32
	keys []K
	off  []int32
	val  []int32
}

func newKeyTable[K comparable](hint int) *keyTable[K] {
	return &keyTable[K]{ids: make(map[K]int32, hint), off: []int32{0}, val: make([]int32, 0, hint)}
}

// add puts a key in the current row unless the row holds it already; a
// row has a few dozen keys at most, so a scan finds a repeat.
func (t *keyTable[K]) add(k K) {
	id, ok := t.ids[k]
	if !ok {
		id = int32(len(t.keys))
		t.ids[k] = id
		t.keys = append(t.keys, k)
	} else if slices.Contains(t.val[t.off[len(t.off)-1]:], id) {
		return
	}
	t.val = append(t.val, id)
}

func (t *keyTable[K]) endRow() { t.off = append(t.off, int32(len(t.val))) }

// invert returns the keys in cmp order and, per key, the ascending dense
// ids of the words whose rank's row holds it (wordRank[wid] is the rank of
// word wid), counted first and then filled into one backing array. Every
// dictionary word occurs in some record, so no list is empty.
func (t *keyTable[K]) invert(wordRank []int32, cmp func(a, b K) int) ([]K, [][]int32) {
	order := make([]int32, len(t.keys))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp(t.keys[a], t.keys[b]) })
	keys := make([]K, len(order))
	remap := make([]int32, len(order))
	for nid, id := range order {
		keys[nid], remap[id] = t.keys[id], int32(nid)
	}
	count := make([]int32, len(keys))
	total := 0
	for _, r := range wordRank {
		row := t.val[t.off[r]:t.off[r+1]]
		for _, id := range row {
			count[remap[id]]++
		}
		total += len(row)
	}
	backing := make([]int32, total)
	lists := make([][]int32, len(keys))
	off := 0
	for k, n := range count {
		lists[k] = backing[off : off : off+int(n)]
		off += int(n)
	}
	for wid, r := range wordRank {
		for _, id := range t.val[t.off[r]:t.off[r+1]] {
			lists[remap[id]] = append(lists[remap[id]], int32(wid))
		}
	}
	return keys, lists
}

// GramRefs returns the dense ids of the words containing a word q-gram.
func (x *WordIndex) GramRefs(g string) []int32 {
	if i, ok := slices.BinarySearch(x.GramKeys, g); ok {
		return x.GramIndex[i]
	}
	return nil
}

// SigRefs returns the dense ids of the words whose signature holds value
// k.Value in slot k.Slot.
func (x *WordIndex) SigRefs(k SigKey) []int32 {
	if i, ok := slices.BinarySearchFunc(x.SigKeys, k, compareSigKeys); ok {
		return x.SigIndex[i]
	}
	return nil
}

// OrderedKnownWeights returns the known words of a query weight map in the
// corpus's sorted word order.
func (l *WordLayer) OrderedKnownWeights(w map[string]float64) []string {
	prs := orderedKnownRanks(w, l.Stats)
	out := make([]string, len(prs))
	for i, p := range prs {
		out[i] = p.Tok
	}
	return out
}

// wordColumns allocates one zeroed value per word position, every record's
// column carved from a single backing array.
func wordColumns[T any](l *WordLayer) [][]T {
	backing := make([]T, l.Stats.CS())
	out := make([][]T, len(l.Words))
	off := 0
	for i, ws := range l.Words {
		out[i] = backing[off : off+len(ws) : off+len(ws)]
		off += len(ws)
	}
	return out
}

// PosRanks carries the dictionary rank of every word position:
// Stats.SortedTokens()[PosRanks()[i][j]] is record i's j-th word. It is the
// interned form of Words — what the segment stores, what the per-position
// weight columns below are gathered through, and the index the
// word-similarity columns of the combination predicates (WordSims) are read
// by.
func (l *WordLayer) PosRanks() [][]int32 {
	return l.pos.get(func() [][]int32 {
		cols := wordColumns[int32](l)
		for i, col := range cols {
			for j := range col {
				col[j] = pairIn(l.Pairs[i], l.toks.TokenByRank, l.Words[i][j]).Rank
			}
		}
		return cols
	})
}

// IDFWeights carries the idf weight of every word position, the weight
// vector of the GES transformation cost.
func (l *WordLayer) IDFWeights() [][]float64 {
	return l.idf.get(func() [][]float64 {
		idf := l.toks.idfByRank()
		ranks := l.PosRanks()
		cols := wordColumns[float64](l)
		for i, col := range cols {
			for j := range col {
				col[j] = idf[ranks[i][j]]
			}
		}
		return cols
	})
}

// TFIDF carries the normalized tf-idf weight of every word position
// (LayerWordTFIDF): TFIDF()[i][j] is the weight of record i's j-th word in
// the record's tf-idf vector, all zero for a record with a zero norm. Nil
// when the layer does not carry it.
func (l *WordLayer) TFIDF() [][]float64 {
	if !l.layers.Has(LayerWordTFIDF) {
		return nil
	}
	return l.tfidf.get(func() [][]float64 {
		idf := l.toks.idfByRank()
		ranks := l.PosRanks()
		cols := wordColumns[float64](l)
		for i, col := range cols {
			pairs := l.Pairs[i]
			norm := tfidfNorm(pairs, idf)
			if norm == 0 {
				continue
			}
			for j := range col {
				k, _ := slices.BinarySearchFunc(pairs, ranks[i][j], func(p RankTF, r int32) int { return int(p.Rank - r) })
				col[j] = float64(pairs[k].TF) * idf[pairs[k].Rank] / norm
			}
		}
		return cols
	})
}

// WordSigs carries the signature of every dictionary word, by rank:
// WordSigs()[r] is strutil.Sig(Stats.SortedTokens()[r]). GES and SoftTFIDF bound
// every word's similarity to a query word from it before running a string
// kernel (WordSims.EditBounds, WordSims.FillJaroWinkler).
func (l *WordLayer) WordSigs() []strutil.WordSig {
	return l.wsigs.get(func() []strutil.WordSig {
		sigs := make([]strutil.WordSig, len(l.toks.TokenByRank))
		for r, w := range l.toks.TokenByRank {
			sigs[r] = strutil.Sig(w)
		}
		return sigs
	})
}
