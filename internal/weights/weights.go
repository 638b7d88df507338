// Package weights implements the token weighting schemes of the paper's
// framework chapter: idf and Robertson–Sparck Jones weights for the weighted
// overlap predicates (§3.1, §5.3.1), normalized tf-idf (§3.2.1), BM25
// (§3.2.2), the Ponte–Croft language model quantities (§3.3.1) and the
// two-state HMM weights (§3.3.2).
//
// A Corpus summarizes a tokenized base relation; the per-record weight
// functions mirror, term for term, the SQL preprocessing of Appendix B.
package weights

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// RankTF is one interned token occurrence of a record: the token's rank in
// the sorted token order and its frequency in the record.
type RankTF struct {
	Rank int32
	TF   int32
}

// Corpus holds the collection statistics of a tokenized base relation,
// indexed by token rank (position in the sorted token order). The integer
// counters — N, cs, df, cf — are the whole state: every weight is a pure
// function of them, so a relation that changes by a few records produces
// its next Corpus by adjusting counters (New over spliced arrays), never by
// recounting. The two floating-point aggregates are order-sensitive sums
// and are derived on first use: the mean idf over the sorted tokens, and
// the per-token Σ tf/dl that the caller's supplier sums in record order.
// A Corpus is immutable and safe for concurrent use.
type Corpus struct {
	n      int      // number of records
	cs     int      // total number of tokens in the collection
	tokens []string // distinct tokens, sorted: rank order
	df     []int32  // records containing each token
	cf     []int32  // total occurrences of each token
	pml    struct {
		once sync.Once
		src  func() []float64
		v    []float64
	}
	avg struct {
		once sync.Once
		v    float64
	}
}

// New wraps rank-indexed integer counters as collection statistics. tokens
// must be sorted and distinct, df and cf parallel to it. sumPML supplies the
// per-rank Σ_D tf(t,D)/dl(D) sums on first use (see SumPML); nil means all
// zero. The arrays are retained, not copied.
func New(tokens []string, df, cf []int32, n, cs int, sumPML func() []float64) *Corpus {
	c := &Corpus{n: n, cs: cs, tokens: tokens, df: df, cf: cf}
	c.pml.src = sumPML
	return c
}

// SumPML is the canonical form of the per-token Σ tf/dl aggregate: records
// in storage order, so the float sums are the ones a fresh build produces.
// Zero-length records contribute nothing.
func SumPML(pairs [][]RankTF, dls []int, tokens int) []float64 {
	sums := make([]float64, tokens)
	for i, row := range pairs {
		if dls[i] == 0 {
			continue
		}
		dl := float64(dls[i])
		for _, p := range row {
			sums[p.Rank] += float64(p.TF) / dl
		}
	}
	return sums
}

// Build computes corpus statistics from one token multiset per record.
func Build(docs [][]string) *Corpus {
	seen := map[string]struct{}{}
	for _, doc := range docs {
		for _, t := range doc {
			seen[t] = struct{}{}
		}
	}
	tokens := make([]string, 0, len(seen))
	for t := range seen {
		tokens = append(tokens, t)
	}
	sort.Strings(tokens)
	c := &Corpus{n: len(docs), tokens: tokens, df: make([]int32, len(tokens)), cf: make([]int32, len(tokens))}
	pairs := make([][]RankTF, len(docs))
	dls := make([]int, len(docs))
	for i, doc := range docs {
		dls[i] = len(doc)
		c.cs += len(doc)
		ranks := make([]int32, len(doc))
		for j, t := range doc {
			ranks[j], _ = c.Rank(t)
		}
		pairs[i] = CountRanks(ranks)
		for _, p := range pairs[i] {
			c.df[p.Rank]++
			c.cf[p.Rank] += p.TF
		}
	}
	c.pml.src = func() []float64 { return SumPML(pairs, dls, len(tokens)) }
	return c
}

// CountRanks folds a multiset of token ranks into rank-sorted (rank, tf)
// pairs. It sorts ranks in place.
func CountRanks(ranks []int32) []RankTF {
	slices.Sort(ranks)
	n := 0
	for i, r := range ranks {
		if i == 0 || r != ranks[i-1] {
			n++
		}
	}
	pairs := make([]RankTF, 0, n)
	for _, r := range ranks {
		if n := len(pairs); n > 0 && pairs[n-1].Rank == r {
			pairs[n-1].TF++
		} else {
			pairs = append(pairs, RankTF{Rank: r, TF: 1})
		}
	}
	return pairs
}

// SortedTokens returns every distinct token of the base relation in sorted
// order — the canonical iteration order used wherever floating-point sums
// must be bit-deterministic, and the order ranks index. The slice is shared
// and must not be modified.
func (c *Corpus) SortedTokens() []string { return c.tokens }

// Rank returns the position of a token in the sorted token order, or false
// for tokens absent from the base relation.
func (c *Corpus) Rank(token string) (int32, bool) {
	i, ok := slices.BinarySearch(c.tokens, token)
	return int32(i), ok
}

// NumRecords returns N, the number of records in the base relation.
func (c *Corpus) NumRecords() int { return c.n }

// DF returns the document frequency of a token (records containing it).
func (c *Corpus) DF(token string) int {
	if r, ok := c.Rank(token); ok {
		return int(c.df[r])
	}
	return 0
}

// CF returns the collection frequency of a token (total occurrences).
func (c *Corpus) CF(token string) int {
	if r, ok := c.Rank(token); ok {
		return int(c.cf[r])
	}
	return 0
}

// DFs and CFs expose the rank-indexed counter columns (read-only).
func (c *Corpus) DFs() []int32 { return c.df }
func (c *Corpus) CFs() []int32 { return c.cf }

// CS returns the raw collection size: the total number of tokens.
func (c *Corpus) CS() int { return c.cs }

// AvgDL returns the average number of tokens per record.
func (c *Corpus) AvgDL() float64 {
	if c.n == 0 {
		return 0
	}
	return float64(c.cs) / float64(c.n)
}

// Known reports whether the token occurs anywhere in the base relation.
func (c *Corpus) Known(token string) bool {
	_, ok := c.Rank(token)
	return ok
}

// Tokens returns the number of distinct tokens in the corpus.
func (c *Corpus) Tokens() int { return len(c.tokens) }

// IDFAt is the idf of the token at rank r: log(N) − log(df).
func (c *Corpus) IDFAt(r int32) float64 {
	return math.Log(float64(c.n)) - math.Log(float64(c.df[r]))
}

// IDF returns the inverse document frequency weight used by the tf-idf and
// combination predicates: log(N) − log(df). Tokens absent from the base
// relation receive the average idf over all known tokens, the paper's
// convention for unseen query tokens (§4.5).
func (c *Corpus) IDF(token string) float64 {
	if r, ok := c.Rank(token); ok {
		return c.IDFAt(r)
	}
	return c.AvgIDF()
}

// AvgIDF returns the mean idf over all tokens of the base relation, the
// weight assigned to unseen query tokens. Summed in sorted-token order on
// first use, so the average is bit-deterministic.
func (c *Corpus) AvgIDF() float64 {
	c.avg.once.Do(func() {
		if len(c.tokens) == 0 {
			return
		}
		sum := 0.0
		for r := range c.tokens {
			sum += c.IDFAt(int32(r))
		}
		c.avg.v = sum / float64(len(c.tokens))
	})
	return c.avg.v
}

// RSAt is the RS weight of the token at rank r (see RS).
func (c *Corpus) RSAt(r int32) float64 { return c.rs(float64(c.df[r])) }

// RS returns the modified Robertson–Sparck Jones weight of Eq. 3.5:
//
//	w(1)(t) = log((N − n_t + 0.5) / (n_t + 0.5))
//
// This is the weighting scheme the paper selects for the weighted overlap
// predicates (§5.3.1) and the idf part of BM25. It can be negative for
// tokens occurring in more than half the records.
func (c *Corpus) RS(token string) float64 { return c.rs(float64(c.DF(token))) }

func (c *Corpus) rs(nt float64) float64 {
	n := float64(c.n)
	return math.Log(n-nt+0.5) - math.Log(nt+0.5)
}

// sumPML returns the per-rank Σ tf/dl column, asking the supplier once.
func (c *Corpus) sumPML() []float64 {
	c.pml.once.Do(func() {
		if c.pml.src == nil {
			c.pml.v = make([]float64, len(c.tokens))
			return
		}
		c.pml.v, c.pml.src = c.pml.src(), nil
	})
	return c.pml.v
}

// PavgAt is Pavg of the token at rank r.
func (c *Corpus) PavgAt(r int32) float64 { return c.sumPML()[r] / float64(c.df[r]) }

// Pavg returns the mean probability of the token in the records containing
// it (Eq. 3.8); zero for unseen tokens.
func (c *Corpus) Pavg(token string) float64 {
	if r, ok := c.Rank(token); ok {
		return c.PavgAt(r)
	}
	return 0
}

// CFCSAt is CFCS of the token at rank r.
func (c *Corpus) CFCSAt(r int32) float64 {
	if c.cs == 0 {
		return 0
	}
	return float64(c.cf[r]) / float64(c.cs)
}

// CFCS returns cf_t/cs, the background probability of a token (Eq. 3.7's
// "otherwise" branch); zero when the collection is empty.
func (c *Corpus) CFCS(token string) float64 {
	if c.cs == 0 {
		return 0
	}
	return float64(c.CF(token)) / float64(c.cs)
}

// TFIDF computes the normalized tf-idf weights of one record (§3.2.1):
//
//	w(t, S) = tf(t,S)·idf(t) / sqrt(Σ_t' (tf(t',S)·idf(t'))²)
//
// Only tokens known to the corpus participate, mirroring the SQL join with
// BASE_IDF; unknown tokens would otherwise distort the norm relative to the
// declarative realization.
func (c *Corpus) TFIDF(counts map[string]int) map[string]float64 {
	// Iterate tokens in rank (= sorted) order so the float norm (and
	// therefore every weight) is bit-identical across calls regardless of
	// map order.
	known := make([]RankTF, 0, len(counts))
	for t, tf := range counts {
		if r, ok := c.Rank(t); ok {
			known = append(known, RankTF{Rank: r, TF: int32(tf)})
		}
	}
	slices.SortFunc(known, func(a, b RankTF) int { return int(a.Rank) - int(b.Rank) })
	norm := 0.0
	for _, p := range known {
		w := float64(p.TF) * c.IDFAt(p.Rank)
		norm += w * w
	}
	out := make(map[string]float64, len(known))
	if norm == 0 {
		return out
	}
	norm = math.Sqrt(norm)
	for _, p := range known {
		out[c.tokens[p.Rank]] = float64(p.TF) * c.IDFAt(p.Rank) / norm
	}
	return out
}

// ---- persistence ----

// StatsData is the flat, rank-indexed form of a Corpus used by the
// persistence layer: three arrays in sorted token order plus the scalars.
type StatsData struct {
	N      int
	CS     int
	AvgDL  float64
	AvgIDF float64
	DF     []int64
	CF     []int64
	SumPML []float64
}

// Export flattens the corpus statistics, materializing both float
// aggregates.
func (c *Corpus) Export() StatsData {
	d := StatsData{
		N:      c.n,
		CS:     c.cs,
		AvgDL:  c.AvgDL(),
		AvgIDF: c.AvgIDF(),
		DF:     make([]int64, len(c.tokens)),
		CF:     make([]int64, len(c.tokens)),
		SumPML: c.sumPML(),
	}
	for i := range c.tokens {
		d.DF[i] = int64(c.df[i])
		d.CF[i] = int64(c.cf[i])
	}
	return d
}

// FromData rebuilds a Corpus from its flat form. The float aggregates are
// restored bit-exactly from the data rather than recomputed, so a restored
// corpus answers every weight lookup with the same bits as the corpus
// Export flattened.
func FromData(tokens []string, d StatsData) (*Corpus, error) {
	if len(d.DF) != len(tokens) || len(d.CF) != len(tokens) || len(d.SumPML) != len(tokens) {
		return nil, fmt.Errorf("weights: stats arrays (%d/%d/%d entries) do not match %d tokens",
			len(d.DF), len(d.CF), len(d.SumPML), len(tokens))
	}
	c := &Corpus{n: d.N, cs: d.CS, tokens: tokens, df: make([]int32, len(tokens)), cf: make([]int32, len(tokens))}
	for i := range tokens {
		c.df[i] = int32(d.DF[i])
		c.cf[i] = int32(d.CF[i])
	}
	c.pml.once.Do(func() { c.pml.v = d.SumPML })
	c.avg.once.Do(func() { c.avg.v = d.AvgIDF })
	return c, nil
}

// BM25Params are the free parameters of the BM25 predicate. The paper sets
// k1=1.5, k3=8 and b=0.675 (§5.3.2, mid-range of the TREC-4 settings).
type BM25Params struct {
	K1 float64
	K3 float64
	B  float64
}

// DefaultBM25 returns the paper's parameter settings.
func DefaultBM25() BM25Params { return BM25Params{K1: 1.5, K3: 8, B: 0.675} }

// BM25Doc computes the record-side BM25 weights w_d(t, D) of Eq. 3.4 for a
// record with token counts and total length dl:
//
//	w_d(t,D) = w(1)(t) · (k1+1)·tf / (K(D) + tf)
//	K(D)     = k1·((1−b) + b·|D|/avgdl)
func (c *Corpus) BM25Doc(counts map[string]int, dl int, p BM25Params) map[string]float64 {
	kd := p.K1 * ((1 - p.B) + p.B*float64(dl)/c.AvgDL())
	out := make(map[string]float64, len(counts))
	for t, tf := range counts {
		tff := float64(tf)
		out[t] = c.RS(t) * (p.K1 + 1) * tff / (kd + tff)
	}
	return out
}

// BM25Query computes the query-side weight w_q(t, Q) = (k3+1)·tf/(k3+tf).
func BM25Query(tf int, p BM25Params) float64 {
	tff := float64(tf)
	return (p.K3 + 1) * tff / (p.K3 + tff)
}

// LMRecord holds the language-model quantities of one record (§3.3.1): the
// smoothed probability p̂(t|M_D) for each token of the record, and
// Σ_{t∈D} log(1 − p̂(t|M_D)), the term the declarative realization stores in
// BASE_SUMCOMPMBASE.
type LMRecord struct {
	PM         map[string]float64
	SumCompLog float64
}

// LM computes the language-model record quantities:
//
//	p̂(t|M_D) = p̂_ml(t,D)^(1−R̂) · p̂_avg(t)^R̂    for tf(t,D) > 0
//	R̂_t,D    = 1/(1+f̄) · (f̄/(1+f̄))^tf,  f̄ = p̂_avg(t)·dl_D
func (c *Corpus) LM(counts map[string]int, dl int) LMRecord {
	rec := LMRecord{PM: make(map[string]float64, len(counts))}
	if dl == 0 {
		return rec
	}
	// SumCompLog accumulates floats; sorted iteration keeps it
	// bit-deterministic, so incremental corpus maintenance reproduces a
	// fresh build exactly.
	tokens := make([]string, 0, len(counts))
	for t := range counts {
		tokens = append(tokens, t)
	}
	sort.Strings(tokens)
	for _, t := range tokens {
		tf := counts[t]
		pml := float64(tf) / float64(dl)
		pavg := c.Pavg(t)
		fbar := pavg * float64(dl)
		risk := (1.0 / (1.0 + fbar)) * math.Pow(fbar/(1.0+fbar), float64(tf))
		pm := math.Pow(pml, 1.0-risk) * math.Pow(pavg, risk)
		// A token that always occurs alone yields pm = 1 and an infinite
		// log(1−pm); clamp just below 1 so degenerate single-token records
		// stay rankable.
		if pm > 1-1e-12 {
			pm = 1 - 1e-12
		}
		rec.PM[t] = pm
		rec.SumCompLog += math.Log(1.0 - pm)
	}
	return rec
}

// HMM computes the per-token weights of the rewritten two-state HMM score
// (Eq. 4.6): weight(t) = 1 + a1·P(t|D) / (a0·P(t|GE)), with P(t|D) the
// maximum-likelihood estimate tf/dl and P(t|GE) = cf/cs. The similarity is
// the product over matched query tokens of these weights.
func (c *Corpus) HMM(counts map[string]int, dl int, a0 float64) map[string]float64 {
	a1 := 1 - a0
	out := make(map[string]float64, len(counts))
	if dl == 0 {
		return out
	}
	for t, tf := range counts {
		ptge := c.CFCS(t)
		if ptge == 0 {
			continue
		}
		pml := float64(tf) / float64(dl)
		out[t] = 1 + a1*pml/(a0*ptge)
	}
	return out
}
