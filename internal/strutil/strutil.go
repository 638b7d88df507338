// Package strutil implements the character-level string similarity kernels
// used throughout the benchmark: Levenshtein edit distance and edit
// similarity (paper §3.4), and the Jaro and Jaro–Winkler measures used as
// the word-level similarity inside SoftTFIDF (paper §3.5, §5.3.2).
//
// All functions operate on Unicode code points (runes), not bytes, so that
// multi-byte characters count as single edit units.
//
// Levenshtein, EditSimilarity, Jaro and JaroWinkler take an allocation-free
// fast path when both inputs are non-empty, ASCII and at most 64 bytes long
// — every word token of the benchmark's relations: the edit distance runs
// the Myers/Hyyrö bit-vector recurrence over one machine word, and Jaro
// keeps its match flags in two bit masks. Any other input decodes each
// string to runes once and runs the reference dynamic programs below. Both
// paths compute the same integers and evaluate the same float expressions,
// so which one ran is unobservable in the result (FuzzWordKernels).
package strutil

import (
	"math/bits"
	"sync"
	"unsafe"
)

// bitMask is the machine word of a bit-vector kernel, one bit per character.
// Inputs of at most 16 bytes run on uint16 — the kernels' cost at word length
// is dominated by zeroing the 128-entry character table, which is 256 bytes
// there instead of 1 KiB — and inputs of at most maxBitLen bytes on uint64.
type bitMask interface{ uint16 | uint64 }

const maxBitLen = 64

// asciiTable fills the zeroed peq so that it maps each ASCII character to
// the bit mask of the positions holding it in s. The result accumulates the
// bytes seen: a set high bit means s was not ASCII and the table is garbage.
func asciiTable[M bitMask](peq *[128]M, s string) (or byte) {
	for i := 0; i < len(s); i++ {
		peq[s[i]&127] |= 1 << uint(i)
		or |= s[i]
	}
	return or
}

// Levenshtein returns the classic Levenshtein edit distance between a and b:
// the minimum number of single-character insertions, deletions and
// substitutions required to transform a into b. Copy has cost zero and all
// other operations unit cost, matching the paper's §3.4 cost model.
func Levenshtein(a, b string) int {
	if d, ok := levenshteinASCII(a, b); ok {
		return d
	}
	return levenshteinRunes([]rune(a), []rune(b))
}

// levenshteinRunes is the reference single-row dynamic program.
func levenshteinRunes(ra, rb []rune) int {
	n, m := len(ra), len(rb)
	if n == 0 {
		return m
	}
	if m == 0 {
		return n
	}
	// Single-row dynamic program: prev holds row i-1, cur is built in place.
	prev := make([]int, m+1)
	cur := make([]int, m+1)
	for j := 0; j <= m; j++ {
		prev[j] = j
	}
	for i := 1; i <= n; i++ {
		cur[0] = i
		ai := ra[i-1]
		for j := 1; j <= m; j++ {
			cost := 1
			if ai == rb[j-1] {
				cost = 0
			}
			d := prev[j-1] + cost        // substitute / copy
			if v := prev[j] + 1; v < d { // delete
				d = v
			}
			if v := cur[j-1] + 1; v < d { // insert
				d = v
			}
			cur[j] = d
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

// levenshteinASCII is the fast path of Levenshtein; ok is false when the
// inputs do not qualify.
func levenshteinASCII(a, b string) (dist int, ok bool) {
	switch n := max(len(a), len(b)); {
	case len(a) == 0 || len(b) == 0:
		return 0, false
	case n <= 16:
		return levenshteinBits[uint16](a, b)
	case n <= maxBitLen:
		return levenshteinBits[uint64](a, b)
	}
	return 0, false
}

// levenshteinBits is the Myers/Hyyrö bit-parallel edit distance: column j of
// the dynamic program is held as the vertical delta bit-vectors (pv, mv)
// over the characters of a, and one step per character of b advances the
// whole column with a dozen word operations. score tracks the bottom cell,
// D[|a|][j]. a and b are non-empty and fit M; ok reports that they were
// ASCII.
func levenshteinBits[M bitMask](a, b string) (dist int, ok bool) {
	if len(a) < len(b) {
		// The distance is symmetric and a step of the recurrence costs more
		// than a table entry: walk the shorter string.
		a, b = b, a
	}
	var peq [128]M
	or := asciiTable(&peq, a)
	pv, mv := ^M(0), M(0)
	top := uint(len(a) - 1) // bit of the bottom row
	score := len(a)
	for j := 0; j < len(b); j++ {
		or |= b[j]
		eq := peq[b[j]&127]
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		score += int(ph>>top&1) - int(mh>>top&1)
		ph = ph<<1 | 1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}
	return score, or < 0x80
}

// LevenshteinWithin computes the Levenshtein distance between a and b if it
// is at most k, using a banded dynamic program in O(k·min(n,m)) time. The
// boolean result reports whether the true distance is ≤ k; when it is false
// the returned distance is an unspecified value > k.
//
// This is the kernel behind the q-gram filtered edit predicate: candidates
// that survive count/length filtering are verified with a small band. ASCII
// inputs are read as bytes in place and the two rows come from a pool, so a
// verification allocates nothing; other inputs decode to runes first.
func LevenshteinWithin(a, b string, k int) (int, bool) {
	if k < 0 {
		return 0, false
	}
	rows := bandRows.Get().(*[]int)
	defer bandRows.Put(rows)
	if isASCII(a) && isASCII(b) {
		// Read-only byte views of the strings: the band never writes them.
		return levenshteinBand(unsafe.Slice(unsafe.StringData(a), len(a)), unsafe.Slice(unsafe.StringData(b), len(b)), k, rows)
	}
	return levenshteinBand([]rune(a), []rune(b), k, rows)
}

// bandRows pools the two dynamic-program rows of LevenshteinWithin.
var bandRows = sync.Pool{New: func() any { return new([]int) }}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// levenshteinBand is LevenshteinWithin over bytes or runes, with its two
// rows carved from *rows (grown as needed).
func levenshteinBand[E byte | rune](ra, rb []E, k int, rows *[]int) (int, bool) {
	n, m := len(ra), len(rb)
	if n > m {
		ra, rb = rb, ra
		n, m = m, n
	}
	if m-n > k {
		return m - n, false
	}
	const inf = 1 << 29
	// Band of width 2k+1 around the diagonal.
	if cap(*rows) < 2*(m+1) {
		*rows = make([]int, 2*(m+1))
	}
	buf := (*rows)[:2*(m+1)]
	prev, cur := buf[:m+1], buf[m+1:]
	for j := 0; j <= m; j++ {
		if j <= k {
			prev[j] = j
		} else {
			prev[j] = inf
		}
	}
	for i := 1; i <= n; i++ {
		lo := i - k
		if lo < 1 {
			lo = 1
		}
		hi := i + k
		if hi > m {
			hi = m
		}
		if lo > 1 {
			cur[lo-1] = inf
		} else {
			cur[0] = i
		}
		ai := ra[i-1]
		rowMin := inf
		for j := lo; j <= hi; j++ {
			cost := 1
			if ai == rb[j-1] {
				cost = 0
			}
			d := prev[j-1] + cost
			if v := prev[j] + 1; v < d {
				d = v
			}
			if j > lo || lo == 1 {
				if v := cur[j-1] + 1; v < d {
					d = v
				}
			}
			cur[j] = d
			if d < rowMin {
				rowMin = d
			}
		}
		if hi < m {
			cur[hi+1] = inf
		}
		if rowMin > k {
			return rowMin, false
		}
		prev, cur = cur, prev
	}
	if prev[m] > k {
		return prev[m], false
	}
	return prev[m], true
}

// EditSimilarity returns the edit similarity of the paper's Eq. 3.13:
//
//	sim_edit(Q, D) = 1 − tc(Q, D) / max{|Q|, |D|}
//
// where tc is the Levenshtein distance. Two empty strings have similarity 1.
// The result is always in [0, 1].
func EditSimilarity(a, b string) float64 {
	if d, ok := levenshteinASCII(a, b); ok {
		return editSimilarity(d, len(a), len(b))
	}
	ra, rb := []rune(a), []rune(b)
	return editSimilarity(levenshteinRunes(ra, rb), len(ra), len(rb))
}

// editSimilarity is Eq. 3.13 over an edit distance and the two lengths.
func editSimilarity(dist, la, lb int) float64 {
	maxLen := max(la, lb)
	if maxLen == 0 {
		return 1
	}
	return 1 - float64(dist)/float64(maxLen)
}

// Jaro returns the Jaro similarity between a and b, in [0, 1]. Characters
// match if they are equal and no farther apart than
// ⌊max(|a|,|b|)/2⌋−1 positions; t is half the number of transpositions among
// matched characters:
//
//	jaro = (m/|a| + m/|b| + (m−t)/m) / 3
func Jaro(a, b string) float64 {
	if j, ok := jaroASCII(a, b); ok {
		return j
	}
	return jaroRunes([]rune(a), []rune(b))
}

// jaroRunes is the reference Jaro computation with per-character match
// flags.
func jaroRunes(ra, rb []rune) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := la
	if lb > window {
		window = lb
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	matchedA := make([]bool, la)
	matchedB := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window
		if hi >= lb {
			hi = lb - 1
		}
		for j := lo; j <= hi; j++ {
			if !matchedB[j] && ra[i] == rb[j] {
				matchedA[i] = true
				matchedB[j] = true
				matches++
				break
			}
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions among matched characters in order.
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchedA[i] {
			continue
		}
		for !matchedB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	return jaroScore(matches, transpositions, la, lb)
}

// jaroScore evaluates the Jaro formula over the match and transposition
// counts.
func jaroScore(matches, transpositions, la, lb int) float64 {
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// jaroASCII is the fast path of Jaro; ok is false when the inputs do not
// qualify.
func jaroASCII(a, b string) (jaro float64, ok bool) {
	switch n := max(len(a), len(b)); {
	case len(a) == 0 || len(b) == 0:
		return 0, false
	case n <= 16:
		return jaroBits[uint16](a, b)
	case n <= maxBitLen:
		return jaroBits[uint64](a, b)
	}
	return 0, false
}

// jaroBits keeps the match flags in two bit masks, and "the first unmatched
// equal character of b inside the window" is the lowest set bit of one AND
// — the same greedy assignment as the reference loop, so matches and
// transpositions are the same integers. a and b are non-empty and fit M; ok
// reports that they were ASCII.
func jaroBits[M bitMask](a, b string) (jaro float64, ok bool) {
	la, lb := len(a), len(b)
	window := max(max(la, lb)/2-1, 0)
	var peq [128]M
	or := asciiTable(&peq, b)
	var matchedA, matchedB M
	for i := 0; i < la; i++ {
		or |= a[i]
		lo, hi := max(i-window, 0), min(i+window, lb-1)
		if lo > hi {
			continue // the window has left b
		}
		inWindow := (M(1)<<uint(hi+1) - 1) &^ (M(1)<<uint(lo) - 1)
		free := peq[a[i]&127] & inWindow &^ matchedB
		first := free & -free // zero when a[i] finds no partner
		matchedB |= first
		matchedA |= M((uint64(first)|-uint64(first))>>63) << uint(i)
	}
	if or >= 0x80 {
		return 0, false
	}
	if matchedA == 0 {
		return 0, true
	}
	// Count transpositions among matched characters in order.
	transpositions := 0
	for ma, mb := uint64(matchedA), uint64(matchedB); ma != 0; ma, mb = ma&(ma-1), mb&(mb-1) {
		if a[bits.TrailingZeros64(ma)] != b[bits.TrailingZeros64(mb)] {
			transpositions++
		}
	}
	return jaroScore(bits.OnesCount64(uint64(matchedA)), transpositions, la, lb), true
}

// JaroWinklerPrefixScale is the standard Winkler prefix scaling factor p.
const JaroWinklerPrefixScale = 0.1

// JaroWinklerMaxPrefix is the standard cap on the common-prefix length used
// by the Winkler adjustment.
const JaroWinklerMaxPrefix = 4

// JaroWinkler returns the Jaro–Winkler similarity between a and b:
// the Jaro similarity boosted by the length ℓ (≤ 4) of the common prefix,
//
//	jw = jaro + ℓ·p·(1 − jaro), p = 0.1
//
// This is the word-level predicate the paper pairs with SoftTFIDF (θ=0.8).
func JaroWinkler(a, b string) float64 {
	if j, ok := jaroASCII(a, b); ok {
		return winkler(j, bytePrefix(a, b))
	}
	ra, rb := []rune(a), []rune(b)
	return winkler(jaroRunes(ra, rb), runePrefix(ra, rb))
}

// runePrefix is the Winkler prefix length: common leading characters, at
// most JaroWinklerMaxPrefix.
func runePrefix(ra, rb []rune) int {
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < JaroWinklerMaxPrefix && ra[prefix] == rb[prefix] {
		prefix++
	}
	return prefix
}

// WordSig is the summary of a word that the signature bounds read: its
// length, its letter set folded to 64 bits, its letter counts in 32 classes
// (one byte each, packed four words wide) and its first four bytes. Building
// one is a pass over the word; comparing two is a few dozen word operations,
// whatever their length. The zero WordSig stands for a word the bounds do
// not cover — empty or non-ASCII — and bounds against it return 1.
type WordSig struct {
	counts [4]uint64 // class c (byte & 31) is byte c&7 of counts[c>>3]; zero past maxBitLen bytes
	set    uint64    // bit (byte & 63) for every byte
	n      uint32    // length in bytes, 0 when uncovered
	prefix uint32    // the first min(n, 4) bytes, little-endian, zero-padded
}

// Sig returns the signature of w.
func Sig(w string) WordSig {
	var s WordSig
	var or byte
	for i := 0; i < len(w); i++ {
		c := w[i]
		or |= c
		s.set |= 1 << (c & 63)
		if len(w) <= maxBitLen { // no class count can pass 64: a byte holds it
			s.counts[c>>3&3] += 1 << (8 * (c & 7))
		}
		if i < JaroWinklerMaxPrefix {
			s.prefix |= uint32(c) << (8 * i)
		}
	}
	if or >= 0x80 || uint64(len(w)) > 1<<32-1 {
		return WordSig{}
	}
	s.n = uint32(len(w))
	return s
}

// EditBound returns an upper bound of EditSimilarity between the words of
// a and b. Each letter of the longer word that the shorter cannot pair with
// an equal letter costs at least one edit, so the distance is at least
// max(|a|,|b|) less the letters they share — the bag distance — and
// Eq. 3.13 over that distance bounds the similarity: shared / max(|a|,|b|)
// in real arithmetic. Folding letters into 32 classes only adds shared
// letters. The bound is evaluated with editSimilarity's own expression and
// IEEE division and subtraction are monotone, so it is ≥ EditSimilarity in
// floats too. Words longer than 64 bytes return 1, as does any uncovered
// word.
func (a *WordSig) EditBound(b *WordSig) float64 {
	if a.n == 0 || b.n == 0 || a.n > maxBitLen || b.n > maxBitLen {
		return 1
	}
	return editSimilarity(int(max(a.n, b.n))-sharedLetters(&a.counts, &b.counts), int(a.n), int(b.n))
}

// sharedLetters is Σ min(a[c], b[c]) over the 32 class counts, eight
// classes per word: every count is ≤ 64, so bytes never carry into each
// other.
func sharedLetters(a, b *[4]uint64) int {
	const hi = 0x8080808080808080
	var sum uint64
	for k := range a {
		x, y := a[k], b[k]
		ge := (((x | hi) - y) & hi >> 7) * 0xff // 0xff in the bytes where x ≥ y
		sum += y&ge | x&^ge
	}
	return int(sum * 0x0101010101010101 >> 56)
}

// JaroWinklerBound returns an upper bound of JaroWinkler between the words
// of a and b: the Jaro matches cannot exceed either length less the letters
// that word holds and the other lacks (letter sets are folded to 64 bits,
// which only loosens the bound), transpositions are taken as zero, and the
// common prefix is exact. A caller that only distinguishes values at or above
// a threshold θ — SoftTFIDF's CLOSE set — can skip the kernel where the bound
// falls short of θ; the bound is evaluated in floats, so compare it with a
// small slack. An uncovered word returns 1.
func (a *WordSig) JaroWinklerBound(b *WordSig) float64 {
	if a.n == 0 || b.n == 0 {
		return 1
	}
	la, lb := int(a.n), int(b.n)
	m := float64(min(la-bits.OnesCount64(a.set&^b.set), lb-bits.OnesCount64(b.set&^a.set)))
	prefix := min(bits.TrailingZeros32(a.prefix^b.prefix)/8, la, lb)
	return winkler((m/float64(la)+m/float64(lb)+1)/3, prefix)
}

// bytePrefix is runePrefix for ASCII strings.
func bytePrefix(a, b string) int {
	prefix := 0
	for prefix < len(a) && prefix < len(b) && prefix < JaroWinklerMaxPrefix && a[prefix] == b[prefix] {
		prefix++
	}
	return prefix
}

// winkler applies the common-prefix boost to a Jaro similarity.
func winkler(j float64, prefix int) float64 {
	return j + float64(prefix)*JaroWinklerPrefixScale*(1-j)
}
