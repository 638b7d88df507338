// Package tokenize implements the tokenization schemes of the paper's
// preprocessing phase (Appendix A): q-gram extraction with '$'-padding and
// whitespace folding (§5.3.3), word tokenization, and q-gram extraction from
// individual word tokens (used by the combination predicates).
package tokenize

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// PadRune is the special symbol the paper inserts in place of whitespace and
// at string boundaries before q-gram extraction ("e.g. $", §5.3.3).
const PadRune = '$'

// QGrams returns the multiset of q-grams of s following the paper's scheme:
// q−1 pad symbols replace every whitespace run and are prepended/appended to
// the string, and the string is upper-cased, so that word order is fully
// decoupled from the grams ("Department of Computer Science" vs "Computer
// Science Department"). For q ≤ 1 the padded characters are omitted and the
// individual characters are returned.
//
// The result preserves duplicates (token frequency matters for tf-based
// predicates); use Counts to collapse it into a frequency map.
func QGrams(s string, q int) []string {
	if q <= 1 {
		runes := []rune(strings.ToUpper(collapseSpace(s)))
		out := make([]string, 0, len(runes))
		for _, r := range runes {
			if r != ' ' {
				out = append(out, string(r))
			}
		}
		return out
	}
	pad := strings.Repeat(string(PadRune), q-1)
	body := strings.ToUpper(collapseSpace(s))
	body = strings.ReplaceAll(body, " ", pad)
	padded := []rune(pad + body + pad)
	if len(padded) < q {
		return nil
	}
	out := make([]string, 0, len(padded)-q+1)
	for i := 0; i+q <= len(padded); i++ {
		out = append(out, string(padded[i:i+q]))
	}
	return out
}

// WordQGrams returns the q-grams of a single word token, padded with q−1 pad
// symbols on both sides and upper-cased. It is the per-word tokenization the
// combination predicates (GES variants, SoftTFIDF) use to compare word
// tokens (Appendix A.3). For q ≤ 1 the grams are the word's characters. The
// grams are substrings of one padded copy of the word, in which every
// invalid UTF-8 byte reads as U+FFFD.
func WordQGrams(word string, q int) []string {
	q = max(q, 1)
	pad := strings.Repeat(string(PadRune), q-1)
	padded := pad + strings.ToUpper(word) + pad
	if !utf8.ValidString(padded) {
		padded = string([]rune(padded))
	}
	n := utf8.RuneCountInString(padded)
	if n < q {
		return nil
	}
	out := make([]string, 0, n-q+1)
	from, to := 0, 0
	for range q {
		_, size := utf8.DecodeRuneInString(padded[to:])
		to += size
	}
	for {
		out = append(out, padded[from:to])
		if to == len(padded) {
			return out
		}
		_, size := utf8.DecodeRuneInString(padded[from:])
		from += size
		_, size = utf8.DecodeRuneInString(padded[to:])
		to += size
	}
}

// EditNormalize prepares a string for edit-based comparison: whitespace
// runs collapse to the q-gram pad sequence (q−1 pad symbols, minimum one)
// and letters are upper-cased, so that a q-gram filter and the verified
// edit distance operate on the same text (§4.4).
func EditNormalize(s string, q int) string {
	n := q - 1
	if n < 1 {
		n = 1
	}
	sep := strings.Repeat(string(PadRune), n)
	return strings.ToUpper(strings.Join(strings.FieldsFunc(s, unicode.IsSpace), sep))
}

// Words splits s into word tokens on Unicode whitespace, dropping empty
// tokens (Appendix A.2). Case is preserved: word-level similarity functions
// such as Jaro–Winkler are case-sensitive in the paper's framework, and the
// weighted predicates look words up verbatim.
func Words(s string) []string {
	return strings.FieldsFunc(s, unicode.IsSpace)
}

// Counts collapses a token multiset into a token → frequency map.
func Counts(tokens []string) map[string]int {
	m := make(map[string]int, len(tokens))
	for _, t := range tokens {
		m[t]++
	}
	return m
}

// Distinct returns the distinct tokens of the multiset, in first-seen order.
func Distinct(tokens []string) []string {
	seen := make(map[string]struct{}, len(tokens))
	out := make([]string, 0, len(tokens))
	for _, t := range tokens {
		if _, ok := seen[t]; ok {
			continue
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}

// collapseSpace trims s and replaces every run of Unicode whitespace with a
// single ASCII space, so that q-gram padding is insensitive to the flavour
// and number of separator characters.
func collapseSpace(s string) string {
	return strings.Join(strings.FieldsFunc(s, unicode.IsSpace), " ")
}
