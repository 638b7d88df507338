package tokenize

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestQGramsSimple(t *testing.T) {
	got := QGrams("ab", 2)
	want := []string{"$A", "AB", "B$"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("QGrams(ab,2) = %v, want %v", got, want)
	}
}

func TestQGramsWhitespaceFolding(t *testing.T) {
	// 'db lab' with q=3: whitespace becomes two pad chars, so word order is
	// captured only through the pads.
	got := QGrams("db lab", 3)
	want := []string{"$$D", "$DB", "DB$", "B$$", "$$L", "$LA", "LAB", "AB$", "B$$"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("QGrams(db lab,3) = %v, want %v", got, want)
	}
}

func TestQGramsUppercases(t *testing.T) {
	got := QGrams("aB", 2)
	want := []string{"$A", "AB", "B$"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("QGrams(aB,2) = %v, want %v", got, want)
	}
}

func TestQGramsMultipleSpaces(t *testing.T) {
	// Runs of whitespace collapse to one separator before padding.
	a := QGrams("db   lab", 2)
	b := QGrams("db lab", 2)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("whitespace runs should collapse: %v vs %v", a, b)
	}
}

func TestQGramsEmpty(t *testing.T) {
	if got := QGrams("", 3); len(got) != 2 {
		// "" pads to "$$$$" (2+2) giving 2 grams of "$$$".
		t.Errorf("QGrams(\"\",3) = %v, want two pad-only grams", got)
	}
	if got := QGrams("", 1); len(got) != 0 {
		t.Errorf("QGrams(\"\",1) = %v, want empty", got)
	}
}

func TestQGramsQ1(t *testing.T) {
	got := QGrams("ab c", 1)
	want := []string{"A", "B", "C"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("QGrams(ab c,1) = %v, want %v", got, want)
	}
}

func TestQGramsCountProperty(t *testing.T) {
	// For q>=2 the number of grams of a single word of n runes is n+q-1.
	f := func(raw string, qRaw uint8) bool {
		q := int(qRaw%3) + 2 // q in {2,3,4}
		word := sanitizeWord(raw)
		if word == "" {
			return true
		}
		got := QGrams(word, q)
		return len(got) == len([]rune(word))+q-1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQGramsWordOrderIndependenceOfInnerGrams(t *testing.T) {
	// Every gram of "a b" that is fully inside a word also appears in "b a".
	a := Counts(QGrams("department computer", 3))
	b := Counts(QGrams("computer department", 3))
	if !reflect.DeepEqual(a, b) {
		t.Errorf("full padding should make gram multiset order-independent:\n%v\n%v", a, b)
	}
}

func TestWordQGrams(t *testing.T) {
	got := WordQGrams("ab", 3)
	want := []string{"$$A", "$AB", "AB$", "B$$"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("WordQGrams(ab,3) = %v, want %v", got, want)
	}
}

func TestWordQGramsQ1(t *testing.T) {
	got := WordQGrams("Ab", 1)
	want := []string{"A", "B"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("WordQGrams(Ab,1) = %v, want %v", got, want)
	}
}

// TestWordQGramsMatchesRuneWindows checks the substring grams against
// windows over the padded word's rune slice, on multi-byte and invalid
// UTF-8 words and at every q up to past the padded length.
func TestWordQGramsMatchesRuneWindows(t *testing.T) {
	windows := func(word string, q int) []string {
		if q <= 1 {
			var out []string
			for _, r := range []rune(strings.ToUpper(word)) {
				out = append(out, string(r))
			}
			return out
		}
		pad := strings.Repeat(string(PadRune), q-1)
		padded := []rune(pad + strings.ToUpper(word) + pad)
		var out []string
		for i := 0; i+q <= len(padded); i++ {
			out = append(out, string(padded[i:i+q]))
		}
		return out
	}
	for _, word := range []string{"", "a", "ab", "straße", "東京大学", "naïve", "\xffa\xfe", "é\x80"} {
		for q := 0; q <= 6; q++ {
			got, want := WordQGrams(word, q), windows(word, q)
			if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
				t.Errorf("WordQGrams(%q, %d) = %q, want %q", word, q, got, want)
			}
		}
	}
}

func TestEditNormalize(t *testing.T) {
	if got := EditNormalize("db  lab", 3); got != "DB$$LAB" {
		t.Errorf("EditNormalize = %q", got)
	}
	if got := EditNormalize(" x ", 2); got != "X" {
		t.Errorf("EditNormalize trim = %q", got)
	}
}

func TestWords(t *testing.T) {
	got := Words("  Morgan  Stanley\tGroup\nInc. ")
	want := []string{"Morgan", "Stanley", "Group", "Inc."}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Words = %v, want %v", got, want)
	}
	if got := Words(""); len(got) != 0 {
		t.Errorf("Words(\"\") = %v, want empty", got)
	}
}

func TestCounts(t *testing.T) {
	got := Counts([]string{"a", "b", "a", "a"})
	want := map[string]int{"a": 3, "b": 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Counts = %v, want %v", got, want)
	}
}

func TestDistinct(t *testing.T) {
	got := Distinct([]string{"b", "a", "b", "c", "a"})
	want := []string{"b", "a", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Distinct = %v, want %v", got, want)
	}
}

func TestCountsSumEqualsLen(t *testing.T) {
	f := func(raw string) bool {
		grams := QGrams(sanitize(raw), 2)
		total := 0
		for _, c := range Counts(grams) {
			total += c
		}
		return total == len(grams)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// sanitizeWord keeps only letters/digits so q-gram counting is predictable.
func sanitizeWord(s string) string {
	var sb strings.Builder
	for _, r := range s {
		if (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') {
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

func sanitize(s string) string {
	var sb strings.Builder
	for _, r := range s {
		if (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') || r == ' ' {
			sb.WriteRune(r)
		}
	}
	return sb.String()
}
