package strutil

import (
	"math/bits"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLevenshteinKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"", "abc", 3},
		{"abc", "", 3},
		{"abc", "abc", 0},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"intention", "execution", 5},
		{"Saturday", "Sunday", 3},
		{"gumbo", "gambol", 2},
		{"Morgan Stanley", "Stanley Morgan", 14},
		{"a", "b", 1},
		{"ab", "ba", 2},
		{"日本語", "日本", 1},
		{"日本語", "本日語", 2},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinSymmetry(t *testing.T) {
	f := func(a, b string) bool {
		return Levenshtein(a, b) == Levenshtein(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinIdentity(t *testing.T) {
	f := func(a string) bool {
		return Levenshtein(a, a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinTriangleInequality(t *testing.T) {
	f := func(a, b, c string) bool {
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinBounds(t *testing.T) {
	f := func(a, b string) bool {
		d := Levenshtein(a, b)
		la, lb := len([]rune(a)), len([]rune(b))
		diff := la - lb
		if diff < 0 {
			diff = -diff
		}
		maxLen := la
		if lb > maxLen {
			maxLen = lb
		}
		return d >= diff && d <= maxLen
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinWithinMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := "abcde"
	randStr := func(n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		return sb.String()
	}
	for i := 0; i < 500; i++ {
		a := randStr(rng.Intn(12))
		b := randStr(rng.Intn(12))
		full := Levenshtein(a, b)
		for k := 0; k <= 12; k++ {
			d, ok := LevenshteinWithin(a, b, k)
			if ok != (full <= k) {
				t.Fatalf("LevenshteinWithin(%q,%q,%d): ok=%v, full=%d", a, b, k, ok, full)
			}
			if ok && d != full {
				t.Fatalf("LevenshteinWithin(%q,%q,%d) = %d, want %d", a, b, k, d, full)
			}
		}
	}
}

func TestLevenshteinWithinNegativeK(t *testing.T) {
	if _, ok := LevenshteinWithin("a", "a", -1); ok {
		t.Error("LevenshteinWithin with k<0 should report false")
	}
}

func TestEditSimilarityKnown(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"", "", 1},
		{"abc", "abc", 1},
		{"abc", "abd", 1 - 1.0/3},
		{"abcd", "", 0},
	}
	for _, c := range cases {
		if got := EditSimilarity(c.a, c.b); !close(got, c.want) {
			t.Errorf("EditSimilarity(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestEditSimilarityRange(t *testing.T) {
	f := func(a, b string) bool {
		s := EditSimilarity(a, b)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJaroKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"MARTHA", "MARHTA", 0.944444},
		{"DIXON", "DICKSONX", 0.766667},
		{"JELLYFISH", "SMELLYFISH", 0.896296},
		{"", "", 1},
		{"a", "", 0},
		{"", "a", 0},
		{"abc", "abc", 1},
		{"abc", "xyz", 0},
	}
	for _, c := range cases {
		if got := Jaro(c.a, c.b); !close(got, c.want) {
			t.Errorf("Jaro(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestJaroWinklerKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"MARTHA", "MARHTA", 0.961111},
		{"DIXON", "DICKSONX", 0.813333},
		{"STANLEY", "VALLEY", 0.746032},
		{"abc", "abc", 1},
	}
	for _, c := range cases {
		if got := JaroWinkler(c.a, c.b); !close(got, c.want) {
			t.Errorf("JaroWinkler(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestJaroSymmetryAndRange(t *testing.T) {
	f := func(a, b string) bool {
		s1, s2 := Jaro(a, b), Jaro(b, a)
		return close(s1, s2) && s1 >= 0 && s1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJaroWinklerDominatesJaro(t *testing.T) {
	f := func(a, b string) bool {
		return JaroWinkler(a, b) >= Jaro(a, b)-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJaroWinklerRange(t *testing.T) {
	f := func(a, b string) bool {
		s := JaroWinkler(a, b)
		return s >= 0 && s <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func close(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-5
}

// runeReference computes the four word kernels through the rune dynamic
// programs only — the pre-fast-path implementation, kept as the oracle the
// bit-vector paths are fuzzed against.
func runeReference(a, b string) (dist int, editSim, jaro, jw float64) {
	ra, rb := []rune(a), []rune(b)
	dist = levenshteinRunes(ra, rb)
	editSim = editSimilarity(dist, len(ra), len(rb))
	jaro = jaroRunes(ra, rb)
	return dist, editSim, jaro, winkler(jaro, runePrefix(ra, rb))
}

func checkWordKernels(t *testing.T, a, b string) {
	t.Helper()
	dist, editSim, jaro, jw := runeReference(a, b)
	if got := Levenshtein(a, b); got != dist {
		t.Errorf("Levenshtein(%q,%q) = %d, rune reference %d", a, b, got, dist)
	}
	// Float results must agree bit for bit, not within a tolerance: the
	// native↔declarative and optimized↔naive differentials compare scores
	// built from these values with ==.
	if got := EditSimilarity(a, b); got != editSim {
		t.Errorf("EditSimilarity(%q,%q) = %v, rune reference %v", a, b, got, editSim)
	}
	if got := Jaro(a, b); got != jaro {
		t.Errorf("Jaro(%q,%q) = %v, rune reference %v", a, b, got, jaro)
	}
	if got := JaroWinkler(a, b); got != jw {
		t.Errorf("JaroWinkler(%q,%q) = %v, rune reference %v", a, b, got, jw)
	}
	sa, sb := Sig(a), Sig(b)
	// The edit bound is evaluated with Eq. 3.13's own expression over a
	// smaller distance, so it holds in floats without slack.
	if bound := sa.EditBound(&sb); bound < editSim {
		t.Errorf("EditBound(%q,%q) = %v below EditSimilarity %v", a, b, bound, editSim)
	}
	// The JW bound holds in real arithmetic; in floats it may round a few
	// ulps under a value it equals, which is what its callers' slack absorbs.
	bound := sa.JaroWinklerBound(&sb)
	if ref := jaroWinklerBoundRef(a, b); bound != ref {
		t.Errorf("JaroWinklerBound(%q,%q) = %v, string reference %v", a, b, bound, ref)
	}
	if bound < jw-1e-12 {
		t.Errorf("JaroWinklerBound(%q,%q) = %v below JaroWinkler %v", a, b, bound, jw)
	}
	for _, k := range []int{0, 1, 2, dist - 1, dist, dist + 1} {
		d, ok := LevenshteinWithin(a, b, k)
		if ok != (dist <= k) || ok && d != dist {
			t.Errorf("LevenshteinWithin(%q,%q,%d) = %d, %v; Levenshtein %d", a, b, k, d, ok, dist)
		}
	}
}

// jaroWinklerBoundRef is the bound of WordSig.JaroWinklerBound computed on
// the strings themselves, the pre-signature implementation.
func jaroWinklerBoundRef(a, b string) float64 {
	la, lb := len(a), len(b)
	if la == 0 || lb == 0 {
		return 1
	}
	var setA, setB uint64
	var or byte
	for i := 0; i < la; i++ {
		setA |= 1 << (a[i] & 63)
		or |= a[i]
	}
	for i := 0; i < lb; i++ {
		setB |= 1 << (b[i] & 63)
		or |= b[i]
	}
	if or >= 0x80 {
		return 1
	}
	m := float64(min(la-bits.OnesCount64(setA&^setB), lb-bits.OnesCount64(setB&^setA)))
	return winkler((m/float64(la)+m/float64(lb)+1)/3, bytePrefix(a, b))
}

// wordKernelSeeds covers both sides of every fast-path condition: empty,
// ASCII, multi-byte, and lengths straddling the 16-byte (uint16 kernels) and
// 64-byte (uint64 kernels) limits.
func wordKernelSeeds() [][2]string {
	a63, a64, a65 := strings.Repeat("ab", 32)[:63], strings.Repeat("ab", 32), strings.Repeat("ab", 33)[:65]
	a15, a16, a17 := "ABCDEFGHIJKLMNO", "ABCDEFGHIJKLMNOP", "ABCDEFGHIJKLMNOPQ"
	return [][2]string{
		{a15, a16}, {a16, a16}, {a16, a17}, {a17, a15}, {a16, "PONMLKJIHGFEDCBA"}, {a16, "A"}, {"P", a17}, {a15 + "é", a16},
		{"", ""}, {"", "A"}, {"A", ""}, {"A", "A"}, {"A", "B"},
		{"MARTHA", "MARHTA"}, {"DWAYNE", "DUANE"}, {"DIXON", "DICKSONX"},
		{"kitten", "sitting"}, {"ABCDEFGH", "HGFEDCBA"}, {"AAAA", "AAAAAAAA"},
		{"日本語", "日本"}, {"naïve", "naive"}, {"é", "e"}, {"ab\x80", "ab"},
		{a63, a64}, {a64, a64}, {a64, a65}, {a65, a63}, {a64, strings.ToUpper(a64)},
		{a63 + "é", a64}, {strings.Repeat("x", 64), strings.Repeat("y", 64)},
		{strings.Repeat("xy", 32), strings.Repeat("yx", 32)},
	}
}

// TestWordKernelsMatchRuneReference runs the fuzz property over the seeds
// and a seeded random sample, so the plain test run covers it too.
func TestWordKernelsMatchRuneReference(t *testing.T) {
	for _, s := range wordKernelSeeds() {
		checkWordKernels(t, s[0], s[1])
	}
	rng := rand.New(rand.NewSource(7))
	alphabets := []string{"AB", "ABCDEFGHIJKLMNOPQRSTUVWXYZ", "ABé日"}
	word := func() string {
		alpha := []rune(alphabets[rng.Intn(len(alphabets))])
		n := rng.Intn(12)
		if rng.Intn(8) == 0 {
			n = 60 + rng.Intn(8)
		}
		out := make([]rune, n)
		for i := range out {
			out[i] = alpha[rng.Intn(len(alpha))]
		}
		return string(out)
	}
	for i := 0; i < 20000; i++ {
		checkWordKernels(t, word(), word())
	}
}

// FuzzWordKernels: whichever path Levenshtein, EditSimilarity, Jaro and
// JaroWinkler take, they return exactly what the rune reference returns; the
// two signature bounds hold; and LevenshteinWithin agrees with Levenshtein
// on either side of the distance.
func FuzzWordKernels(f *testing.F) {
	for _, s := range wordKernelSeeds() {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		checkWordKernels(t, a, b)
	})
}

// BenchmarkWordKernels times the two word-level kernels of the combination
// predicates, the two signature bounds that screen them and the banded edit
// distance of the edit predicate over word-length ASCII inputs — enough
// distinct pairs that the branch predictor cannot memorize them.
func BenchmarkWordKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	words := make([]string, 1024)
	sigs := make([]WordSig, len(words))
	for i := range words {
		w := make([]byte, 3+rng.Intn(10))
		for j := range w {
			w[j] = byte('A' + rng.Intn(26))
		}
		words[i] = string(w)
		sigs[i] = Sig(words[i])
	}
	for _, k := range []struct {
		name string
		f    func(i, j int) float64
	}{
		{"EditSimilarity", func(i, j int) float64 { return EditSimilarity(words[i], words[j]) }},
		{"JaroWinkler", func(i, j int) float64 { return JaroWinkler(words[i], words[j]) }},
		{"EditBound", func(i, j int) float64 { return sigs[i].EditBound(&sigs[j]) }},
		{"JaroWinklerBound", func(i, j int) float64 { return sigs[i].JaroWinklerBound(&sigs[j]) }},
		{"LevenshteinWithin", func(i, j int) float64 {
			d, _ := LevenshteinWithin(words[i], words[j], 3)
			return float64(d)
		}},
	} {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkFloat = k.f(i%7, i%len(words))
			}
		})
	}
}

var sinkFloat float64
