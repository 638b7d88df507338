package native

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
)

func randomEditRecords(n int, seed int64) []core.Record {
	rng := rand.New(rand.NewSource(seed))
	letters := "abcdefg "
	var records []core.Record
	for i := 0; i < n; i++ {
		ln := 5 + rng.Intn(20)
		var sb strings.Builder
		for j := 0; j < ln; j++ {
			sb.WriteByte(letters[rng.Intn(len(letters))])
		}
		text := strings.TrimSpace(sb.String()) + "z"
		records = append(records, core.Record{TID: i + 1, Text: text})
	}
	return records
}

// TestPositionalFilterNoFalseNegatives: the positional filter must return
// exactly the brute-force results thresholded at θ, like the count filter.
func TestPositionalFilterNoFalseNegatives(t *testing.T) {
	records := randomEditRecords(150, 3)
	for _, theta := range []float64{0.5, 0.7, 0.85} {
		cfgP := core.DefaultConfig()
		cfgP.EditTheta = theta
		cfgP.EditPositional = true
		positional, err := Build("EditDistance", records, cfgP)
		if err != nil {
			t.Fatal(err)
		}
		cfgB := core.DefaultConfig()
		cfgB.EditTheta = 0
		brute, err := Build("EditDistance", records, cfgB)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		for trial := 0; trial < 20; trial++ {
			q := records[rng.Intn(len(records))].Text
			if trial%2 == 0 {
				// Perturb the query to make it an inexact probe.
				r := []rune(q)
				r[rng.Intn(len(r))] = 'x'
				q = string(r)
			}
			pm, err := positional.Select(q)
			if err != nil {
				t.Fatal(err)
			}
			bm, err := brute.Select(q)
			if err != nil {
				t.Fatal(err)
			}
			want := map[int]float64{}
			for _, m := range bm {
				if m.Score >= theta {
					want[m.TID] = m.Score
				}
			}
			if len(pm) != len(want) {
				t.Fatalf("θ=%v query %q: positional %d results, brute %d", theta, q, len(pm), len(want))
			}
			for _, m := range pm {
				if ws, ok := want[m.TID]; !ok || math.Abs(ws-m.Score) > 1e-12 {
					t.Fatalf("θ=%v query %q tid %d: %v vs %v", theta, q, m.TID, m.Score, ws)
				}
			}
		}
	}
}

// TestPositionalFilterOnDerivedPositions attaches the positional edit
// filter to corpora whose gram positions it has to recount from the record
// text because the corpus keeps gram multisets only: a corpus loaded from a
// snapshot, corpora after a mutation script, and a loaded corpus after the
// same script. On each, the positional variant must return exactly the
// count-filter variant's matches, both naive scorers' and the brute-force
// ranking's cut at θ.
func TestPositionalFilterOnDerivedPositions(t *testing.T) {
	const theta = 0.7
	records := randomEditRecords(120, 5)
	cfg := core.DefaultConfig()
	cfg.EditTheta = theta
	build := func() *core.Corpus {
		c, err := core.NewCorpus(records, cfg, core.AllLayers)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	load := func(c *core.Corpus) *core.Corpus {
		var buf bytes.Buffer
		if err := c.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		lc, err := core.LoadSnapshot(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return lc
	}
	mutate := func(c *core.Corpus) *core.Corpus {
		rng := rand.New(rand.NewSource(8))
		for i, r := range randomEditRecords(30, 6) {
			var err error
			switch live := c.Records(); i % 3 {
			case 0:
				err = c.Insert(core.Record{TID: 1000 + i, Text: r.Text})
			case 1:
				err = c.Upsert(core.Record{TID: live[rng.Intn(len(live))].TID, Text: r.Text})
			default:
				err = c.Delete(live[rng.Intn(len(live))].TID)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	positional, brute := cfg, cfg
	positional.EditPositional = true
	brute.EditTheta = 0
	for name, c := range map[string]*core.Corpus{
		"loaded":             load(build()),
		"mutated":            mutate(build()),
		"loaded and mutated": mutate(load(build())),
	} {
		attach := func(cfg core.Config) core.Predicate {
			p, err := Attach("EditDistance", c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		pos, count, all := attach(positional), attach(cfg), attach(brute)
		live := c.Records()
		rng := rand.New(rand.NewSource(9))
		for trial := 0; trial < 20; trial++ {
			q := []rune(live[rng.Intn(len(live))].Text)
			if trial%2 == 0 {
				q[rng.Intn(len(q))] = 'x'
			}
			query := string(q)
			ranked, err := all.Select(query)
			if err != nil {
				t.Fatal(err)
			}
			var want []core.Match
			for _, m := range ranked {
				if m.Score >= theta {
					want = append(want, m)
				}
			}
			for label, p := range map[string]core.Predicate{"positional": pos, "count": count} {
				got, err := p.Select(query)
				if err != nil {
					t.Fatal(err)
				}
				assertIdentical(t, name+" "+label+" "+query, want, got)
				naive, err := NaiveSelect(p, query, core.SelectOptions{})
				if err != nil {
					t.Fatal(err)
				}
				assertIdentical(t, name+" "+label+" naive "+query, want, naive)
			}
		}
	}
}

// TestPositionalFilterIsTighter: positional candidate counting can only
// reduce the shared-gram count, never increase it.
func TestPositionalMatchWithinBounds(t *testing.T) {
	a := []int32{0, 1, 5, 9}
	b := []int32{2, 6, 7}
	for k := 0; k <= 10; k++ {
		m := matchWithin(a, b, k)
		if m > len(b) {
			t.Fatalf("k=%d: matched %d > min list length", k, m)
		}
		if k >= 10 && m != 3 {
			t.Fatalf("k=%d: all of b should match, got %d", k, m)
		}
	}
	if m := matchWithin(a, b, 0); m != 0 {
		t.Fatalf("k=0 with disjoint positions should match 0, got %d", m)
	}
	if m := matchWithin([]int32{3}, []int32{3}, 0); m != 1 {
		t.Fatalf("identical positions at k=0: %d", m)
	}
}

func TestPositionalMatchWithinGreedyOptimal(t *testing.T) {
	// Cross-check the greedy matcher against exhaustive matching on small
	// random inputs.
	rng := rand.New(rand.NewSource(4))
	exhaustive := func(a, b []int32, k int) int {
		best := 0
		var rec func(i int, used []bool, count int)
		rec = func(i int, used []bool, count int) {
			if count > best {
				best = count
			}
			if i >= len(a) {
				return
			}
			rec(i+1, used, count)
			for j := range b {
				if used[j] {
					continue
				}
				d := int(a[i]) - int(b[j])
				if d <= k && -d <= k {
					used[j] = true
					rec(i+1, used, count+1)
					used[j] = false
				}
			}
		}
		rec(0, make([]bool, len(b)), 0)
		return best
	}
	for trial := 0; trial < 200; trial++ {
		na, nb := 1+rng.Intn(4), 1+rng.Intn(4)
		a := make([]int32, na)
		b := make([]int32, nb)
		for i := range a {
			a[i] = int32(rng.Intn(12))
		}
		for i := range b {
			b[i] = int32(rng.Intn(12))
		}
		sortInt32(a)
		sortInt32(b)
		k := rng.Intn(5)
		if g, e := matchWithin(a, b, k), exhaustive(a, b, k); g != e {
			t.Fatalf("greedy %d != exhaustive %d for a=%v b=%v k=%d", g, e, a, b, k)
		}
	}
}

func sortInt32(xs []int32) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
