package main

import (
	"math"
	"strings"
	"testing"

	approxsel "repro"
)

// diceRef computes Dice's coefficient over distinct padded q-grams in Go,
// mirroring the SQL tokenization (uppercase, spaces to '$', q-1 '$' pads).
func diceRef(a, b string, q int) float64 {
	grams := func(s string) map[string]bool {
		pad := strings.Repeat("$", q-1)
		s = pad + strings.ToUpper(strings.ReplaceAll(s, " ", "$")) + pad
		set := map[string]bool{}
		for i := 0; i+q <= len(s); i++ {
			set[s[i:i+q]] = true
		}
		return set
	}
	ga, gb := grams(a), grams(b)
	common := 0
	for g := range ga {
		if gb[g] {
			common++
		}
	}
	return 2 * float64(common) / float64(len(ga)+len(gb))
}

// TestDicePredicate checks the SQL realization against the Go reference,
// including q != 2 and queries longer than every base string — the
// tokenization must cover arbitrary query lengths, not just the base
// relation's.
func TestDicePredicate(t *testing.T) {
	if err := approxsel.Register("DiceTest", newDice); err != nil {
		t.Fatal(err)
	}
	records := []approxsel.Record{
		{TID: 1, Text: "Morgan Stanley Group Inc."},
		{TID: 2, Text: "Beijing Hotel"},
		{TID: 3, Text: "Pacific Mills Incorporated"},
	}
	queries := []string{
		"Morgan Stanley",
		"Hotel Beijing",
		// Longer than every base string: its tail grams must still count.
		"Pacific Mills Incorporated of the Western Territories and Beyond",
	}
	for _, q := range []int{2, 3} {
		cfg := approxsel.DefaultConfig()
		cfg.Q = q
		p, err := approxsel.New("DiceTest", records, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, query := range queries {
			ms, err := p.Select(query)
			if err != nil {
				t.Fatalf("q=%d: %v", q, err)
			}
			for _, m := range ms {
				want := diceRef(query, records[m.TID-1].Text, q)
				if math.Abs(m.Score-want) > 1e-9 {
					t.Errorf("q=%d query %q tid %d: dice %.6f, want %.6f",
						q, query, m.TID, m.Score, want)
				}
			}
		}
	}
}
