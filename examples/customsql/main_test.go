package main

import (
	"context"
	"math"
	"reflect"
	"strings"
	"sync"
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
	defer approxsel.Unregister("DiceTest")
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

// TestDiceConcurrentSelects probes the predicate through SelectBatch on
// four workers and through direct Selects from eight goroutines: every
// answer must equal the serial one, because Select refills the shared
// query_tokens table under the predicate's own lock.
func TestDiceConcurrentSelects(t *testing.T) {
	if err := approxsel.Register("DiceConcurrent", newDice); err != nil {
		t.Fatal(err)
	}
	defer approxsel.Unregister("DiceConcurrent")
	companies := approxsel.CompanyNames(60, 3)
	records := make([]approxsel.Record, len(companies))
	for i, name := range companies {
		records[i] = approxsel.Record{TID: i + 1, Text: name}
	}
	p, err := approxsel.New("DiceConcurrent", records)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{companies[0], companies[17], companies[42], "Pacific Hotel Group"}
	want := make([][]approxsel.Match, len(queries))
	for i, q := range queries {
		if want[i], err = p.Select(q); err != nil {
			t.Fatal(err)
		}
	}
	got, err := approxsel.SelectBatch(context.Background(), p, queries, approxsel.Workers(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("SelectBatch on four workers differs from the serial answers")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queries {
				j := (g + i) % len(queries)
				ms, err := p.Select(queries[j])
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(ms, want[j]) {
					t.Errorf("concurrent Select %q differs from the serial answer", queries[j])
				}
			}
		}()
	}
	wg.Wait()
}
