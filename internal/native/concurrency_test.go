package native

import (
	"context"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
)

// TestConcurrentSelect verifies that native predicates are safe for
// concurrent Select calls once constructed (they are read-only after
// preprocessing). Run with -race to catch violations.
func TestConcurrentSelect(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.EditTheta = 0.6
	queries := []string{
		"Morgan Stanley Group Inc.",
		"AT&T Incorporated",
		"Beijing Hotel",
		"Stanley Morgn Gruop",
	}
	for _, name := range core.PredicateNames {
		p, err := Build(name, companyRecords, cfg)
		if err != nil {
			t.Fatalf("Build(%s): %v", name, err)
		}
		// Reference results computed sequentially.
		want := make([][]core.Match, len(queries))
		for i, q := range queries {
			want[i], err = p.Select(q)
			if err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		errs := make(chan error, 4*len(queries))
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, q := range queries {
					ms, err := p.Select(q)
					if err != nil {
						errs <- err
						return
					}
					if len(ms) != len(want[i]) {
						errs <- errMismatch(name, q, len(ms), len(want[i]))
						return
					}
					for j := range ms {
						if ms[j] != want[i][j] {
							errs <- errMismatch(name, q, j, j)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestConcurrentExpensiveSelectsShareColumns runs the five kernel-scoring
// predicates over one corpus from concurrent goroutines, every goroutine
// rotating through predicates and queries, so the pooled similarity tables
// (and their DP rows) are handed between GES-family and SoftTFIDF selects of
// different query sizes while other selects are mid-scan. Run with -race:
// a table shared by two in-flight selects is a data race, and a table that
// kept another query's columns shows up as a diverged result.
func TestConcurrentExpensiveSelectsShareColumns(t *testing.T) {
	c, records, cfg := hotPathCorpus(t, 150, 13)
	queries := append(hotPathQueries(records), "data data mining data")
	ctx := context.Background()
	opts := core.SelectOptions{Limit: 10}

	views := make([]core.ContextPredicate, len(expensiveFive))
	want := make([][][]core.Match, len(expensiveFive))
	for i, name := range expensiveFive {
		p, err := Attach(name, c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		views[i] = p.(core.ContextPredicate)
		for _, q := range queries {
			ms, err := views[i].SelectCtx(ctx, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], ms)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				pi, qi := (g+i)%len(views), (g*3+i)%len(queries)
				ms, err := views[pi].SelectCtx(ctx, queries[qi], opts)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(ms, want[pi][qi]) {
					t.Errorf("%s %q: concurrent result diverged", expensiveFive[pi], queries[qi])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

type mismatchError struct {
	pred, query string
	got, want   int
}

func (e mismatchError) Error() string {
	return e.pred + " concurrent Select mismatch on " + e.query
}

func errMismatch(pred, query string, got, want int) error {
	return mismatchError{pred: pred, query: query, got: got, want: want}
}
