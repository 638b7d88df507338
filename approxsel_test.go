package approxsel

import (
	"context"
	"errors"
	"testing"
)

func facadeRecords() []Record {
	names := CompanyNames(60, 3)
	records := make([]Record, len(names))
	for i, n := range names {
		records[i] = Record{TID: i + 1, Text: n}
	}
	return records
}

func TestFacadeNewAndSelect(t *testing.T) {
	records := facadeRecords()
	for _, name := range PredicateNames() {
		p, err := New(name, records, DefaultConfig())
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("Name() = %s, want %s", p.Name(), name)
		}
		ms, err := p.Select(records[0].Text)
		if err != nil {
			t.Fatalf("%s.Select: %v", name, err)
		}
		if len(ms) == 0 || ms[0].TID != 1 {
			t.Errorf("%s: self query should find record 1 first, got %v", name, ms)
		}
	}
}

func TestFacadeDeclarative(t *testing.T) {
	records := facadeRecords()[:25]
	p, err := New("BM25", records, DefaultConfig(), WithRealization(Declarative))
	if err != nil {
		t.Fatal(err)
	}
	ms, err := p.Select(records[2].Text)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 || ms[0].TID != 3 {
		t.Fatalf("declarative BM25: %v", ms)
	}
}

func TestSelectThreshold(t *testing.T) {
	records := facadeRecords()
	p, err := New("Jaccard", records, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	all, err := p.Select(records[0].Text)
	if err != nil {
		t.Fatal(err)
	}
	half, err := SelectThreshold(p, records[0].Text, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(half) > len(all) {
		t.Fatal("threshold must not grow the result")
	}
	for _, m := range half {
		if m.Score < 0.5 {
			t.Fatalf("threshold violated: %+v", m)
		}
	}
}

func TestTopK(t *testing.T) {
	records := facadeRecords()
	p, err := New("BM25", records, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	top, err := TopK(p, records[0].Text, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) > 3 {
		t.Fatalf("TopK returned %d", len(top))
	}
	if _, err := TopK(p, "x", -1); err == nil {
		t.Fatal("negative k should error")
	}
}

func TestGenerateDirtyFacade(t *testing.T) {
	ds, err := GenerateDirty(CompanyNames(100, 1), Abbreviations(), DirtyParams{
		Size: 300, NumClean: 50, Dist: Uniform,
		ErroneousPct: 0.5, ErrorExtent: 0.2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Records) != 300 {
		t.Fatalf("records: %d", len(ds.Records))
	}
}

func TestMetricsFacade(t *testing.T) {
	ranked := []int{1, 9, 2}
	rel := map[int]bool{1: true, 2: true}
	if ap := AveragePrecision(ranked, rel); ap <= 0 || ap > 1 {
		t.Fatalf("AP = %v", ap)
	}
	if f1 := MaxF1(ranked, rel); f1 <= 0 || f1 > 1 {
		t.Fatalf("F1 = %v", f1)
	}
	if got := RankedTIDs([]Match{{TID: 5}, {TID: 2}}); got[0] != 5 || got[1] != 2 {
		t.Fatalf("RankedTIDs: %v", got)
	}
}

func TestPredicateNamesCopy(t *testing.T) {
	a := PredicateNames()
	a[0] = "mutated"
	if PredicateNames()[0] == "mutated" {
		t.Fatal("PredicateNames must return a copy")
	}
}

// TestSelectCtxLimitDifferential checks the acceptance contract of the
// push-down: for every one of the thirteen predicates, the heap top-k path
// (SelectCtx with Limit) must return exactly sort-then-truncate of the full
// ranking, and the threshold push-down exactly post-filtering.
func TestSelectCtxLimitDifferential(t *testing.T) {
	records := facadeRecords()
	ctx := context.Background()
	for _, name := range PredicateNames() {
		p, err := New(name, records)
		if err != nil {
			t.Fatal(err)
		}
		for _, query := range []string{records[0].Text, records[9].Text + " inc", "zzzz"} {
			full, err := p.Select(query)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, k := range []int{1, 3, 7, len(full), len(full) + 10} {
				want := full
				if k < len(want) {
					want = want[:k]
				}
				got, err := SelectCtx(ctx, p, query, Limit(k))
				if err != nil {
					t.Fatalf("%s k=%d: %v", name, k, err)
				}
				if !matchesEqual(got, want) {
					t.Fatalf("%s k=%d query %q: heap top-k diverged from sort-then-truncate\ngot:  %+v\nwant: %+v",
						name, k, query, got, want)
				}
			}
			for _, theta := range []float64{0.2, 0.5} {
				var want []Match
				for _, m := range full {
					if m.Score >= theta {
						want = append(want, m)
					}
				}
				got, err := SelectCtx(ctx, p, query, Threshold(theta))
				if err != nil {
					t.Fatalf("%s θ=%v: %v", name, theta, err)
				}
				if !matchesEqual(got, want) {
					t.Fatalf("%s θ=%v query %q: threshold push-down diverged from post-filter",
						name, theta, query)
				}
			}
		}
	}
}

func matchesEqual(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSelectCtxDeclarativeShim checks the post-filter shim path: the
// declarative realization (no push-down) must honor the same options with
// the same results.
func TestSelectCtxDeclarativeShim(t *testing.T) {
	records := facadeRecords()[:20]
	ctx := context.Background()
	p, err := New("BM25", records, WithRealization(Declarative))
	if err != nil {
		t.Fatal(err)
	}
	full, err := p.Select(records[3].Text)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SelectCtx(ctx, p, records[3].Text, Limit(4))
	if err != nil {
		t.Fatal(err)
	}
	want := full
	if len(want) > 4 {
		want = want[:4]
	}
	if !matchesEqual(got, want) {
		t.Fatalf("declarative shim diverged: %+v vs %+v", got, want)
	}
	ctx2, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := SelectCtx(ctx2, p, "x"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled SelectCtx: %v", err)
	}
}

// TestTopKZero pins the historical TopK(p, q, 0) behavior: empty, not
// unlimited (Limit(0) means unlimited in the option layer).
func TestTopKZero(t *testing.T) {
	records := facadeRecords()[:10]
	p, err := New("Jaccard", records)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := TopK(p, records[0].Text, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Fatalf("TopK k=0 must be empty, got %d", len(ms))
	}
}
