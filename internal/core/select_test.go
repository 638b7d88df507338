package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

func randomMatches(rng *rand.Rand, n int) []Match {
	ms := make([]Match, n)
	for i := range ms {
		// Coarse scores force plenty of ties so the TID tie-break is
		// exercised by the heap.
		ms[i] = Match{TID: i + 1, Score: float64(rng.Intn(10)) / 4}
	}
	rng.Shuffle(n, func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
	return ms
}

// TestFinishMatchesHeapEqualsSort checks the acceptance contract of the
// push-down: a k-bounded heap must return exactly sort-then-truncate.
func TestFinishMatchesHeapEqualsSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		base := randomMatches(rng, n)
		for _, k := range []int{0, 1, 2, 3, n / 2, n - 1, n, n + 5} {
			ref := append([]Match(nil), base...)
			SortMatches(ref)
			if k > 0 && k < len(ref) {
				ref = ref[:k]
			}
			in := append([]Match(nil), base...)
			got := FinishMatches(in, SelectOptions{Limit: k})
			if len(got) != len(ref) {
				t.Fatalf("n=%d k=%d: len %d, want %d", n, k, len(got), len(ref))
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("n=%d k=%d pos %d: %+v, want %+v", n, k, i, got[i], ref[i])
				}
			}
		}
	}
}

func TestFinishMatchesKeepsContract(t *testing.T) {
	// Threshold filtering happens at materialization via Keeps; FinishMatches
	// only ranks what survived.
	opts := SelectOptions{Limit: 2, Threshold: 0.5, HasThreshold: true}
	var kept []Match
	for _, m := range []Match{{1, 0.9}, {2, 0.4}, {3, 0.8}, {4, 0.1}, {5, 0.7}} {
		if opts.Keeps(m.Score) {
			kept = append(kept, m)
		}
	}
	got := FinishMatches(kept, opts)
	if len(got) != 2 || got[0].TID != 1 || got[1].TID != 3 {
		t.Fatalf("threshold+limit: %+v", got)
	}
}

func TestApplySelectOptions(t *testing.T) {
	ranked := []Match{{1, 0.9}, {2, 0.8}, {3, 0.3}}
	got := ApplySelectOptions(ranked, SelectOptions{Limit: 2, Threshold: 0.5, HasThreshold: true})
	if len(got) != 2 || got[0].TID != 1 || got[1].TID != 2 {
		t.Fatalf("post-filter: %+v", got)
	}
	if got := ApplySelectOptions(ranked, SelectOptions{}); len(got) != 3 {
		t.Fatalf("zero options must keep everything: %+v", got)
	}
}

// plainPredicate exercises the shim path of SelectWithOptions (no
// ContextPredicate implementation).
type plainPredicate struct{ ms []Match }

func (p plainPredicate) Name() string                   { return "plain" }
func (p plainPredicate) Select(string) ([]Match, error) { return p.ms, nil }

func TestSelectWithOptionsShim(t *testing.T) {
	p := plainPredicate{ms: []Match{{1, 0.9}, {2, 0.5}}}
	got, err := SelectWithOptions(context.Background(), p, "q", SelectOptions{Limit: 1})
	if err != nil || len(got) != 1 || got[0].TID != 1 {
		t.Fatalf("shim: %v %+v", err, got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SelectWithOptions(ctx, p, "q", SelectOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: %v", err)
	}
}

func TestSelectWithOptionsRejectsNegativeLimit(t *testing.T) {
	p := plainPredicate{ms: []Match{{1, 0.9}}}
	if _, err := SelectWithOptions(context.Background(), p, "q", SelectOptions{Limit: -3}); err == nil {
		t.Fatal("negative limit must error, not behave as unlimited")
	}
	// Zero stays unlimited.
	got, err := SelectWithOptions(context.Background(), p, "q", SelectOptions{Limit: 0})
	if err != nil || len(got) != 1 {
		t.Fatalf("zero limit: %v %v", got, err)
	}
}
