package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRunHotPathSmoke runs the hot-path benchmark at a tiny scale and
// checks the report's invariants: every predicate measured, both paths
// timed, the differential spot-check green, pruning counters wired (the
// engine is not required to prune: at Limit=10 on 300 records no list is
// cheaper to skip than to walk), and the JSON artifact written and
// parseable.
func TestRunHotPathSmoke(t *testing.T) {
	r, err := RunHotPath(HotPathOptions{Records: 300, Distinct: 20, Queries: 6, HeavyQueries: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Entries) != 13 {
		t.Fatalf("expected 13 predicate entries, got %d", len(r.Entries))
	}
	if !r.DifferentialOK {
		t.Fatal("optimized path diverged from the naive reference")
	}
	for _, e := range r.Entries {
		if e.NaiveNSPerQuery <= 0 || e.OptimizedNSPerQuery <= 0 {
			t.Fatalf("%s: missing timings: %+v", e.Predicate, e)
		}
	}
	if r.Pruning.Queries == 0 || r.Pruning.Lists == 0 {
		t.Fatalf("pruning counters not wired: %+v", r.Pruning)
	}
	if r.AggregateWeightedSpeedup <= 0 {
		t.Fatalf("aggregate-weighted speedup missing: %v", r.AggregateWeightedSpeedup)
	}

	dir := t.TempDir()
	if err := r.WriteJSON(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_hotpath.json"))
	if err != nil {
		t.Fatal(err)
	}
	var back HotPathReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Records != r.Records || len(back.Entries) != len(r.Entries) {
		t.Fatal("artifact does not round-trip")
	}

	var buf bytes.Buffer
	r.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("Print produced nothing")
	}
}
