package approxsel

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/native"
)

// TestShardedOneShardParity checks that the one-shard corpus (what
// OpenCorpus returns) ranks bit-identically to the thirteen native
// predicates attached directly to one core corpus: full rankings, Limit
// push-down and Threshold push-down, same scores and same order.
func TestShardedOneShardParity(t *testing.T) {
	records := facadeRecords()
	c, err := OpenCorpus(records)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := core.NewCorpus(records, DefaultConfig(), core.AllLayers)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	queries := batchQueries(records[:10])
	for _, name := range core.PredicateNames {
		got, err := c.Predicate(name)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := native.Attach(name, cc, cc.Config())
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			full, err := core.SelectWithOptions(ctx, ref, q, core.SelectOptions{})
			if err != nil {
				t.Fatal(err)
			}
			opts := []core.SelectOptions{{}, {Limit: 10}}
			if len(full) > 0 {
				opts = append(opts, core.SelectOptions{Threshold: full[len(full)/2].Score, HasThreshold: true})
			}
			for _, o := range opts {
				want, err := core.SelectWithOptions(ctx, ref, q, o)
				if err != nil {
					t.Fatal(err)
				}
				ms, err := core.SelectWithOptions(ctx, got, q, o)
				if err != nil {
					t.Fatal(err)
				}
				if !matchesBitIdentical(ms, want) {
					t.Fatalf("%s %q %+v: one-shard corpus diverged from the core corpus\ngot:  %+v\nwant: %+v", name, q, o, ms, want)
				}
			}
		}
	}
}

// TestShardedDeterministicAndPushdown checks that a multi-shard selection
// is deterministic across repeated probes and that Limit/Threshold
// push-down matches post-filtering the full sharded ranking.
func TestShardedDeterministicAndPushdown(t *testing.T) {
	records := facadeRecords()
	sharded, err := OpenShardedCorpus(records, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Shards() != 4 || sharded.Len() != len(records) {
		t.Fatalf("shards=%d len=%d", sharded.Shards(), sharded.Len())
	}
	for _, name := range []string{"BM25", "Jaccard", "EditDistance"} {
		p, err := sharded.Predicate(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range batchQueries(records[:5]) {
			full, err := p.Select(q)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 3; round++ {
				again, err := p.Select(q)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(again, full) {
					t.Fatalf("%s %q: nondeterministic sharded ranking", name, q)
				}
			}
			top, err := TopK(p, q, 3)
			if err != nil {
				t.Fatal(err)
			}
			want := full
			if len(want) > 3 {
				want = want[:3]
			}
			if !reflect.DeepEqual(top, want) {
				t.Fatalf("%s %q: top-k push-down diverged: got %v want %v", name, q, top, want)
			}
			if len(full) > 0 {
				theta := full[len(full)/2].Score
				th, err := SelectThreshold(p, q, theta)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range th {
					if m.Score < theta {
						t.Fatalf("%s: threshold leak %v < %v", name, m.Score, theta)
					}
				}
			}
		}
	}
}

// TestShardedBatchAndJoin routes the sharded view through the batch pool
// and the joins, checking sequential equality.
func TestShardedBatchAndJoin(t *testing.T) {
	records := facadeRecords()
	sharded, err := OpenShardedCorpus(records, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sharded.Predicate("BM25")
	if err != nil {
		t.Fatal(err)
	}
	queries := batchQueries(records[:8])
	want := sequentialSelect(t, p, queries)
	got, err := SelectBatch(context.Background(), p, queries, Workers(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sharded batch diverged from sequential")
	}
	if _, err := ApproximateJoin(p, records[:5], 0.1); err != nil {
		t.Fatalf("sharded join: %v", err)
	}
}

// TestShardedMutationDifferential checks the differential contract: a
// mutated sharded corpus ranks bit-identically to a fresh build over the
// same records, and the epoch vector advances only on touched shards.
func TestShardedMutationDifferential(t *testing.T) {
	records := facadeRecords()
	sharded, err := OpenShardedCorpus(records[:50], 4)
	if err != nil {
		t.Fatal(err)
	}
	before := sharded.Epochs()
	if err := sharded.Insert(records[50:]...); err != nil {
		t.Fatal(err)
	}
	if err := sharded.Delete(records[0].TID, records[3].TID); err != nil {
		t.Fatal(err)
	}
	replaced := Record{TID: records[7].TID, Text: "Replacement Systems Corporation"}
	if err := sharded.Upsert(replaced); err != nil {
		t.Fatal(err)
	}
	after := sharded.Epochs()
	touched := 0
	for i := range after {
		if after[i] > before[i] {
			touched++
		}
	}
	if touched == 0 {
		t.Fatal("mutations advanced no shard epoch")
	}

	fresh, err := OpenShardedCorpus(sharded.Records(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"BM25", "Jaccard", "SoftTFIDF"} {
		mp, err := sharded.Predicate(name)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := fresh.Predicate(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []string{records[10].Text, replaced.Text, "zzz unmatched"} {
			got, err := mp.Select(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fp.Select(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %q: mutated shards diverged from fresh build", name, q)
			}
		}
	}
}

// TestShardedMutationValidation checks that a bad batch is rejected up
// front, leaving every shard's epoch untouched.
func TestShardedMutationValidation(t *testing.T) {
	records := facadeRecords()[:20]
	sharded, err := OpenShardedCorpus(records, 3)
	if err != nil {
		t.Fatal(err)
	}
	before := sharded.Epochs()
	cases := []error{
		sharded.Insert(Record{TID: records[0].TID, Text: "dup"}),
		sharded.Insert(Record{TID: 1000, Text: "a"}, Record{TID: 1000, Text: "b"}),
		sharded.Delete(99999),
		sharded.Delete(records[1].TID, records[1].TID),
	}
	for i, err := range cases {
		if err == nil {
			t.Fatalf("case %d: bad batch accepted", i)
		}
	}
	if !reflect.DeepEqual(sharded.Epochs(), before) {
		t.Fatal("rejected batches must leave every shard epoch untouched")
	}
	if sharded.Len() != len(records) {
		t.Fatalf("rejected batches changed Len: %d", sharded.Len())
	}
}

// TestShardedDeclarative attaches a declarative predicate across shards;
// the view probes its shards in parallel, and a batch over many workers
// must match its own sequential run.
func TestShardedDeclarative(t *testing.T) {
	records := facadeRecords()[:20]
	sharded, err := OpenShardedCorpus(records, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sharded.Predicate("Jaccard", WithRealization(Declarative))
	if err != nil {
		t.Fatal(err)
	}
	ms, err := p.Select(records[2].Text)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 || ms[0].TID != records[2].TID {
		t.Fatalf("declarative sharded self-query missed: %v", ms)
	}
	queries := batchQueries(records)
	want := sequentialSelect(t, p, queries)
	got, err := SelectBatch(context.Background(), p, queries, Workers(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("declarative sharded batch diverged from sequential")
	}
}

// TestShardedOpenErrors covers constructor validation.
func TestShardedOpenErrors(t *testing.T) {
	if _, err := OpenShardedCorpus([]Record{{TID: 1}, {TID: 1}}, 2); err == nil ||
		!strings.Contains(err.Error(), "duplicate TID") {
		t.Fatalf("duplicate TIDs must be rejected: %v", err)
	}
}
