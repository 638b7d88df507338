package approxsel

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCorpusSinglePass is the acceptance contract of the Corpus API:
// building all thirteen native predicates through one shared corpus
// performs exactly one tokenization/statistics pass, and every attached
// predicate selects exactly like its independently built twin.
func TestCorpusSinglePass(t *testing.T) {
	records := facadeRecords()
	c, err := OpenCorpus(records)
	if err != nil {
		t.Fatal(err)
	}
	preds := make(map[string]Predicate)
	for _, name := range PredicateNames() {
		p, err := c.Predicate(name)
		if err != nil {
			t.Fatalf("attach %s: %v", name, err)
		}
		preds[name] = p
	}
	if got := c.shards[0].TokenizePasses(); got != 1 {
		t.Fatalf("thirteen attaches must share one tokenization pass, got %d", got)
	}
	queries := []string{records[0].Text, records[7].Text + " inc", "zzzz"}
	for _, name := range PredicateNames() {
		solo, err := New(name, records)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			want, err := solo.Select(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := preds[name].Select(q)
			if err != nil {
				t.Fatal(err)
			}
			if !matchesEqual(got, want) {
				t.Fatalf("%s query %q: corpus-attached ranking diverged\ngot:  %+v\nwant: %+v", name, q, got, want)
			}
		}
	}
}

// TestCorpusMutationDifferential is the live-update acceptance contract:
// after Insert/Delete/Upsert, every attached predicate (all thirteen
// natives) must select exactly like a predicate freshly built over the
// updated record set.
func TestCorpusMutationDifferential(t *testing.T) {
	records := facadeRecords()[:40]
	c, err := OpenCorpus(records)
	if err != nil {
		t.Fatal(err)
	}
	preds := make(map[string]Predicate)
	for _, name := range PredicateNames() {
		p, err := c.Predicate(name)
		if err != nil {
			t.Fatal(err)
		}
		preds[name] = p
	}
	extra := CompanyNames(6, 99)
	if err := c.Insert(
		Record{TID: 200, Text: extra[0]},
		Record{TID: 201, Text: extra[1]},
		Record{TID: 202, Text: extra[2]},
	); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(3, 17, 29); err != nil {
		t.Fatal(err)
	}
	if err := c.Upsert(Record{TID: 200, Text: extra[3]}, Record{TID: 5, Text: extra[4]}); err != nil {
		t.Fatal(err)
	}

	updated := c.Records()
	if len(updated) != 40 {
		t.Fatalf("record count after mutations: %d", len(updated))
	}
	queries := []string{records[0].Text, extra[3], extra[4], strings.ToLower(records[10].Text)}
	for _, name := range PredicateNames() {
		fresh, err := New(name, updated)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			want, err := fresh.Select(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := preds[name].Select(q)
			if err != nil {
				t.Fatal(err)
			}
			if !matchesEqual(got, want) {
				t.Fatalf("%s query %q: live corpus diverged from fresh build\ngot:  %+v\nwant: %+v", name, q, got, want)
			}
		}
	}
}

// TestCorpusConcurrentSelectBatch runs SelectBatch against attached
// predicates while the corpus is being mutated; under -race this verifies
// the snapshot/epoch handshake is data-race free, and every batch must
// observe a consistent version (no errors, sane results).
func TestCorpusConcurrentSelectBatch(t *testing.T) {
	records := facadeRecords()
	c, err := OpenCorpus(records)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]string, 12)
	for i := range queries {
		queries[i] = records[i*3].Text
	}
	names := []string{"BM25", "Jaccard", "LM", "GESJaccard", "EditDistance"}
	preds := make([]Predicate, len(names))
	for i, name := range names {
		if preds[i], err = c.Predicate(name); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(preds)+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			tid := 500 + i
			if err := c.Insert(Record{TID: tid, Text: CompanyNames(1, int64(i+40))[0]}); err != nil {
				errs <- err
				return
			}
			if i%2 == 1 {
				if err := c.Delete(tid); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	for _, p := range preds {
		wg.Add(1)
		go func(p Predicate) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				res, err := SelectBatch(context.Background(), p, queries, Workers(4))
				if err != nil {
					errs <- err
					return
				}
				if len(res) != len(queries) {
					errs <- fmt.Errorf("%s: batch returned %d results for %d queries", p.Name(), len(res), len(queries))
					return
				}
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCorpusPredicateOptions checks that an attach starts from the corpus
// configuration, that a Config option may change scoring-level parameters
// on top of it, and that a conflicting tokenization-level parameter is
// rejected.
func TestCorpusPredicateOptions(t *testing.T) {
	records := facadeRecords()[:30]
	q3 := DefaultConfig()
	q3.Q = 3
	c, err := OpenCorpus(records, q3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Predicate("BM25")
	if err != nil {
		t.Fatal(err)
	}
	want, err := New("BM25", records, q3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Select(records[2].Text)
	if err != nil {
		t.Fatal(err)
	}
	b, err := want.Select(records[2].Text)
	if err != nil {
		t.Fatal(err)
	}
	if !matchesEqual(a, b) {
		t.Fatalf("attach did not adopt the corpus configuration: %+v vs %+v", a, b)
	}
	scoring := c.Config()
	scoring.BM25K1, scoring.BM25B = 2, 0.5
	if _, err := c.Predicate("BM25", scoring); err != nil {
		t.Fatalf("scoring option on attach: %v", err)
	}
	if _, err := c.Predicate("BM25", DefaultConfig()); err == nil {
		t.Fatal("q mismatch must be rejected at attach")
	}
	// Push-down options keep working through the view.
	top, err := SelectCtx(context.Background(), p, records[2].Text, Limit(3))
	if err != nil || len(top) > 3 {
		t.Fatalf("TopK through corpus view: %v %v", top, err)
	}
	if _, err := SelectCtx(context.Background(), p, "x", Limit(-1)); err == nil {
		t.Fatal("negative limit must error through the view")
	}
}

// TestCorpusDeclarativeAndCustomAttach checks the legacy adapter: the
// declarative realization and Register-ed predicates attach to a corpus
// and observe mutations via rebuild-on-epoch.
func TestCorpusDeclarativeAndCustomAttach(t *testing.T) {
	if err := Register("EqualityC", buildEquality); err != nil {
		t.Fatal(err)
	}
	defer Unregister("EqualityC")

	records := facadeRecords()[:15]
	c, err := OpenCorpus(records)
	if err != nil {
		t.Fatal(err)
	}
	decl, err := c.Predicate("BM25", WithRealization(Declarative))
	if err != nil {
		t.Fatal(err)
	}
	custom, err := c.Predicate("EqualityC")
	if err != nil {
		t.Fatal(err)
	}
	ms, err := decl.Select(records[1].Text)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 || ms[0].TID != records[1].TID {
		t.Fatalf("declarative attach: %+v", ms)
	}
	if err := c.Insert(Record{TID: 300, Text: "Zyzzyva Holdings"}); err != nil {
		t.Fatal(err)
	}
	ms, err = custom.Select("zyzzyva holdings")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].TID != 300 {
		t.Fatalf("custom predicate must observe the insert: %+v", ms)
	}
	ms, err = decl.Select("Zyzzyva Holdings")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 || ms[0].TID != 300 {
		t.Fatalf("declarative predicate must observe the insert: %+v", ms)
	}
}

// TestConcurrentFirstReadsBuildOnce checks that a view builds each epoch's
// predicate once: after an Insert that touches every shard, eight
// concurrent first reads wait for one build per shard instead of each
// running their own.
func TestConcurrentFirstReadsBuildOnce(t *testing.T) {
	var builds atomic.Int64
	counted := func(records []Record, cfg Config) (Predicate, error) {
		builds.Add(1)
		time.Sleep(5 * time.Millisecond) // keep the first reads overlapping the build
		return buildEquality(records, cfg)
	}
	if err := Register("CountedBuilds", counted); err != nil {
		t.Fatal(err)
	}
	defer Unregister("CountedBuilds")

	records := facadeRecords()
	for _, shards := range []int{1, 2} {
		c, err := OpenShardedCorpus(records, shards)
		if err != nil {
			t.Fatal(err)
		}
		p, err := c.Predicate("CountedBuilds")
		if err != nil {
			t.Fatal(err)
		}
		// One new record per shard, all in one Insert.
		var add []Record
		for tid := 1000; len(add) < shards; tid++ {
			if shardOf(tid, shards) == len(add) {
				add = append(add, Record{TID: tid, Text: fmt.Sprintf("Counted Builds %d", tid)})
			}
		}
		if err := c.Insert(add...); err != nil {
			t.Fatal(err)
		}
		builds.Store(0)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				ms, err := p.Select(add[0].Text)
				if err != nil || len(ms) != 1 || ms[0].TID != add[0].TID {
					t.Errorf("shards=%d: first read after the insert: %+v, %v", shards, ms, err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if n := builds.Load(); n != int64(shards) {
			t.Errorf("shards=%d: %d builds for 8 concurrent first reads, want one per touched shard (%d)", shards, n, shards)
		}
	}
}

func TestOpenCorpusErrors(t *testing.T) {
	bad := DefaultConfig()
	bad.Q = 0
	if _, err := OpenCorpus(facadeRecords(), bad); err == nil {
		t.Error("invalid config must be rejected")
	}
	dup := []Record{{TID: 1, Text: "a"}, {TID: 1, Text: "b"}}
	if _, err := OpenCorpus(dup); err == nil {
		t.Error("duplicate TIDs must be rejected")
	}
	c, err := OpenCorpus(facadeRecords()[:5])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Predicate("NoSuchPredicate"); err == nil {
		t.Error("unknown predicate must be rejected")
	}
	if _, err := c.Predicate("BM25", WithRealization("vectorized")); err == nil {
		t.Error("unknown realization must be rejected")
	}
}
