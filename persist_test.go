package approxsel

import (
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

// The facade-level persistence acceptance suite: checkpoint→close→reopen
// and build→mutate→crash→replay must yield bit-identical scores, tie order
// and epochs versus a never-reopened corpus, for all thirteen native
// predicates.

// persistQueries exercises exact hits, near-misses and no-token-overlap
// queries against the facade relation.
func persistQueries(records []Record) []string {
	return []string{
		records[0].Text,
		records[7].Text + " inc",
		records[3].Text,
		"international business machines",
		"zzzz",
	}
}

// matchesBitIdentical is the strict form of matchesEqual: scores must agree
// bit for bit, not merely compare equal (== cannot tell 0.0 from -0.0).
func matchesBitIdentical(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].TID != b[i].TID || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// assertPredicatesBitIdentical attaches every canonical native predicate to
// both corpora and compares full rankings on every query.
func assertPredicatesBitIdentical(t *testing.T, want, got interface {
	Predicate(string, ...BuildOption) (Predicate, error)
}, queries []string) {
	t.Helper()
	for _, name := range core.PredicateNames {
		wp, err := want.Predicate(name)
		if err != nil {
			t.Fatalf("attach %s to control: %v", name, err)
		}
		gp, err := got.Predicate(name)
		if err != nil {
			t.Fatalf("attach %s to restored: %v", name, err)
		}
		for _, q := range queries {
			wms, err := wp.Select(q)
			if err != nil {
				t.Fatal(err)
			}
			gms, err := gp.Select(q)
			if err != nil {
				t.Fatal(err)
			}
			if !matchesBitIdentical(wms, gms) {
				t.Fatalf("%s query %q: restored ranking diverged\nwant: %+v\ngot:  %+v", name, q, wms, gms)
			}
		}
	}
}

func TestDurableCorpusCrashReplayDifferential(t *testing.T) {
	records := facadeRecords()
	dir := filepath.Join(t.TempDir(), "corpus")
	control, err := OpenCorpus(records)
	if err != nil {
		t.Fatal(err)
	}
	durable, err := OpenCorpus(records, WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !durable.Persistent() {
		t.Fatal("WithDataDir must attach the store")
	}
	mutate := func(c *Corpus) {
		t.Helper()
		if err := c.Insert(Record{TID: 900, Text: "Stanley Morgan Incorporated"},
			Record{TID: 901, Text: "Redwood Energy Holdings"}); err != nil {
			t.Fatal(err)
		}
		if err := c.Delete(3, 11); err != nil {
			t.Fatal(err)
		}
		if err := c.Upsert(Record{TID: 900, Text: "Morgan Stanley Inc"}); err != nil {
			t.Fatal(err)
		}
	}
	mutate(control)
	mutate(durable)
	st, ok := durable.StoreStats()
	if !ok || st.WALEntries != 3 || len(st.SnapshotEpochs) != 1 || st.SnapshotEpochs[0] != 0 {
		t.Fatalf("store stats after three logged mutations: %+v ok=%v", st, ok)
	}

	// Crash: the durable corpus is abandoned without CloseStore. Acknowledged
	// mutations are already in the WAL — replay must reach the exact
	// pre-crash epoch.
	restored, err := OpenCorpus(nil, WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.CloseStore()
	if !reflect.DeepEqual(restored.Epochs(), control.Epochs()) {
		t.Fatalf("replayed epochs %v, control %v", restored.Epochs(), control.Epochs())
	}
	assertPredicatesBitIdentical(t, control, restored, persistQueries(records))

	// The restored corpus keeps logging: one more mutation, one more entry.
	if err := restored.Insert(Record{TID: 950, Text: "After The Crash LLC"}); err != nil {
		t.Fatal(err)
	}
	if st, _ := restored.StoreStats(); st.WALEntries != 4 {
		t.Fatalf("wal entries after post-replay insert: %+v", st)
	}
}

// TestSaveLoadBitIdenticalAllPredicates saves a corpus the durable way —
// WithDataDir, Checkpoint, CloseStore — and loads it by reopening the
// directory: the loaded corpus must match the built one bit for bit for
// all thirteen native predicates, without re-tokenizing.
func TestSaveLoadBitIdenticalAllPredicates(t *testing.T) {
	records := facadeRecords()
	dir := filepath.Join(t.TempDir(), "corpus")
	c, err := OpenCorpus(records, WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseStore(); err != nil {
		t.Fatal(err)
	}
	lc, err := OpenCorpus(nil, WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer lc.CloseStore()
	if lc.Shards() != 1 || !reflect.DeepEqual(lc.Epochs(), c.Epochs()) || lc.Len() != c.Len() {
		t.Fatalf("restored state: shards %d epochs %v len %d, want 1/%v/%d",
			lc.Shards(), lc.Epochs(), lc.Len(), c.Epochs(), c.Len())
	}
	assertPredicatesBitIdentical(t, c, lc, persistQueries(records))
	// A loaded corpus never re-tokenizes: attaching the full suite reads the
	// decoded tables directly.
	if got := lc.shards[0].TokenizePasses(); got != 0 {
		t.Fatalf("loaded corpus tokenized %d times", got)
	}
}

func TestDurableCorpusCheckpoint(t *testing.T) {
	records := facadeRecords()[:30]
	dir := filepath.Join(t.TempDir(), "corpus")
	c, err := OpenCorpus(records, WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(Record{TID: 900, Text: "Checkpoint Fodder Co"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, _ := c.StoreStats()
	if st.WALEntries != 0 || st.SnapshotEpochs[0] != 1 || st.SnapshotBytes <= 0 {
		t.Fatalf("stats after checkpoint: %+v", st)
	}
	// Post-checkpoint mutations replay on top of the new segment.
	if err := c.Delete(5); err != nil {
		t.Fatal(err)
	}
	if err := c.SyncStore(); err != nil {
		t.Fatal(err)
	}
	restored, err := OpenCorpus(nil, WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.CloseStore()
	if restored.Shards() != 1 || restored.Epochs()[0] != 2 || restored.Len() != c.Len() {
		t.Fatalf("restored shards %d epochs %v len %d", restored.Shards(), restored.Epochs(), restored.Len())
	}

	// CloseStore seals the log: further mutations must fail, selections keep
	// working.
	if err := c.CloseStore(); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(Record{TID: 1000, Text: "Unlogged"}); err == nil {
		t.Fatal("mutation after CloseStore must fail")
	}
	p, err := c.Predicate("BM25")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Select(records[0].Text); err != nil {
		t.Fatalf("selection after CloseStore: %v", err)
	}
}

func TestDurableShardedCorpusCrashReplay(t *testing.T) {
	records := facadeRecords()
	root := filepath.Join(t.TempDir(), "sharded")
	control, err := OpenShardedCorpus(records, 3)
	if err != nil {
		t.Fatal(err)
	}
	durable, err := OpenShardedCorpus(records, 3, WithDataDir(root))
	if err != nil {
		t.Fatal(err)
	}
	if !durable.Persistent() {
		t.Fatal("WithDataDir must attach the sharded store")
	}
	mutate := func(s *ShardedCorpus) {
		t.Helper()
		if err := s.Insert(Record{TID: 900, Text: "Stanley Morgan Incorporated"},
			Record{TID: 901, Text: "Redwood Energy Holdings"}); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(3, 11); err != nil {
			t.Fatal(err)
		}
		if err := s.Upsert(Record{TID: 901, Text: "Redwood Energy Holdings Ltd"}); err != nil {
			t.Fatal(err)
		}
	}
	mutate(control)
	mutate(durable)
	// Mid-history checkpoint, then more mutations: the reopened corpus must
	// splice segment + WAL correctly per shard.
	if err := durable.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := control.Insert(Record{TID: 950, Text: "Post Checkpoint Co"}); err != nil {
		t.Fatal(err)
	}
	if err := durable.Insert(Record{TID: 950, Text: "Post Checkpoint Co"}); err != nil {
		t.Fatal(err)
	}

	// Crash (no CloseStore), then reopen. The manifest fixes the shard
	// count: the records and shard arguments are ignored.
	restored, err := OpenShardedCorpus(nil, 99, WithDataDir(root))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.CloseStore()
	if restored.Shards() != 3 {
		t.Fatalf("manifest must fix the shard count, got %d", restored.Shards())
	}
	wantN, wantE := control.State()
	gotN, gotE := restored.State()
	if wantN != gotN || len(wantE) != len(gotE) {
		t.Fatalf("restored state %d/%v, control %d/%v", gotN, gotE, wantN, wantE)
	}
	for i := range wantE {
		if wantE[i] != gotE[i] {
			t.Fatalf("shard %d epoch %d, control %d", i, gotE[i], wantE[i])
		}
	}
	assertPredicatesBitIdentical(t, control, restored, persistQueries(records))

	st, ok := restored.StoreStats()
	if !ok || len(st.SnapshotEpochs) != 3 || st.SnapshotBytes <= 0 {
		t.Fatalf("sharded store stats: %+v ok=%v", st, ok)
	}
}

func TestPersistenceErrors(t *testing.T) {
	c, err := OpenCorpus(facadeRecords()[:10])
	if err != nil {
		t.Fatal(err)
	}
	if c.Persistent() {
		t.Fatal("in-memory corpus must not report persistent")
	}
	if err := c.Checkpoint(); err == nil {
		t.Fatal("Checkpoint without a data dir must fail")
	}
	if err := c.SyncStore(); err != nil {
		t.Fatalf("SyncStore without a data dir is a no-op: %v", err)
	}
	if err := c.CloseStore(); err != nil {
		t.Fatalf("CloseStore without a data dir is a no-op: %v", err)
	}
	s, err := OpenShardedCorpus(facadeRecords()[:10], 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Persistent() {
		t.Fatal("in-memory sharded corpus must not report persistent")
	}
	if err := s.Checkpoint(); err == nil {
		t.Fatal("sharded Checkpoint without a data dir must fail")
	}
	if _, ok := s.StoreStats(); ok {
		t.Fatal("sharded StoreStats without a data dir must report !ok")
	}
}

// TestNewRejectsDataDir pins the option-surface contract: WithDataDir is
// only meaningful on OpenCorpus/OpenShardedCorpus, and New must say so
// instead of silently dropping the durability the caller asked for.
func TestNewRejectsDataDir(t *testing.T) {
	_, err := New("BM25", facadeRecords()[:5], WithDataDir(t.TempDir()))
	if err == nil {
		t.Fatal("New with WithDataDir must error")
	}
}

// TestShardEpochRegressionDetected pins the manifest consistency check: a
// shard that replays below the manifest's checkpoint epoch has lost
// acknowledged state, and the open must fail rather than serve a
// cross-shard-inconsistent corpus.
func TestShardEpochRegressionDetected(t *testing.T) {
	root := filepath.Join(t.TempDir(), "sharded")
	s, err := OpenShardedCorpus(facadeRecords(), 2, WithDataDir(root))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CloseStore(); err != nil {
		t.Fatal(err)
	}
	m, err := store.ReadManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	m.Epochs[1] += 3 // claim a checkpoint the shard never reached
	if err := store.WriteManifest(root, m); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShardedCorpus(nil, 0, WithDataDir(root)); err == nil {
		t.Fatal("a shard below the manifest epoch must fail the open")
	}
}

// TestDataDirFlavorMismatch pins how an opener treats a directory it did
// not write: a stored manifest's shard count wins over the opener's (a
// record's home shard must never change), and a store without a manifest —
// the layout the one-shard corpus used to write — is refused, never
// re-seeded (which would serve a corpus missing every logged mutation).
func TestDataDirFlavorMismatch(t *testing.T) {
	records := facadeRecords()[:15]

	shardedDir := filepath.Join(t.TempDir(), "sharded")
	s, err := OpenShardedCorpus(records, 2, WithDataDir(shardedDir))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(Record{TID: 900, Text: "Logged Before Close"}); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseStore(); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCorpus(records, WithDataDir(shardedDir))
	if err != nil {
		t.Fatalf("OpenCorpus over a two-shard store: %v", err)
	}
	defer c.CloseStore()
	if c.Shards() != 2 || c.Len() != len(records)+1 || !reflect.DeepEqual(c.Epochs(), s.Epochs()) {
		t.Fatalf("stored layout must win: shards %d len %d epochs %v, want 2/%d/%v",
			c.Shards(), c.Len(), c.Epochs(), len(records)+1, s.Epochs())
	}

	plainDir := filepath.Join(t.TempDir(), "plain")
	cc, err := core.NewCorpus(records, DefaultConfig(), core.AllLayers)
	if err != nil {
		t.Fatal(err)
	}
	l, err := store.Create(plainDir, cc)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for _, open := range []func() (*ShardedCorpus, error){
		func() (*ShardedCorpus, error) { return OpenCorpus(records, WithDataDir(plainDir)) },
		func() (*ShardedCorpus, error) { return OpenShardedCorpus(records, 2, WithDataDir(plainDir)) },
	} {
		if _, err := open(); err == nil || !strings.Contains(err.Error(), "no longer opens") {
			t.Fatalf("a store without a manifest must be refused, not re-seeded: %v", err)
		}
	}
	if store.HasManifest(plainDir) {
		t.Fatal("the refused open wrote a manifest")
	}
}
