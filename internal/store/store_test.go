package store

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
)

func storeRecords() []core.Record {
	texts := []string{
		"AT&T Incorporated", "IBM Incorporated", "Morgan Stanley Group Inc.",
		"Beijing Hotel", "Redwood Energy", "International Business Machines",
	}
	out := make([]core.Record, len(texts))
	for i, t := range texts {
		out[i] = core.Record{TID: i + 1, Text: t}
	}
	return out
}

func newTestCorpus(t *testing.T) *core.Corpus {
	t.Helper()
	c, err := core.NewCorpus(storeRecords(), core.DefaultConfig(), core.AllLayers)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// assertSameRelation compares epoch and records — the store-level contract;
// bit-identical tables are proven by the internal/core round-trip tests and
// the facade's differential suite.
func assertSameRelation(t *testing.T, want, got *core.Corpus) {
	t.Helper()
	if want.Epoch() != got.Epoch() {
		t.Fatalf("epoch: want %d, got %d", want.Epoch(), got.Epoch())
	}
	if !reflect.DeepEqual(want.Records(), got.Records()) {
		t.Fatalf("records differ:\n%v\nvs\n%v", want.Records(), got.Records())
	}
}

func TestCreateOpenReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	c := newTestCorpus(t)
	l, err := Create(dir, c)
	if err != nil {
		t.Fatal(err)
	}
	if !Exists(dir) {
		t.Fatal("Exists must report a created store")
	}
	if err := c.Insert(core.Record{TID: 100, Text: "Beijing Hotel Group"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(2); err != nil {
		t.Fatal(err)
	}
	if err := c.Upsert(core.Record{TID: 100, Text: "Beijing Hotel Group Ltd"}); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.SnapshotEpoch != 0 || st.WALEntries != 3 {
		t.Fatalf("stats after three mutations: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// A closed log rejects further mutations: nothing can land unlogged.
	if err := c.Insert(core.Record{TID: 101, Text: "Never lands"}); err == nil {
		t.Fatal("mutation after Close must fail")
	}

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	assertSameRelation(t, c, l2.Corpus())
	st = l2.Stats()
	if st.SnapshotEpoch != 0 || st.WALEntries != 3 || st.LastLoadDur <= 0 {
		t.Fatalf("stats after reopen: %+v", st)
	}
	// The reopened log keeps appending where the old one stopped.
	if err := l2.Corpus().Insert(core.Record{TID: 200, Text: "Appended after reopen"}); err != nil {
		t.Fatal(err)
	}
	if got := l2.Stats().WALEntries; got != 4 {
		t.Fatalf("wal entries after append: %d", got)
	}
}

func TestCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	c := newTestCorpus(t)
	l, err := Create(dir, c)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 3; i++ {
		if err := c.Insert(core.Record{TID: 100 + i, Text: "Checkpoint Fodder"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.SnapshotEpoch != 3 || st.WALEntries != 0 || st.SnapshotBytes <= 0 {
		t.Fatalf("stats after checkpoint: %+v", st)
	}
	// Superseded segments are gone; exactly the epoch-3 segment remains.
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := 0
	for _, e := range names {
		if epoch, ok := segEpoch(e.Name()); ok {
			segs++
			if epoch != 3 {
				t.Fatalf("stale segment %s survived the checkpoint", e.Name())
			}
		}
	}
	if segs != 1 {
		t.Fatalf("%d segments after checkpoint", segs)
	}

	// Mutations after the checkpoint land in the fresh WAL and replay.
	if err := c.Delete(1); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	assertSameRelation(t, c, l2.Corpus())
	if st := l2.Stats(); st.SnapshotEpoch != 3 || st.WALEntries != 1 {
		t.Fatalf("stats after reopen: %+v", st)
	}
}

func TestOpenTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	c := newTestCorpus(t)
	l, err := Create(dir, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(core.Record{TID: 100, Text: "Survives the crash"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn append: half an entry frame at the tail.
	walPath := filepath.Join(dir, walName)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x20, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	assertSameRelation(t, c, l2.Corpus())
	// The torn tail was truncated: the next append must produce a WAL every
	// future open still reads cleanly.
	if err := l2.Corpus().Insert(core.Record{TID: 101, Text: "After recovery"}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if got := l3.Corpus().Epoch(); got != 2 {
		t.Fatalf("epoch after recovery and append: %d", got)
	}
}

func TestOpenSkipsStaleWALEntries(t *testing.T) {
	// The crash-between-checkpoint-steps window: the fresh segment was
	// renamed into place but the process died before the WAL reset, so the
	// log still holds entries the segment already contains.
	dir := t.TempDir()
	c := newTestCorpus(t)
	l, err := Create(dir, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(core.Record{TID: 100, Text: "In both segment and wal"}); err != nil {
		t.Fatal(err)
	}
	// Hand-write the epoch-1 segment without touching the WAL.
	f, err := os.Create(filepath.Join(dir, segName(c.Epoch())))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	l.Close()

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	assertSameRelation(t, c, l2.Corpus())
	if st := l2.Stats(); st.SnapshotEpoch != 1 || st.WALEntries != 0 {
		t.Fatalf("open must pick the newest segment and not count stale entries: %+v", st)
	}
}

func TestOpenFallsBackToOlderSegment(t *testing.T) {
	dir := t.TempDir()
	c := newTestCorpus(t)
	l, err := Create(dir, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(core.Record{TID: 100, Text: "Replayed from wal"}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// A corrupt newer segment must not brick the store when the WAL still
	// covers its epoch: open falls back to the older segment and the
	// replay reaches the corrupt segment's named epoch exactly.
	if err := os.WriteFile(filepath.Join(dir, segName(1)), []byte(core.SnapshotMagic+"garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	assertSameRelation(t, c, l2.Corpus())
}

func TestOpenRefusesEpochRegression(t *testing.T) {
	// The mirror case: the corrupt newest segment's epoch is NOT covered by
	// the WAL (the checkpoint that wrote it also reset the log), so the
	// fallback would serve state behind what was once acknowledged durably.
	// That must fail the open, not silently regress.
	dir := t.TempDir()
	c := newTestCorpus(t)
	l, err := Create(dir, c)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := os.WriteFile(filepath.Join(dir, segName(7)), []byte(core.SnapshotMagic+"garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("a fallback below the newest segment's epoch must fail the open")
	}
}

func TestOpenRecreatesTornWALHeader(t *testing.T) {
	// A crash between the checkpoint's O_TRUNC and the 12 header bytes
	// leaves a short wal.log. No entry can exist in it, so the open must
	// recreate the log instead of failing forever.
	dir := t.TempDir()
	c := newTestCorpus(t)
	l, err := Create(dir, c)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := os.WriteFile(filepath.Join(dir, walName), []byte{0x41, 0x50, 0x58}, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	assertSameRelation(t, c, l2.Corpus())
	if st := l2.Stats(); st.WALEntries != 0 {
		t.Fatalf("torn header must recover to an empty log: %+v", st)
	}
	// The recreated log takes appends and replays them.
	if err := l2.Corpus().Insert(core.Record{TID: 100, Text: "After header recovery"}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if l3.Corpus().Epoch() != 1 {
		t.Fatalf("epoch after recovery and append: %d", l3.Corpus().Epoch())
	}
}

func TestOpenRejectsWALGap(t *testing.T) {
	dir := t.TempDir()
	c := newTestCorpus(t)
	l, err := Create(dir, c)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Append a frame claiming epoch 5 against a snapshot at epoch 0: a
	// gap means lost acknowledged mutations, which must be an error, not a
	// silent partial restore.
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	entry := encodeWALEntry(core.Mutation{
		Kind:  core.MutationInsert,
		Add:   []core.Record{{TID: 100, Text: "From the future"}},
		Epoch: 5,
	})
	if _, err := f.Write(entry); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Open(dir); err == nil {
		t.Fatal("a wal gap must fail the open")
	}
}

func TestOpenEmptyDirFails(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir); err == nil {
		t.Fatal("open of a dir without segments must fail")
	}
	if Exists(dir) {
		t.Fatal("Exists must be false for an empty dir")
	}
}

func TestAppendFailureAbortsMutation(t *testing.T) {
	dir := t.TempDir()
	c := newTestCorpus(t)
	l, err := Create(dir, c)
	if err != nil {
		t.Fatal(err)
	}
	// Close the log out from under the corpus: the hook now rejects, and the
	// write-ahead contract demands the mutation aborts with no state change.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(core.Record{TID: 100, Text: "Unlogged"}); err == nil {
		t.Fatal("mutation with a closed log must fail")
	}
	if c.Epoch() != 0 || c.Len() != len(storeRecords()) {
		t.Fatalf("rejected mutation changed state: epoch %d len %d", c.Epoch(), c.Len())
	}
}

func TestManifestRoundTrip(t *testing.T) {
	root := t.TempDir()
	if HasManifest(root) {
		t.Fatal("no manifest yet")
	}
	m := Manifest{Version: 1, Shards: 3, Epochs: []uint64{4, 0, 9}}
	if err := WriteManifest(root, m); err != nil {
		t.Fatal(err)
	}
	if !HasManifest(root) {
		t.Fatal("manifest must exist after write")
	}
	got, err := ReadManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("manifest round trip: %+v vs %+v", m, got)
	}
	if ShardDir(root, 2) != filepath.Join(root, "shard-0002") {
		t.Fatalf("shard dir layout: %s", ShardDir(root, 2))
	}

	// Validation: shard/epoch mismatches are rejected.
	if err := WriteManifest(root, Manifest{Version: 1, Shards: 2, Epochs: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(root); err == nil {
		t.Fatal("mismatched epoch vector must fail validation")
	}
	if err := os.WriteFile(filepath.Join(root, manifestName), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(root); err == nil {
		t.Fatal("malformed manifest must fail")
	}
	if err := WriteManifest(root, Manifest{Version: 2, Shards: 1, Epochs: []uint64{0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(root); err == nil {
		t.Fatal("a future manifest version must be rejected, like every other reader")
	}
}

func TestSegNameRoundTrip(t *testing.T) {
	for _, epoch := range []uint64{0, 1, 255, 1 << 40} {
		name := segName(epoch)
		got, ok := segEpoch(name)
		if !ok || got != epoch {
			t.Fatalf("segment name round trip: %s -> %d %v", name, got, ok)
		}
	}
	for _, bad := range []string{"wal.log", "snapshot-xyz.seg", "snapshot-00.seg", "snapshot-0000000000000000.tmp"} {
		if _, ok := segEpoch(bad); ok {
			t.Fatalf("%q must not parse as a segment", bad)
		}
	}
}
