package approxsel

import (
	"testing"
)

// The watch × approxstore suite: a durable corpus's WAL replay window
// seeds the watch hub's resume history on a cold start, so a client that
// reconnects across a process restart with its last-seen epoch vector
// receives exactly the events it missed — nothing lost, nothing twice —
// and then continues live, with the fold still bit-identical to the
// from-scratch batch join.

func testWatchColdStartResume(t *testing.T, open func(*testing.T, []Record, string) (*Corpus, error)) {
	dir := t.TempDir()
	recs := dirtyWatchData(t)

	c, err := open(t, recs[:60], dir)
	if err != nil {
		t.Fatalf("open durable: %v", err)
	}
	full, err := c.RegisterWatch("Jaccard", 0.45, WithResume(c.Epochs()), WithWatchBuffer(1<<15))
	if err != nil {
		t.Fatalf("register: %v", err)
	}

	// First life, window A: all three mutation kinds land in the WAL.
	for i := 60; i < 80; i += 2 {
		if err := c.Insert(recs[i : i+2]...); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	if err := c.Delete(recs[0].TID, recs[1].TID); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := c.Upsert(Record{TID: recs[2].TID, Text: recs[100].Text}); err != nil {
		t.Fatalf("upsert: %v", err)
	}
	vec1 := c.Epochs()
	recsAtVec1 := c.Records()
	before := drainWatch(full)

	// First life, window B: the events a client at vec1 will miss.
	for i := 80; i < 100; i += 2 {
		if err := c.Insert(recs[i : i+2]...); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	if err := c.Upsert(Record{TID: recs[3].TID, Text: recs[110].Text}); err != nil {
		t.Fatalf("upsert: %v", err)
	}
	vec2 := c.Epochs()
	missed := drainWatch(full)
	if len(before) == 0 || len(missed) == 0 {
		t.Fatalf("test vacuous: %d events before vector, %d after", len(before), len(missed))
	}
	full.Close()
	if err := c.CloseStore(); err != nil {
		t.Fatalf("close store: %v", err)
	}

	// Cold start from the same directory: the store must come back at vec2
	// with the missed window replayable.
	c2, err := open(t, nil, dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got := c2.Epochs()
	for i := range got {
		if got[i] != vec2[i] {
			t.Fatalf("reopened epochs = %v, want %v", got, vec2)
		}
	}
	resumed, err := c2.RegisterWatch("Jaccard", 0.45, WithResume(vec1), WithWatchBuffer(1<<15))
	if err != nil {
		t.Fatalf("cold resume register: %v", err)
	}
	replay := drainWatch(resumed)
	if len(replay) != len(missed) {
		t.Fatalf("cold resume replayed %d events, continuous watch saw %d", len(replay), len(missed))
	}
	for i := range replay {
		if replay[i] != missed[i] {
			t.Fatalf("replay event %d = %+v, continuous saw %+v", i, replay[i], missed[i])
		}
	}

	// A client already at vec2 replays nothing — reconnecting after a
	// restart never delivers twice.
	caughtUp, err := c2.RegisterWatch("Jaccard", 0.45, WithResume(vec2))
	if err != nil {
		t.Fatalf("caught-up register: %v", err)
	}
	if evs := drainWatch(caughtUp); len(evs) != 0 {
		t.Fatalf("watch resumed at the restart vector replayed %d events", len(evs))
	}

	// The resumed watch continues live, and folding its replayed + live
	// events onto the batch join at vec1 reproduces the batch join over the
	// current records — the bit-identity contract holds across the restart.
	if err := c2.Insert(recs[100:104]...); err != nil {
		t.Fatalf("post-restart insert: %v", err)
	}
	fold := oracleSelf(t, recsAtVec1, "Jaccard", 0.45, c2.Config())
	foldEvents(t, fold, replay, true)
	foldEvents(t, fold, drainWatch(resumed), true)
	compareFold(t, "cold start", fold, oracleSelf(t, c2.Records(), "Jaccard", 0.45, c2.Config()))
}

func TestWatchColdStartResume(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		t.Parallel()
		testWatchColdStartResume(t, func(t *testing.T, recs []Record, dir string) (*Corpus, error) {
			return OpenCorpus(recs, WithDataDir(dir))
		})
	})
	t.Run("sharded", func(t *testing.T) {
		t.Parallel()
		testWatchColdStartResume(t, func(t *testing.T, recs []Record, dir string) (*Corpus, error) {
			return OpenShardedCorpus(recs, 3, WithDataDir(dir))
		})
	})
}
