package core

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/weights"
)

// persistRecords builds a relation exercising every layer: repeated tokens,
// swapped word order, near-duplicates, an empty-ish record and TID gaps.
func persistRecords() []Record {
	texts := []string{
		"AT&T Incorporated", "AT&T Inc.", "IBM Incorporated",
		"Morgan Stanley Group Inc.", "Stanley Morgan Group Inc.",
		"Beijing Hotel", "Hotel Beijing", "Beijing Labs", "Redwood Energy",
		"x", "Redwood  Energy  Holdings", "International Business Machines",
		"internatinal busines machines", "AT&T Wireless Services Inc.",
	}
	out := make([]Record, len(texts))
	for i, t := range texts {
		out[i] = Record{TID: 3*i + 1, Text: t}
	}
	return out
}

// roundTrip saves c and loads the bytes back.
func roundTrip(t *testing.T, c *Corpus) *Corpus {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	lc, err := LoadSnapshot(buf.Bytes())
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	return lc
}

// assertSnapshotsIdentical compares two snapshots structurally, field by
// field — including every float table bit for bit (reflect.DeepEqual
// distinguishes float bit patterns via ==; NaNs do not appear in the
// tables). This is the strongest form of the persistence contract: not
// just equal scores, but equal state.
func assertSnapshotsIdentical(t *testing.T, want, got *Snapshot) {
	t.Helper()
	if want.Epoch != got.Epoch {
		t.Fatalf("epoch: want %d, got %d", want.Epoch, got.Epoch)
	}
	if d := snapshotStateDiff(want, got); d != "" {
		t.Fatal(d)
	}
}

// snapshotStateDiff reports the first difference between two snapshots'
// state, everything but the epoch, or "" when there is none. Weight
// columns derive on first use, so both sides derive every column they
// carry first.
func snapshotStateDiff(want, got *Snapshot) string {
	deriveColumns(want)
	deriveColumns(got)
	switch {
	case !reflect.DeepEqual(want.Records, got.Records):
		return "records differ"
	case !reflect.DeepEqual(want.tids, got.tids):
		return "TID index differs"
	case (want.Grams == want.RawGrams) != (got.Grams == got.RawGrams):
		return "effective-layer aliasing differs"
	case !reflect.DeepEqual(want.RawGrams, got.RawGrams):
		return "raw gram layer differs:\n" + diffGramLayer(want.RawGrams, got.RawGrams)
	case !reflect.DeepEqual(want.Grams, got.Grams):
		return "effective gram layer differs:\n" + diffGramLayer(want.Grams, got.Grams)
	case !reflect.DeepEqual(want.Words, got.Words):
		return "word layer differs:\n" + diffWordLayer(want.Words, got.Words)
	case !reflect.DeepEqual(want.Norms, got.Norms):
		return "norms differ"
	}
	return ""
}

// deriveColumns derives, through their accessors, every weight column,
// float aggregate and word index the snapshot's layers carry.
func deriveColumns(s *Snapshot) {
	stats := func(st *weights.Corpus) {
		st.AvgIDF()
		if st.Tokens() > 0 {
			st.PavgAt(0) // sums Σ tf/dl for every rank
		}
	}
	for _, l := range []*GramLayer{s.RawGrams, s.Grams} {
		if l != nil {
			l.idfByRank() // pruning derives it on the raw layer too
			l.RS()
			l.TFIDF()
			l.LM()
			l.TF()
			stats(l.Stats)
		}
	}
	if w := s.Words; w != nil {
		w.IDFWeights()
		w.TFIDF()
		w.WordSigs()
		w.Index()
		stats(w.Stats)
	}
}

// diffGramLayer names the first differing field, so failures point at the
// field rather than dumping two multi-megabyte structs.
func diffGramLayer(a, b *GramLayer) string {
	if (a == nil) != (b == nil) {
		return "one layer is nil"
	}
	checks := []struct {
		name string
		x, y any
	}{
		{"DL", a.DL, b.DL},
		{"TokenByRank", a.TokenByRank, b.TokenByRank},
		{"Pairs", a.Pairs, b.Pairs}, {"layers", a.layers, b.layers},
		{"Postings", a.Postings, b.Postings},
		{"idf", a.idf.v, b.idf.v}, {"RS", a.RS(), b.RS()},
		{"TFIDF", a.TFIDF(), b.TFIDF()}, {"LM", a.LM(), b.LM()},
		{"TF", a.TF(), b.TF()},
		{"Stats", a.Stats, b.Stats},
	}
	for _, c := range checks {
		if !reflect.DeepEqual(c.x, c.y) {
			return "field " + c.name
		}
	}
	return "no field-level difference found"
}

func diffWordLayer(a, b *WordLayer) string {
	if (a == nil) != (b == nil) {
		return "one layer is nil"
	}
	checks := []struct {
		name string
		x, y any
	}{
		{"Words", a.Words, b.Words}, {"Pairs", a.Pairs, b.Pairs},
		{"Stats", a.Stats, b.Stats}, {"toks", a.toks, b.toks},
		{"IDFWeights", a.IDFWeights(), b.IDFWeights()}, {"TFIDF", a.TFIDF(), b.TFIDF()},
		{"Index", a.Index(), b.Index()},
	}
	for _, c := range checks {
		if !reflect.DeepEqual(c.x, c.y) {
			return "field " + c.name
		}
	}
	return "no field-level difference found"
}

func TestSnapshotRoundTripBitIdentical(t *testing.T) {
	c, err := NewCorpus(persistRecords(), DefaultConfig(), AllLayers)
	if err != nil {
		t.Fatal(err)
	}
	lc := roundTrip(t, c)
	assertSnapshotsIdentical(t, c.Snapshot(), lc.Snapshot())
	if lc.TokenizePasses() != 0 {
		t.Fatalf("a loaded corpus must not tokenize, got %d passes", lc.TokenizePasses())
	}
	if lc.Config() != c.Config() {
		t.Fatalf("config not restored: %+v vs %+v", lc.Config(), c.Config())
	}
	if lc.Layers() != c.Layers() {
		t.Fatalf("layers not restored: %b vs %b", lc.Layers(), c.Layers())
	}
}

func TestSnapshotRoundTripAfterMutations(t *testing.T) {
	c, err := NewCorpus(persistRecords(), DefaultConfig(), AllLayers)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(Record{TID: 500, Text: "Beijing Hotel Group"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(4); err != nil {
		t.Fatal(err)
	}
	if err := c.Upsert(Record{TID: 500, Text: "Beijing Hotel Group Ltd"}); err != nil {
		t.Fatal(err)
	}
	lc := roundTrip(t, c)
	assertSnapshotsIdentical(t, c.Snapshot(), lc.Snapshot())
	if lc.Epoch() != 3 {
		t.Fatalf("epoch after three mutations: %d", lc.Epoch())
	}
}

func TestSnapshotRoundTripPruned(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PruneRate = 0.2
	c, err := NewCorpus(persistRecords(), cfg, AllLayers)
	if err != nil {
		t.Fatal(err)
	}
	if c.Snapshot().Grams == c.Snapshot().RawGrams {
		t.Fatal("precondition: pruning must split the layers")
	}
	lc := roundTrip(t, c)
	assertSnapshotsIdentical(t, c.Snapshot(), lc.Snapshot())
}

func TestSnapshotRoundTripLeanLayers(t *testing.T) {
	for _, layers := range []CorpusLayers{
		LayerGrams,
		(LayerTFIDF).withDeps(),
		(LayerRS | LayerPostings).withDeps(),
		(LayerSigs | LayerNorms).withDeps(),
	} {
		c, err := NewCorpus(persistRecords(), DefaultConfig(), layers)
		if err != nil {
			t.Fatal(err)
		}
		lc := roundTrip(t, c)
		assertSnapshotsIdentical(t, c.Snapshot(), lc.Snapshot())
		if lc.Layers() != c.Layers() {
			t.Fatalf("layers %b: restored %b", c.Layers(), lc.Layers())
		}
	}
}

// TestLoadedCorpusMutatesIdentically applies the same mutation batch to the
// original and the loaded corpus: the persistence layer's replay path runs
// mutations through exactly this code, so splicing cached tokenization from
// a decoded snapshot must behave like splicing from a fresh one.
func TestLoadedCorpusMutatesIdentically(t *testing.T) {
	c, err := NewCorpus(persistRecords(), DefaultConfig(), AllLayers)
	if err != nil {
		t.Fatal(err)
	}
	lc := roundTrip(t, c)
	mutate := func(c *Corpus) {
		t.Helper()
		if err := c.Insert(Record{TID: 900, Text: "Stanley Morgan Incorporated"}); err != nil {
			t.Fatal(err)
		}
		if err := c.Delete(1, 7); err != nil {
			t.Fatal(err)
		}
		if err := c.Upsert(Record{TID: 10, Text: "Beijing Hotel International"}); err != nil {
			t.Fatal(err)
		}
	}
	mutate(c)
	mutate(lc)
	assertSnapshotsIdentical(t, c.Snapshot(), lc.Snapshot())
}

// TestReplayMutationsMatchesSequential pins the batched-replay contract:
// one ReplayMutations pass (splices per batch, one assembly at the end)
// produces a snapshot structurally identical — every float bit — to
// applying the same batches one mutation at a time.
func TestReplayMutationsMatchesSequential(t *testing.T) {
	sequential, err := NewCorpus(persistRecords(), DefaultConfig(), AllLayers)
	if err != nil {
		t.Fatal(err)
	}
	batched := roundTrip(t, sequential)

	if err := sequential.Insert(Record{TID: 500, Text: "Beijing Hotel Group"}, Record{TID: 501, Text: "x y z"}); err != nil {
		t.Fatal(err)
	}
	if err := sequential.Delete(4, 10); err != nil {
		t.Fatal(err)
	}
	if err := sequential.Upsert(Record{TID: 500, Text: "Beijing Hotel Group Ltd"}); err != nil {
		t.Fatal(err)
	}
	muts := []Mutation{
		{Kind: MutationInsert, Add: []Record{{TID: 500, Text: "Beijing Hotel Group"}, {TID: 501, Text: "x y z"}}, Epoch: 1},
		{Kind: MutationDelete, Del: []int{4, 10}, Epoch: 2},
		{Kind: MutationUpsert, Add: []Record{{TID: 500, Text: "Beijing Hotel Group Ltd"}}, Epoch: 3},
	}
	if err := batched.ReplayMutations(muts); err != nil {
		t.Fatal(err)
	}
	assertSnapshotsIdentical(t, sequential.Snapshot(), batched.Snapshot())

	// A gap or an invalid batch leaves the corpus untouched.
	before := batched.Snapshot()
	if err := batched.ReplayMutations([]Mutation{{Kind: MutationInsert, Add: []Record{{TID: 600, Text: "gap"}}, Epoch: 9}}); err == nil {
		t.Fatal("an epoch gap must fail the replay")
	}
	if err := batched.ReplayMutations([]Mutation{
		{Kind: MutationInsert, Add: []Record{{TID: 600, Text: "lands"}}, Epoch: 4},
		{Kind: MutationDelete, Del: []int{777777}, Epoch: 5},
	}); err == nil {
		t.Fatal("an invalid batch must fail the replay")
	}
	if batched.Snapshot() != before {
		t.Fatal("a failed replay must not publish a snapshot")
	}
}

func TestLoadSnapshotRejectsCorruption(t *testing.T) {
	c, err := NewCorpus(persistRecords(), DefaultConfig(), AllLayers)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := LoadSnapshot(data[:len(data)-10]); err == nil {
		t.Fatal("truncated snapshot must fail")
	}
	for _, off := range []int{5, 40, len(data) / 2, len(data) - 20} {
		mangled := append([]byte(nil), data...)
		mangled[off] ^= 0x40
		if _, err := LoadSnapshot(mangled); err == nil {
			t.Fatalf("bit flip at %d must fail the CRC or a bounds check", off)
		}
	}
}

func TestMutationHookWriteAheadContract(t *testing.T) {
	c, err := NewCorpus(persistRecords(), DefaultConfig(), LayerGrams)
	if err != nil {
		t.Fatal(err)
	}
	var seen []Mutation
	c.SetMutationHook(func(m Mutation) error {
		seen = append(seen, m)
		return nil
	})
	if err := c.Insert(Record{TID: 901, Text: "Hook Test One"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(901); err != nil {
		t.Fatal(err)
	}
	if err := c.Upsert(Record{TID: 1, Text: "Rewritten"}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("hook calls: %d", len(seen))
	}
	if seen[0].Kind != MutationInsert || seen[0].Epoch != 1 || len(seen[0].Add) != 1 {
		t.Fatalf("insert hook: %+v", seen[0])
	}
	if seen[1].Kind != MutationDelete || seen[1].Epoch != 2 || len(seen[1].Del) != 1 {
		t.Fatalf("delete hook: %+v", seen[1])
	}
	if seen[2].Kind != MutationUpsert || seen[2].Epoch != 3 {
		t.Fatalf("upsert hook: %+v", seen[2])
	}

	// A rejecting hook aborts the mutation with no visible state change:
	// the write-ahead guarantee (nothing is acknowledged that the log did
	// not accept).
	before := c.Snapshot()
	c.SetMutationHook(func(m Mutation) error { return fmt.Errorf("disk full") })
	if err := c.Insert(Record{TID: 902, Text: "Never lands"}); err == nil {
		t.Fatal("rejected mutation must error")
	}
	if c.Snapshot() != before {
		t.Fatal("rejected mutation must not publish a snapshot")
	}
	if c.Epoch() != 3 {
		t.Fatalf("epoch after rejected mutation: %d", c.Epoch())
	}

	// A nil hook detaches.
	c.SetMutationHook(nil)
	if err := c.Insert(Record{TID: 903, Text: "Lands again"}); err != nil {
		t.Fatal(err)
	}
	if c.Epoch() != 4 {
		t.Fatalf("epoch: %d", c.Epoch())
	}
}

func TestFreezeSerializesAgainstMutations(t *testing.T) {
	c, err := NewCorpus(persistRecords(), DefaultConfig(), LayerGrams)
	if err != nil {
		t.Fatal(err)
	}
	err = c.Freeze(func(s *Snapshot) error {
		if s.Epoch != 0 {
			t.Fatalf("frozen snapshot epoch: %d", s.Epoch)
		}
		return fmt.Errorf("propagated")
	})
	if err == nil || err.Error() != "propagated" {
		t.Fatalf("freeze must propagate fn's error, got %v", err)
	}
}

// TestLoadSegmentWithoutPostingIDs loads legacy segments. The APXSNAP1 one
// was written before every weight column shared the layer's posting ids:
// its header names the tf-idf, LM and edit tables but not LayerPostings.
// The APXSNAP2 one, an all-layers corpus at epoch 2, stores gram rows in
// occurrence order and every word's q-grams and signature. The loader
// builds each corpus from its records at the stored epoch; the result must
// equal a fresh build, including the zero-norm record ("ab", TID 2) the
// tf-idf table marks.
func TestLoadSegmentWithoutPostingIDs(t *testing.T) {
	data, err := os.ReadFile("testdata/lean-without-posting-ids.seg")
	if err != nil {
		t.Fatal(err)
	}
	lc, err := LoadSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if !lc.Layers().Has(LayerPostings | LayerTFIDF | LayerLM | LayerNorms) {
		t.Fatalf("loaded layers %b lack the posting ids", lc.Layers())
	}
	fresh, err := NewCorpus(lc.Records(), lc.Config(), lc.Layers())
	if err != nil {
		t.Fatal(err)
	}
	assertSnapshotsIdentical(t, fresh.Snapshot(), lc.Snapshot())
	if skip := lc.Snapshot().Grams.TFIDF().Skip; skip == nil || !skip[1] {
		t.Fatalf("zero-norm record not marked after load: %v", skip)
	}

	if data, err = os.ReadFile("testdata/apxsnap2-mutated.seg"); err != nil {
		t.Fatal(err)
	}
	if lc, err = LoadSnapshot(data); err != nil {
		t.Fatal(err)
	}
	if lc.Layers() != AllLayers || lc.Epoch() != 2 || lc.TokenizePasses() != 1 {
		t.Fatalf("APXSNAP2 segment: layers %b, epoch %d, %d tokenize passes", lc.Layers(), lc.Epoch(), lc.TokenizePasses())
	}
	if fresh, err = NewCorpus(lc.Records(), lc.Config(), lc.Layers()); err != nil {
		t.Fatal(err)
	}
	if d := snapshotStateDiff(fresh.Snapshot(), lc.Snapshot()); d != "" {
		t.Fatal(d)
	}
}
