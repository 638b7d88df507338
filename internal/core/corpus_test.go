package core

import (
	"testing"
)

func corpusRecords() []Record {
	texts := []string{
		"AT&T Incorporated", "AT&T Inc.", "IBM Incorporated",
		"Morgan Stanley Group Inc.", "Stanley Morgan Group Inc.",
		"Beijing Hotel", "Hotel Beijing", "Beijing Labs", "Redwood Energy",
	}
	out := make([]Record, len(texts))
	for i, t := range texts {
		out[i] = Record{TID: i + 1, Text: t}
	}
	return out
}

func TestCorpusLayerDeps(t *testing.T) {
	if got := LayerRS.withDeps(); !got.Has(LayerGrams) {
		t.Fatalf("RS must pull in the gram layer: %b", got)
	}
	if got := LayerSigs.withDeps(); !got.Has(LayerWordGrams | LayerWords) {
		t.Fatalf("sigs must pull in word grams and words: %b", got)
	}
	if !AllLayers.Has(LayerLM | LayerNorms | LayerWordTFIDF) {
		t.Fatal("AllLayers must include every layer")
	}
}

func TestNewCorpusBuildsRequestedLayers(t *testing.T) {
	c, err := NewCorpus(corpusRecords(), DefaultConfig(), AllLayers)
	if err != nil {
		t.Fatal(err)
	}
	s := c.Snapshot()
	if s.Grams == nil || s.Grams.Postings == nil || s.Grams.RS() == nil ||
		s.Grams.TFIDF() == nil || s.Grams.LM() == nil {
		t.Fatal("gram layer tables missing")
	}
	if s.Words == nil || s.Words.TFIDF() == nil || s.Words.GramIndex == nil || s.Words.SigIndex == nil {
		t.Fatal("word layer tables missing")
	}
	if len(s.Norms) != len(s.Records) {
		t.Fatalf("norms: %d", len(s.Norms))
	}
	if s.Grams != s.RawGrams {
		t.Fatal("without pruning the effective layer must alias the raw layer")
	}
	if c.TokenizePasses() != 1 {
		t.Fatalf("open must tokenize exactly once, got %d", c.TokenizePasses())
	}

	// A minimal corpus must not pay for layers nobody asked for.
	lean, err := NewCorpus(corpusRecords(), DefaultConfig(), LayerGrams)
	if err != nil {
		t.Fatal(err)
	}
	ls := lean.Snapshot()
	if ls.Words != nil || ls.Norms != nil || ls.Grams.TFIDF() != nil {
		t.Fatal("lean corpus built unrequested layers")
	}
}

func TestCorpusPruningSplitsLayers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PruneRate = 0.3
	c, err := NewCorpus(corpusRecords(), cfg, LayerGrams|LayerPostings)
	if err != nil {
		t.Fatal(err)
	}
	s := c.Snapshot()
	if s.Grams == s.RawGrams {
		t.Fatal("pruning must produce a distinct effective layer")
	}
	if s.Grams.Stats.Tokens() >= s.RawGrams.Stats.Tokens() {
		t.Fatalf("pruned vocabulary %d should be smaller than raw %d",
			s.Grams.Stats.Tokens(), s.RawGrams.Stats.Tokens())
	}
}

func TestCorpusValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Q = 0
	if _, err := NewCorpus(corpusRecords(), cfg, LayerGrams); err == nil {
		t.Error("q=0 must be rejected")
	}
	cfg = DefaultConfig()
	cfg.PruneRate = 1
	if _, err := NewCorpus(corpusRecords(), cfg, LayerGrams); err == nil {
		t.Error("prune rate 1 must be rejected")
	}
	dup := []Record{{TID: 1, Text: "a"}, {TID: 1, Text: "b"}}
	if _, err := NewCorpus(dup, DefaultConfig(), LayerGrams); err == nil {
		t.Error("duplicate TIDs must be rejected")
	}
}

func TestCorpusMutationEpochs(t *testing.T) {
	c, err := NewCorpus(corpusRecords(), DefaultConfig(), AllLayers)
	if err != nil {
		t.Fatal(err)
	}
	if c.Epoch() != 0 {
		t.Fatalf("fresh corpus epoch = %d", c.Epoch())
	}
	if err := c.Insert(Record{TID: 100, Text: "Summit Tools Inc."}); err != nil {
		t.Fatal(err)
	}
	if c.Epoch() != 1 || c.Len() != 10 {
		t.Fatalf("after insert: epoch %d len %d", c.Epoch(), c.Len())
	}
	if err := c.Delete(1, 2); err != nil {
		t.Fatal(err)
	}
	if c.Epoch() != 2 || c.Len() != 8 {
		t.Fatalf("after delete: epoch %d len %d", c.Epoch(), c.Len())
	}
	if err := c.Upsert(Record{TID: 100, Text: "Summit Tools Incorporated"}, Record{TID: 101, Text: "Falcon Airways"}); err != nil {
		t.Fatal(err)
	}
	if c.Epoch() != 3 || c.Len() != 9 {
		t.Fatalf("after upsert: epoch %d len %d", c.Epoch(), c.Len())
	}
	// Mutations must not re-tokenize the full relation.
	if c.TokenizePasses() != 1 {
		t.Fatalf("mutations re-tokenized the relation: %d passes", c.TokenizePasses())
	}
	// The snapshot's per-record data must track the record list.
	s := c.Snapshot()
	if len(s.Grams.Pairs) != len(s.Records) || len(s.Norms) != len(s.Records) ||
		len(s.Words.Words) != len(s.Records) {
		t.Fatal("per-record arrays out of sync after mutations")
	}
	if i, ok := s.Index(100); !ok || s.Records[i].Text != "Summit Tools Incorporated" {
		t.Fatalf("upsert did not replace record 100: %+v", s.Records)
	}
}

func TestCorpusMutationErrors(t *testing.T) {
	c, err := NewCorpus(corpusRecords(), DefaultConfig(), LayerGrams)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(Record{TID: 1, Text: "dup"}); err == nil {
		t.Error("inserting an existing TID must error")
	}
	if err := c.Delete(999); err == nil {
		t.Error("deleting an unknown TID must error")
	}
	if err := c.Insert(Record{TID: 50, Text: "a"}, Record{TID: 50, Text: "b"}); err == nil {
		t.Error("duplicate TIDs within one insert must error")
	}
	if c.Epoch() != 0 {
		t.Fatalf("failed mutations must not bump the epoch: %d", c.Epoch())
	}
	if err := c.Insert(); err != nil {
		t.Errorf("empty insert is a no-op: %v", err)
	}
}

// TestCorpusMutationMatchesFreshBuild is the core differential contract:
// after any mix of inserts, deletes and upserts, every layer must be
// bit-identical to a corpus freshly built over the updated record set.
func TestCorpusMutationMatchesFreshBuild(t *testing.T) {
	cfg := DefaultConfig()
	for _, rate := range []float64{0, 0.3} {
		cfg.PruneRate = rate
		c, err := NewCorpus(corpusRecords(), cfg, AllLayers)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Insert(Record{TID: 20, Text: "Pacific Mills Inc."}, Record{TID: 21, Text: "Orion Foods"}); err != nil {
			t.Fatal(err)
		}
		if err := c.Delete(3, 7); err != nil {
			t.Fatal(err)
		}
		if err := c.Upsert(Record{TID: 5, Text: "Stanley Morgan Group Incorporated"}); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewCorpus(c.Records(), cfg, AllLayers)
		if err != nil {
			t.Fatal(err)
		}
		a, b := c.Snapshot(), fresh.Snapshot()
		if len(a.Records) != len(b.Records) {
			t.Fatalf("rate %v: record counts differ", rate)
		}
		for i := range a.Records {
			if a.Records[i] != b.Records[i] {
				t.Fatalf("rate %v: record %d differs", rate, i)
			}
		}
		for r, tok := range a.Grams.TokenByRank {
			if a.Grams.Stats.IDF(tok) != b.Grams.Stats.IDF(tok) {
				t.Fatalf("rate %v: idf(%q) drifted", rate, tok)
			}
			if a.Grams.RS().ByRank[r] != b.Grams.RS().ByRank[r] {
				t.Fatalf("rate %v: RS(%q) drifted", rate, tok)
			}
		}
		if a.Grams.Stats.Tokens() != b.Grams.Stats.Tokens() {
			t.Fatalf("rate %v: vocabulary sizes differ", rate)
		}
		for i := range a.Grams.LM().SumComp {
			if a.Grams.LM().SumComp[i] != b.Grams.LM().SumComp[i] {
				t.Fatalf("rate %v: LM sum-comp %d drifted", rate, i)
			}
		}
		for i := range a.Norms {
			if a.Norms[i] != b.Norms[i] {
				t.Fatalf("rate %v: norm %d differs", rate, i)
			}
		}
		for _, w := range a.Words.Stats.SortedTokens() {
			if a.Words.Stats.IDF(w) != b.Words.Stats.IDF(w) {
				t.Fatalf("rate %v: word idf(%q) drifted", rate, w)
			}
		}
	}
}

func TestCompatibleConfig(t *testing.T) {
	c, err := NewCorpus(corpusRecords(), DefaultConfig(), AllLayers)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.BM25K1 = 2.0 // scoring-level: fine
	cfg.EditTheta = 0
	if err := c.CompatibleConfig(cfg); err != nil {
		t.Fatalf("scoring params must not conflict: %v", err)
	}
	cfg = DefaultConfig()
	cfg.Q = 3
	if err := c.CompatibleConfig(cfg); err == nil {
		t.Error("q mismatch must be rejected")
	}
	cfg = DefaultConfig()
	cfg.PruneRate = 0.2
	if err := c.CompatibleConfig(cfg); err == nil {
		t.Error("prune rate mismatch must be rejected")
	}
	cfg = DefaultConfig()
	cfg.MinHashK = 9
	if err := c.CompatibleConfig(cfg); err == nil {
		t.Error("min-hash size mismatch must be rejected")
	}
}

func TestMinHashSize(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.MinHashSize() != 5 {
		t.Fatalf("default min-hash size: %d", cfg.MinHashSize())
	}
	cfg.MinHashK = 0
	if cfg.MinHashSize() != 5 {
		t.Fatalf("zero must fall back to the paper's 5: %d", cfg.MinHashSize())
	}
	cfg.MinHashK = 7
	if cfg.MinHashSize() != 7 {
		t.Fatalf("explicit size: %d", cfg.MinHashSize())
	}
}
