package core_test

import (
	"cmp"
	"maps"
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dirty"
	"repro/internal/minhash"
	"repro/internal/native"
	"repro/internal/tokenize"
)

// naiveWordIndex is the per-occurrence builder the word index is checked
// against: every record's distinct words, in first-occurrence order, take
// the next dense ids, and each of them has its q-gram set (and signature)
// computed anew and appended to map-keyed lists, whose keys are sorted at
// the end. It shares nothing with WordLayer.Index but the tokenizer.
func naiveWordIndex(words [][]string, q int, fam *minhash.Family) *core.WordIndex {
	x := &core.WordIndex{WordOff: make([]int32, len(words))}
	grams := map[string][]int32{}
	sigs := map[core.SigKey][]int32{}
	for i, ws := range words {
		x.WordOff[i] = int32(x.WordTotal)
		for _, w := range tokenize.Distinct(ws) {
			wid := int32(x.WordTotal)
			x.WordTotal++
			x.WordRecOf = append(x.WordRecOf, int32(i))
			gs := tokenize.Distinct(tokenize.WordQGrams(w, q))
			x.GramSizeOf = append(x.GramSizeOf, int32(len(gs)))
			for _, g := range gs {
				grams[g] = append(grams[g], wid)
			}
			if fam != nil {
				for slot, v := range fam.Signature(gs) {
					k := core.SigKey{Slot: slot, Value: v}
					sigs[k] = append(sigs[k], wid)
				}
			}
		}
	}
	x.GramKeys = slices.Sorted(maps.Keys(grams))
	for _, g := range x.GramKeys {
		x.GramIndex = append(x.GramIndex, grams[g])
	}
	if fam != nil {
		x.SigKeys = slices.SortedFunc(maps.Keys(sigs), func(a, b core.SigKey) int {
			return cmp.Or(cmp.Compare(a.Slot, b.Slot), cmp.Compare(a.Value, b.Value))
		})
		for _, k := range x.SigKeys {
			x.SigIndex = append(x.SigIndex, sigs[k])
		}
	}
	return x
}

// wordIndexDiff names the first field in which two word indexes differ, ""
// when none does. Empty and nil slices count as equal.
func wordIndexDiff(want, got *core.WordIndex) string {
	flat := func(a, b []int32) bool { return slices.Equal(a, b) }
	rows := func(a, b [][]int32) bool { return slices.EqualFunc(a, b, flat) }
	switch {
	case want.WordTotal != got.WordTotal:
		return "WordTotal"
	case !flat(want.WordOff, got.WordOff):
		return "WordOff"
	case !flat(want.WordRecOf, got.WordRecOf):
		return "WordRecOf"
	case !flat(want.GramSizeOf, got.GramSizeOf):
		return "GramSizeOf"
	case !slices.Equal(want.GramKeys, got.GramKeys):
		return "GramKeys"
	case !rows(want.GramIndex, got.GramIndex):
		return "GramIndex"
	case !slices.Equal(want.SigKeys, got.SigKeys):
		return "SigKeys"
	case !rows(want.SigIndex, got.SigIndex):
		return "SigIndex"
	}
	return ""
}

// adversarialTexts stress the word q-gram sets: repeated words, words
// shorter than q, one-letter words, case variants of one word, multi-byte
// words and records without any word.
var adversarialTexts = []string{
	"data data data", "a b c a", "ab AB Ab", "", "   ", "x",
	"straße STRASSE über", "東京 東京大学 京", "ÉCOLE école", "aa aaa aaaa",
	"q", "zz z zzz", "naïve naive",
}

// TestWordIndexMatchesNaive compares the word index, built per dictionary
// word, field by field with the per-occurrence oracle: on the dirty DBLP
// relation plus the adversarial records, at word q-gram sizes 2 and 3, with
// and without signatures, on a fresh build and after every step of a
// seeded mutation script.
func TestWordIndexMatchesNaive(t *testing.T) {
	ds, err := dirty.DBLP(300, 5)
	if err != nil {
		t.Fatal(err)
	}
	recs := slices.Clone(ds.Records)
	next := 1 << 20
	for _, text := range adversarialTexts {
		recs = append(recs, core.Record{TID: next, Text: text})
		next++
	}
	for _, q := range []int{2, 3} {
		for _, layers := range []core.CorpusLayers{core.AllLayers, core.LayerWordGrams} {
			cfg := core.DefaultConfig()
			cfg.WordQ = q
			c, err := core.NewCorpus(recs, cfg, layers)
			if err != nil {
				t.Fatal(err)
			}
			var fam *minhash.Family
			if c.Layers().Has(core.LayerSigs) {
				fam = minhash.NewFamily(cfg.MinHashSize(), cfg.MinHashSeed)
			}
			check := func(step int) {
				t.Helper()
				w := c.Snapshot().Words
				if d := wordIndexDiff(naiveWordIndex(w.Words, q, fam), w.Index()); d != "" {
					t.Fatalf("q=%d layers %b step %d: field %s differs from the per-occurrence build", q, layers, step, d)
				}
			}
			check(0)
			rng := rand.New(rand.NewSource(int64(q)))
			tid := next
			for step := 1; step <= 30; step++ {
				live := c.Records()
				text := adversarialTexts[rng.Intn(len(adversarialTexts))] + " " + live[rng.Intn(len(live))].Text
				var err error
				switch step % 3 {
				case 0:
					err = c.Insert(core.Record{TID: tid, Text: text})
					tid++
				case 1:
					err = c.Delete(live[rng.Intn(len(live))].TID)
				case 2:
					err = c.Upsert(core.Record{TID: live[rng.Intn(len(live))].TID, Text: text})
				}
				if err != nil {
					t.Fatal(err)
				}
				check(step)
			}
		}
	}
}

// TestLegacyAPXSNAP3SegmentsRebuildWordIndex opens two APXSNAP3 segments:
// an all-layers corpus at epoch 2, and a CRC-valid one whose stored word
// q-gram index lacks its first gram ("$A", named by three words). A stored
// index that disagreed with its words used to load and then panic on the
// first delete that recounted the missing gram. Both now open by a fresh
// build from their records at the stored epoch; deleting TID 1 works, and
// GESJaccard and GESapx answer exactly as over a fresh build of the
// remaining records.
func TestLegacyAPXSNAP3SegmentsRebuildWordIndex(t *testing.T) {
	queries := []string{"AT&T Inc", "Beijing Hotel Group", "Stanley Morgn Gruop", "Redwood Energy", "zq"}
	for name, epoch := range map[string]uint64{"apxsnap3.seg": 2, "apxsnap3-bad-word-index.seg": 0} {
		data, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		lc, err := core.LoadSnapshot(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if lc.Layers() != core.AllLayers || lc.Epoch() != epoch || lc.TokenizePasses() != 1 {
			t.Fatalf("%s: layers %b, epoch %d, %d tokenize passes", name, lc.Layers(), lc.Epoch(), lc.TokenizePasses())
		}
		if err := lc.Delete(1); err != nil {
			t.Fatalf("%s: delete TID 1: %v", name, err)
		}
		fresh, err := core.NewCorpus(lc.Records(), lc.Config(), lc.Layers())
		if err != nil {
			t.Fatal(err)
		}
		if d := core.SnapshotStateDiff(fresh.Snapshot(), lc.Snapshot()); d != "" {
			t.Fatalf("%s: %s", name, d)
		}
		for _, pred := range []string{"GESJaccard", "GESapx"} {
			got, err := native.Attach(pred, lc, lc.Config())
			if err != nil {
				t.Fatal(err)
			}
			want, err := native.Attach(pred, fresh, fresh.Config())
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				a, err := got.Select(q)
				if err != nil {
					t.Fatal(err)
				}
				b, err := want.Select(q)
				if err != nil {
					t.Fatal(err)
				}
				if !sameMatches(a, b) {
					t.Errorf("%s: %s on %q: loaded %v, fresh %v", name, pred, q, a, b)
				}
			}
		}
	}
}
