package core_test

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/native"
	"repro/internal/store/segment"
)

// The generated differential of delta-aware assembly: a corpus driven
// through a seeded random mutation history must, after every single step,
// serialize to the same bytes as a corpus freshly built over its records,
// and answer every predicate bit-identically. The generator is forced
// through the cases splicing can get wrong: a token nobody has seen, the
// last occurrence of a token dying, an empty text, a record repeating a
// word, and deleting the first and the last position.

var genWords = []string{
	"approximate", "selection", "predicates", "declarative", "benchmark",
	"queries", "similarity", "tokens", "weights", "probabilistic", "database",
	"cleaning", "records", "matching", "evaluation", "of", "the", "for", "in",
}

func genText(rng *rand.Rand) string {
	n := 1 + rng.Intn(5)
	text := ""
	for i := 0; i < n; i++ {
		w := genWords[rng.Intn(len(genWords))]
		if rng.Intn(4) == 0 { // a typo: drop one letter
			j := rng.Intn(len(w))
			w = w[:j] + w[j+1:]
		}
		if i > 0 {
			text += " "
		}
		text += w
	}
	return text
}

// history drives one corpus and mirrors its record list.
type history struct {
	t    *testing.T
	c    *core.Corpus
	rng  *rand.Rand
	live []int // TIDs in storage order
	next int   // next unused TID
}

func (h *history) insert(texts ...string) {
	h.t.Helper()
	recs := make([]core.Record, len(texts))
	for i, text := range texts {
		recs[i] = core.Record{TID: h.next, Text: text}
		h.live = append(h.live, h.next)
		h.next++
	}
	if err := h.c.Insert(recs...); err != nil {
		h.t.Fatal(err)
	}
}

func (h *history) upsert(recs ...core.Record) {
	h.t.Helper()
	for _, r := range recs {
		if !containsInt(h.live, r.TID) {
			h.live = append(h.live, r.TID)
		}
	}
	if err := h.c.Upsert(recs...); err != nil {
		h.t.Fatal(err)
	}
}

func (h *history) delete(tids ...int) {
	h.t.Helper()
	for _, tid := range tids {
		i := indexInt(h.live, tid)
		h.live = append(h.live[:i], h.live[i+1:]...)
	}
	if err := h.c.Delete(tids...); err != nil {
		h.t.Fatal(err)
	}
}

func containsInt(s []int, v int) bool { return indexInt(s, v) >= 0 }

func indexInt(s []int, v int) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}

// pick returns up to n distinct live TIDs.
func (h *history) pick(n int) []int {
	perm := h.rng.Perm(len(h.live))
	if n > len(perm) {
		n = len(perm)
	}
	out := make([]int, n)
	for i := range out {
		out[i] = h.live[perm[i]]
	}
	return out
}

// step applies one mutation batch: a forced case at fixed steps, a random
// batch of 1–8 otherwise (the relation hovers below 70 records, so that all
// thirteen predicates can answer after every step).
func (h *history) step(i int) {
	h.t.Helper()
	switch i {
	case 3: // a brand-new token, in both layers
		h.insert("zyzzyva quokka")
	case 4: // and its last occurrence dying again
		h.delete(h.live[len(h.live)-1])
	case 7:
		h.insert("")
	case 8: // an empty record replaced, then removed
		h.upsert(core.Record{TID: h.live[len(h.live)-1], Text: "records"})
	case 11:
		h.insert("data data data mining data", "the the the")
	case 12:
		h.delete(h.live[0])
	case 13:
		h.delete(h.live[len(h.live)-1])
	case 14: // first and last position in one batch, with a mid upsert
		h.delete(h.live[0], h.live[len(h.live)-1])
	case 15: // a replacement that only adds tokens to its record
		tid := h.live[len(h.live)/2]
		h.upsert(core.Record{TID: tid, Text: "matching matching xenon"})
	default:
		n := 1 + h.rng.Intn(8)
		switch k := h.rng.Intn(10); {
		case len(h.live) < 60 && (k < 4 || len(h.live) < 12):
			texts := make([]string, n)
			for j := range texts {
				texts[j] = genText(h.rng)
			}
			h.insert(texts...)
		case k < 7:
			h.delete(h.pick(n)...)
		default: // upsert: a mix of live and new TIDs
			var recs []core.Record
			for _, tid := range h.pick(n) {
				recs = append(recs, core.Record{TID: tid, Text: genText(h.rng)})
			}
			if h.rng.Intn(2) == 0 {
				recs = append(recs, core.Record{TID: h.next, Text: genText(h.rng)})
				h.next++
			}
			h.upsert(recs...)
		}
	}
}

// snapshotSections serializes a corpus and returns its sections by tag.
// The epoch — the one field a fresh build cannot share with a mutated
// corpus — is zeroed in the header (config, layers, epoch, record count,
// pruned flag: the epoch sits 17 bytes from the end).
func snapshotSections(t *testing.T, c *core.Corpus) map[uint8][]byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := segment.NewReader(buf.Bytes(), core.SnapshotMagic)
	if err != nil {
		t.Fatal(err)
	}
	out := map[uint8][]byte{}
	for {
		tag, payload, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if tag == 1 {
			payload = append([]byte(nil), payload...)
			clear(payload[len(payload)-17 : len(payload)-9])
		}
		out[tag] = payload
	}
	return out
}

// attachable returns the predicates the corpus's layers support.
func attachable(t *testing.T, c *core.Corpus, cfg core.Config) []core.Predicate {
	t.Helper()
	var out []core.Predicate
	for _, name := range core.PredicateNames {
		if p, err := native.Attach(name, c, cfg); err == nil {
			out = append(out, p)
		}
	}
	return out
}

func sameMatches(a, b []core.Match) bool {
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

func probes(c *core.Corpus) []string {
	recs := c.Records()
	qs := []string{"approximate selection predicates", "the of zq", "zyzzyva", "data data"}
	if len(recs) > 0 {
		qs = append(qs, recs[0].Text, recs[len(recs)/2].Text+" x", recs[len(recs)-1].Text)
	}
	return qs
}

func TestIncrementalAssembleMatchesFresh(t *testing.T) {
	lean := core.LayerGrams | core.LayerPostings | core.LayerRS | core.LayerWords
	cases := []struct {
		name   string
		prune  float64
		layers core.CorpusLayers
		want   int // attachable predicates
	}{
		{"all", 0, core.AllLayers, 13},
		{"pruned", 0.3, core.AllLayers, 13},
		{"lean", 0, lean, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := core.DefaultConfig()
			cfg.PruneRate = tc.prune
			cfg.EditTheta = 0.5
			rng := rand.New(rand.NewSource(42))
			var base []core.Record
			for i := 0; i < 20; i++ {
				base = append(base, core.Record{TID: i + 1, Text: genText(rng)})
			}
			c, err := core.NewCorpus(base, cfg, tc.layers)
			if err != nil {
				t.Fatal(err)
			}
			h := &history{t: t, c: c, rng: rng, next: 1000}
			for _, r := range base {
				h.live = append(h.live, r.TID)
			}
			for step := 0; step < 220; step++ {
				h.step(step)
				recs := c.Records()
				if len(recs) != len(h.live) {
					t.Fatalf("step %d: %d records, mirror has %d", step, len(recs), len(h.live))
				}
				for i, r := range recs {
					if r.TID != h.live[i] {
						t.Fatalf("step %d: storage order diverged at %d", step, i)
					}
				}
				fresh, err := core.NewCorpus(recs, cfg, tc.layers)
				if err != nil {
					t.Fatal(err)
				}
				// Predicates first, so the byte comparison below also covers
				// snapshots whose columns derived one by one.
				got, want := attachable(t, c, cfg), attachable(t, fresh, cfg)
				if len(got) != tc.want || len(want) != tc.want {
					t.Fatalf("step %d: %d/%d predicates attached, want %d", step, len(got), len(want), tc.want)
				}
				for _, q := range probes(c) {
					for i := range got {
						a, err := got[i].Select(q)
						if err != nil {
							t.Fatal(err)
						}
						b, err := want[i].Select(q)
						if err != nil {
							t.Fatal(err)
						}
						if !sameMatches(a, b) {
							t.Fatalf("step %d: %s on %q: mutated %v, fresh %v", step, got[i].Name(), q, a, b)
						}
					}
				}
				for _, l := range []*core.GramLayer{c.Snapshot().Grams, c.Snapshot().RawGrams} {
					if err := core.ColumnsAligned(l); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
				a, b := snapshotSections(t, c), snapshotSections(t, fresh)
				if len(a) != len(b) {
					t.Fatalf("step %d: %d sections, fresh build has %d", step, len(a), len(b))
				}
				for tag := range a {
					if !bytes.Equal(a[tag], b[tag]) {
						t.Fatalf("step %d (epoch %d, %d records): section %d of the mutated corpus differs from a fresh build's", step, c.Epoch(), len(recs), tag)
					}
				}
			}
		})
	}
}

// TestOldSnapshotsSurviveLaterMutations guards the sharing between
// snapshots: posting lists grow in place and untouched rows are shared, so
// a snapshot (and the predicate views attached to it) held from an earlier
// epoch must keep answering exactly as it did while later mutations run —
// including the weight columns it derives only after those mutations. Run
// under -race.
func TestOldSnapshotsSurviveLaterMutations(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.EditTheta = 0.5
	rng := rand.New(rand.NewSource(7))
	var base []core.Record
	for i := 0; i < 40; i++ {
		base = append(base, core.Record{TID: i + 1, Text: genText(rng)})
	}
	c, err := core.NewCorpus(base, cfg, core.AllLayers)
	if err != nil {
		t.Fatal(err)
	}
	h := &history{t: t, c: c, rng: rng, next: 1000}
	for _, r := range base {
		h.live = append(h.live, r.TID)
	}

	type held struct {
		epoch   uint64
		snap    *core.Snapshot
		recs    []core.Record
		preds   []core.Predicate
		queries []string
		answers [][][]core.Match // [predicate][query]
	}
	hold := func() *held {
		hd := &held{epoch: c.Epoch(), snap: c.Snapshot(), recs: c.Records(), queries: probes(c)}
		// Half the views attach now, so some columns derive before the later
		// mutations and the rest only afterwards (through snap, below).
		for i, name := range core.PredicateNames {
			if i%2 == 0 {
				p, err := native.Attach(name, c, cfg)
				if err != nil {
					t.Fatal(err)
				}
				hd.preds = append(hd.preds, p)
			}
		}
		hd.answers = make([][][]core.Match, len(hd.preds))
		for i, p := range hd.preds {
			for _, q := range hd.queries {
				ms, err := p.Select(q)
				if err != nil {
					t.Fatal(err)
				}
				hd.answers[i] = append(hd.answers[i], ms)
			}
		}
		return hd
	}

	var helds []*held
	stop := make(chan struct{})
	var wg sync.WaitGroup
	reader := func(hd *held) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i, p := range hd.preds {
				for j, q := range hd.queries {
					ms, err := p.Select(q)
					if err != nil {
						t.Error(err)
						return
					}
					if !sameMatches(ms, hd.answers[i][j]) {
						t.Errorf("epoch %d: %s on %q changed under later mutations", hd.epoch, p.Name(), q)
						return
					}
				}
			}
		}
	}
	for step := 0; step < 120; step++ {
		h.step(step)
		if step%20 == 5 {
			hd := hold()
			helds = append(helds, hd)
			wg.Add(1)
			go reader(hd)
		}
	}
	close(stop)
	wg.Wait()

	// Every held snapshot still equals a fresh build of the records it
	// held, structure and late-derived columns alike.
	for _, hd := range helds {
		fresh, err := core.NewCorpus(hd.recs, cfg, core.AllLayers)
		if err != nil {
			t.Fatal(err)
		}
		fs := fresh.Snapshot()
		check := func(name string, got, want any) {
			if !reflect.DeepEqual(got, want) {
				t.Errorf("epoch %d: %s of the held snapshot no longer matches a fresh build", hd.epoch, name)
			}
		}
		check("records", hd.snap.Records, fs.Records)
		check("pairs", hd.snap.Grams.Pairs, fs.Grams.Pairs)
		check("postings", hd.snap.Grams.Postings, fs.Grams.Postings)
		check("RS", hd.snap.Grams.RS(), fs.Grams.RS())
		check("TFIDF", hd.snap.Grams.TFIDF(), fs.Grams.TFIDF())
		check("LM", hd.snap.Grams.LM(), fs.Grams.LM())
		check("TF", hd.snap.RawGrams.TF(), fs.RawGrams.TF())
		check("word gram index", hd.snap.Words.GramIndex, fs.Words.GramIndex)
		check("signature index", hd.snap.Words.SigIndex, fs.Words.SigIndex)
		check("word idf weights", hd.snap.Words.IDFWeights(), fs.Words.IDFWeights())
		check("word tf-idf", hd.snap.Words.TFIDF(), fs.Words.TFIDF())
		if _, ok := hd.snap.Index(hd.recs[0].TID); !ok {
			t.Errorf("epoch %d: held TID index lost its first record", hd.epoch)
		}
	}
	if t.Failed() {
		t.Log(fmt.Sprintf("final epoch %d, %d records", c.Epoch(), c.Len()))
	}
}
