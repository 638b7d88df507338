package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/store/segment"
)

// fuzzRecords is the 50-record relation FuzzDecodeGramLayer is seeded
// from: the persistence fixture's titles recombined.
func fuzzRecords() []Record {
	base := persistRecords()
	out := make([]Record, 50)
	for i := range out {
		a, b := base[i%len(base)], base[(i*7+3)%len(base)]
		out[i] = Record{TID: i + 1, Text: a.Text + " " + b.Text[:len(b.Text)/2]}
	}
	return out
}

// zeroNormRecords holds one record ("ab") whose grams all occur in every
// record, so its tf-idf norm is 0 and the tf-idf table marks it skipped.
func zeroNormRecords() []Record {
	texts := []string{"ab cd", "ab", "cd ab", "ab ab ef", "xy ab", "ab cd ef"}
	out := make([]Record, len(texts))
	for i, s := range texts {
		out[i] = Record{TID: i + 1, Text: s}
	}
	return out
}

// repeatedGramRecords repeat grams within a record, so rank rows hold runs
// longer than one (tf > 1).
func repeatedGramRecords() []Record {
	texts := []string{"aaaa aaaa", "abab abab ab", "banana bandana", "aaaa", "nab"}
	out := make([]Record, len(texts))
	for i, s := range texts {
		out[i] = Record{TID: 10 * (i + 1), Text: s}
	}
	return out
}

// decreasingGramRow returns a copy of a gram layer section of nrec records
// with the first and last entries of the first row holding two distinct
// ranks swapped, so that row's ranks decrease.
func decreasingGramRow(t testing.TB, payload []byte, nrec int) []byte {
	d := segment.NewDecoder(payload)
	d.Strs()
	d.Int()
	off := len(payload) - d.Remaining()
	for range nrec {
		n := int(binary.LittleEndian.Uint32(payload[off:]))
		first, last := off+4, off+4*n
		if n > 1 && !bytes.Equal(payload[first:first+4], payload[last:last+4]) {
			out := bytes.Clone(payload)
			copy(out[first:first+4], payload[last:last+4])
			copy(out[last:last+4], payload[first:first+4])
			return out
		}
		off += 4 + 4*n
	}
	t.Fatal("no row holds two distinct ranks")
	return nil
}

func encodedGramLayer(t testing.TB, recs []Record) []byte {
	c, err := NewCorpus(recs, DefaultConfig(), AllLayers)
	if err != nil {
		t.Fatal(err)
	}
	e := segment.NewEncoder(1 << 16)
	encodeGramLayer(e, c.Snapshot().Grams)
	return e.Bytes()
}

// FuzzDecodeGramLayer decodes arbitrary gram layer sections. Whatever the
// bytes, the decoder returns an error or a layer whose posting ids are in
// range and ascending and whose every weight column derives with one value
// per shared id — never a panic, never a misaligned column.
func FuzzDecodeGramLayer(f *testing.F) {
	for _, recs := range [][]Record{fuzzRecords(), zeroNormRecords(), repeatedGramRecords()} {
		payload := encodedGramLayer(f, recs)
		if _, err := decodeGramLayer(payload, len(recs), AllLayers); err != nil {
			f.Fatalf("seed of %d records does not decode: %v", len(recs), err)
		}
		f.Add(payload, uint8(len(recs)))
	}
	// A row whose ranks decrease: every byte valid but the order.
	recs := repeatedGramRecords()
	f.Add(decreasingGramRow(f, encodedGramLayer(f, recs), len(recs)), uint8(len(recs)))
	f.Fuzz(func(t *testing.T, payload []byte, n uint8) {
		nrec := int(n)
		l, err := decodeGramLayer(payload, nrec, AllLayers)
		if err != nil {
			return
		}
		if err := checkDecodedLayer(l, nrec); err != nil {
			t.Fatal(err)
		}
	})
}

// snapshotTags are the sections FuzzLoadSnapshot frames, in segment order.
var snapshotTags = []uint8{secHeader, secRecords, secRawGrams, secWords, secNorms}

// splitSnapshot returns the payloads of a segment's sections in
// snapshotTags order, empty where the segment has none.
func splitSnapshot(t testing.TB, data []byte) [][]byte {
	r, err := segment.NewReader(data, SnapshotMagic)
	if err != nil {
		t.Fatal(err)
	}
	byTag := map[uint8][]byte{}
	for {
		tag, payload, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		byTag[tag] = payload
	}
	out := make([][]byte, len(snapshotTags))
	for i, tag := range snapshotTags {
		out[i] = byTag[tag]
	}
	return out
}

// frameSnapshot frames section payloads, in snapshotTags order, into a
// segment with valid CRCs.
func frameSnapshot(t testing.TB, payloads ...[]byte) []byte {
	var buf bytes.Buffer
	sw, err := segment.NewWriter(&buf, SnapshotMagic)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range payloads {
		if err := sw.Section(snapshotTags[i], p); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// headerPayload encodes a snapshot header section as WriteSnapshot does.
func headerPayload(cfg Config, layers CorpusLayers, nrec int, pruned bool) []byte {
	e := segment.NewEncoder(128)
	encodeConfig(e, cfg)
	e.U32(uint32(layers))
	e.U64(0)
	e.Int(nrec)
	e.Bool(pruned)
	return e.Bytes()
}

// hostileHeader is a segment of about a hundred bytes whose header asks
// for min-hash signatures of 2^40 values: a loader that sized a signature
// family from it would exhaust memory, which no recover can catch.
func hostileHeader(t testing.TB) []byte {
	cfg := DefaultConfig()
	cfg.MinHashK = 1 << 40
	return frameSnapshot(t, headerPayload(cfg, LayerSigs.withDeps(), 0, false), nil, nil, nil, nil)
}

func snapshotBytes(t testing.TB, recs []Record, cfg Config, layers CorpusLayers) []byte {
	c, err := NewCorpus(recs, cfg, layers)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mutatedSnapshotBytes is the segment of an all-layers corpus after an
// insert, a delete and an upsert: dense word ids and posting positions
// that moved.
func mutatedSnapshotBytes(t testing.TB) []byte {
	c, err := NewCorpus(persistRecords(), DefaultConfig(), AllLayers)
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{
		c.Insert(Record{TID: 500, Text: "Beijing Hotel Group"}),
		c.Delete(4),
		c.Upsert(Record{TID: 10, Text: "Hotel Beijing Labs"}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadSnapshotRejectsHostileHeader loads CRC-valid segments whose header
// or rank rows contradict what a corpus can be. Each must be an error,
// never a crash: the header's config passes the same validation NewCorpus
// runs, and every rank row must fit its token table and its records.
func TestLoadSnapshotRejectsHostileHeader(t *testing.T) {
	if _, err := LoadSnapshot(hostileHeader(t)); err == nil || !strings.Contains(err.Error(), "min-hash size") {
		t.Fatalf("min-hash size 2^40: %v", err)
	}
	recs := persistRecords()
	secs := splitSnapshot(t, snapshotBytes(t, recs, DefaultConfig(), AllLayers))
	load := func(cfg Config, nrec int, pruned bool) error {
		framed := append([][]byte{headerPayload(cfg, AllLayers, nrec, pruned)}, secs[1:]...)
		_, err := LoadSnapshot(frameSnapshot(t, framed...))
		return err
	}
	if err := load(DefaultConfig(), len(recs), false); err != nil {
		t.Fatalf("re-framed segment does not load: %v", err)
	}
	nan := DefaultConfig()
	nan.PruneRate = math.NaN()
	hugeQ := DefaultConfig()
	hugeQ.Q = 1 << 40
	for name, err := range map[string]error{
		"NaN prune rate":                      load(nan, len(recs), false),
		"q-grams of 2^40 characters":          load(hugeQ, len(recs), false),
		"pruning flag without a prune rate":   load(DefaultConfig(), len(recs), true),
		"more records than the section holds": load(DefaultConfig(), 1<<40, false),
	} {
		if err == nil {
			t.Errorf("%s: loaded without error", name)
		}
	}
	// A section that is well framed but names impossible state.
	framed := slices.Clone(secs)
	framed[2] = decreasingGramRow(t, secs[2], len(recs))
	if _, err := LoadSnapshot(frameSnapshot(t, framed...)); err == nil || !strings.Contains(err.Error(), "decreases") {
		t.Errorf("gram row whose ranks decrease: %v", err)
	}
	// One record fewer in the header, records and norms sections, which
	// then decode cleanly: the rank rows of the layer taken from the full
	// segment outnumber the records, and its decoder must say so.
	short := splitSnapshot(t, snapshotBytes(t, recs[:len(recs)-1], DefaultConfig(), AllLayers))
	for name, grams := range map[string]bool{"gram layer": true, "word layer": false} {
		framed := append([][]byte{headerPayload(DefaultConfig(), AllLayers, len(recs)-1, false)}, short[1:]...)
		if grams {
			framed[2] = secs[2]
		} else {
			framed[3] = secs[3]
		}
		if _, err := LoadSnapshot(frameSnapshot(t, framed...)); err == nil || !strings.Contains(err.Error(), "token table holds") {
			t.Errorf("%s with more rows than records: %v", name, err)
		}
	}
}

// FuzzLoadSnapshot loads segments framed from arbitrary header, records,
// gram, word and norms payloads with valid CRCs, so the bytes reach the
// section decoders rather than the CRC check. Whatever loads must carry
// aligned posting columns and build every weight column and word index its
// layers carry without a panic. The seeds are APXSNAP4 segments as
// WriteSnapshot writes them today.
func FuzzLoadSnapshot(f *testing.F) {
	pruned := DefaultConfig()
	pruned.PruneRate = 0.2
	wordQ3 := DefaultConfig()
	wordQ3.WordQ = 3
	for _, seg := range [][]byte{
		snapshotBytes(f, persistRecords(), DefaultConfig(), AllLayers),
		snapshotBytes(f, persistRecords(), pruned, AllLayers),
		snapshotBytes(f, repeatedGramRecords(), wordQ3, AllLayers),
		snapshotBytes(f, zeroNormRecords(), DefaultConfig(), LayerTFIDF.withDeps()),
		snapshotBytes(f, persistRecords(), DefaultConfig(), (LayerSigs | LayerNorms).withDeps()),
		hostileHeader(f),
		mutatedSnapshotBytes(f),
		snapshotBytes(f, repeatedGramRecords(), DefaultConfig(), AllLayers),
	} {
		s := splitSnapshot(f, seg)
		f.Add(s[0], s[1], s[2], s[3], s[4])
	}
	f.Fuzz(func(t *testing.T, header, records, grams, words, norms []byte) {
		c, err := LoadSnapshot(frameSnapshot(t, header, records, grams, words, norms))
		if err != nil {
			return
		}
		s := c.Snapshot()
		deriveColumns(s)
		for _, l := range []*GramLayer{s.RawGrams, s.Grams} {
			if l != nil {
				if err := checkDecodedLayer(l, len(s.Records)); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}

func checkDecodedLayer(l *GramLayer, nrec int) error {
	for r, ids := range l.Postings {
		for j, id := range ids {
			if id < 0 || int(id) >= nrec || (j > 0 && id <= ids[j-1]) {
				return fmt.Errorf("posting list %d: id %d out of order or range", r, id)
			}
		}
	}
	return ColumnsAligned(l)
}

// ColumnsAligned checks that every weight column a gram layer carries — the
// tf-idf, LM and tf columns — holds one value per shared posting id, rank
// by rank. Exported for the external test package.
func ColumnsAligned(l *GramLayer) error {
	check := func(name string, n func(r int) int) error {
		for r, ids := range l.Postings {
			if n(r) != len(ids) {
				return fmt.Errorf("%s rank %d: %d values for %d ids", name, r, n(r), len(ids))
			}
		}
		return nil
	}
	if t := l.TFIDF(); t != nil {
		if err := check("TFIDF", func(r int) int { return len(t.Post[r]) }); err != nil {
			return err
		}
	}
	if t := l.LM(); t != nil {
		if err := check("LM", func(r int) int { return len(t.Post[r]) }); err != nil {
			return err
		}
	}
	if tf := l.TF(); tf != nil {
		return check("TF", func(r int) int { return len(tf[r]) })
	}
	return nil
}
