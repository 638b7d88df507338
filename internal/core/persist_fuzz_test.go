package core

import (
	"fmt"
	"slices"
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
// record, so its tf-idf norm is 0 and its tf-idf rows are absent on disk.
func zeroNormRecords() []Record {
	texts := []string{"ab cd", "ab", "cd ab", "ab ab ef", "xy ab", "ab cd ef"}
	out := make([]Record, len(texts))
	for i, s := range texts {
		out[i] = Record{TID: i + 1, Text: s}
	}
	return out
}

func encodedGramLayer(t testing.TB, recs []Record) []byte {
	c, err := NewCorpus(recs, DefaultConfig(), AllLayers)
	if err != nil {
		t.Fatal(err)
	}
	e := segment.NewEncoder(1 << 16)
	encodeGramLayer(e, c.Snapshot().Grams, wireTables(c.layers, false, false))
	return e.Bytes()
}

// TestDecodeWPostTableRejectsHostileRows feeds the weighted-table decoder
// rows that disagree with the shared posting ids — a wrong record, a
// missing row, an extra row, a wrong total, rows for records the skip
// column marks — and tf values that are not positive integers. Each must be
// an error, never a misaligned column.
func TestDecodeWPostTableRejectsHostileRows(t *testing.T) {
	c, err := NewCorpus(zeroNormRecords(), DefaultConfig(), AllLayers)
	if err != nil {
		t.Fatal(err)
	}
	l := c.Snapshot().Grams
	tfidf := l.TFIDF()
	if tfidf.Skip == nil {
		t.Fatal("precondition: the fixture has a zero-norm record")
	}
	identity := func(v float64) (float64, bool) { return v, true }
	decode := func(ids [][]int32, col [][]float64, encSkip, decSkip []bool) ([][]float64, error) {
		e := segment.NewEncoder(1 << 12)
		encodeWPostTable(e, ids, col, encSkip)
		return decodeWPostTable(segment.NewDecoder(e.Bytes()), l, decSkip, identity)
	}
	got, err := decode(l.Postings, tfidf.Post, tfidf.Skip, tfidf.Skip)
	if err != nil || !slices.EqualFunc(got, tfidf.Post, slices.Equal[[]float64]) {
		t.Fatalf("clean round trip: %v", err)
	}
	// r is a rank whose list holds at least two records, none of which the
	// skip column marks.
	r := slices.IndexFunc(l.Postings, func(ids []int32) bool {
		return len(ids) >= 2 && rowCount(ids, tfidf.Skip) == len(ids)
	})
	edit := func(f func(ids [][]int32, col [][]float64)) ([][]int32, [][]float64) {
		ids, col := make([][]int32, len(l.Postings)), make([][]float64, len(l.Postings))
		for i := range ids {
			ids[i], col[i] = slices.Clone(l.Postings[i]), slices.Clone(tfidf.Post[i])
		}
		f(ids, col)
		return ids, col
	}
	hostile := map[string]func(ids [][]int32, col [][]float64){
		"wrong record": func(ids [][]int32, _ [][]float64) { ids[r][0], ids[r][1] = ids[r][1], ids[r][0] },
		"missing row":  func(ids [][]int32, col [][]float64) { ids[r], col[r] = ids[r][1:], col[r][1:] },
		"extra row": func(ids [][]int32, col [][]float64) {
			ids[r], col[r] = append(ids[r], ids[r][0]), append(col[r], 0)
		},
		"repeated record": func(ids [][]int32, _ [][]float64) { ids[r][1] = ids[r][0] },
	}
	for name, f := range hostile {
		ids, col := edit(f)
		if _, err := decode(ids, col, tfidf.Skip, tfidf.Skip); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if _, err := decode(l.Postings, tfidf.Post, nil, tfidf.Skip); err == nil {
		t.Error("rows for skipped records: decoded without error")
	}
	if _, err := decode(l.Postings, tfidf.Post, tfidf.Skip, nil); err == nil {
		t.Error("missing rows for unmarked records: decoded without error")
	}
	e := segment.NewEncoder(1 << 12)
	encodeWPostTable(e, l.Postings, tfidf.Post, tfidf.Skip)
	b := e.Bytes()
	b[0]++ // the leading total
	if _, err := decodeWPostTable(segment.NewDecoder(b), l, tfidf.Skip, identity); err == nil {
		t.Error("wrong total: decoded without error")
	}

	tf := l.TF()
	for _, v := range []float64{0, -1, 1.5, 1 << 40} {
		bad := make([][]float64, len(tf))
		for i := range tf {
			bad[i] = make([]float64, len(tf[i]))
			for j, x := range tf[i] {
				bad[i][j] = float64(x)
			}
		}
		bad[r][0] = v
		e := segment.NewEncoder(1 << 12)
		encodeWPostTable(e, l.Postings, bad, nil)
		if _, err := decodeWPostTable(segment.NewDecoder(e.Bytes()), l, nil, tfValue); err == nil {
			t.Errorf("tf %v: decoded without error", v)
		}
	}
}

// FuzzDecodeGramLayer decodes arbitrary gram layer sections. Whatever the
// bytes, the decoder returns an error or a layer whose posting ids are in
// range and ascending and whose every weight column holds one value per
// shared id — never a panic, never a misaligned column.
func FuzzDecodeGramLayer(f *testing.F) {
	wire := gramTables(AllLayers.withDeps(), false, false)
	for _, recs := range [][]Record{fuzzRecords(), zeroNormRecords()} {
		payload := encodedGramLayer(f, recs)
		if _, err := decodeGramLayer(payload, len(recs), wire, wire); err != nil {
			f.Fatalf("seed of %d records does not decode: %v", len(recs), err)
		}
		f.Add(payload, uint8(len(recs)))
	}
	f.Fuzz(func(t *testing.T, payload []byte, n uint8) {
		nrec := int(n)
		l, err := decodeGramLayer(payload, nrec, wire, wire)
		if err != nil {
			return
		}
		if err := checkDecodedLayer(l, nrec); err != nil {
			t.Fatal(err)
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
