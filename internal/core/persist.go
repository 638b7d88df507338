package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/minhash"
	"repro/internal/store/segment"
	"repro/internal/weights"
)

// This file implements corpus snapshot persistence: WriteSnapshot encodes
// the current immutable Snapshot — records, interned token tables, every
// derived posting/weight table, bound columns, epoch — into a versioned,
// CRC-framed binary segment, and LoadSnapshot decodes it back into a ready
// Corpus without re-tokenizing or re-assembling anything.
//
// The encoding strategy follows one rule: everything carrying floating
// point is serialized verbatim (bit patterns, never recomputed), and only
// purely structural state — document lengths, the dense word-id space,
// the TID index — is rebuilt from the serialized arrays with the exact
// integer arithmetic of the assembly path. The weight columns a snapshot
// derives on first use are all materialized before encoding and installed
// as already derived on decoding, so the bytes do not depend on which
// predicates happened to attach. That makes a loaded corpus bit-identical
// to the corpus that was saved: same epoch, same scores, same tie order,
// for every predicate. Strings are
// interned through the token tables on decode (a document's grams alias
// the TokenByRank entries), so a loaded snapshot is also more compact in
// memory than a freshly tokenized one.

// SnapshotMagic identifies a corpus snapshot segment file.
const SnapshotMagic = "APXSNAP1"

// Section tags of a snapshot segment.
const (
	secHeader   = 1
	secRecords  = 2
	secRawGrams = 3
	secEffGrams = 4
	secWords    = 5
	secNorms    = 6
)

// tableFlags says which derived tables a serialized gram layer carries, as
// the flag byte leading its section (wireTables decides which).
func tableFlags(layers CorpusLayers) uint8 {
	var b uint8
	for i, l := range []CorpusLayers{LayerTokenIDs, LayerPostings, LayerRS, LayerTFIDF, LayerLM, LayerNorms} {
		if layers.Has(l) {
			b |= 1 << i
		}
	}
	return b
}

// wireTables is the table set a serialized gram layer declares, derived
// from the layer set a segment header names. It mirrors the assembly path
// (gramTables) with one exception: the raw layer of a pruned split does
// not write its posting ids, which only key its TF column. Posting ids are
// structure the interned pairs determine, so the decoder rebuilds them
// wherever a layer needs them — also for headers written before the ids
// became a dependency of every weight table.
func wireTables(layers CorpusLayers, pruned, raw bool) CorpusLayers {
	t := gramTables(layers, pruned, raw)
	if pruned && raw {
		t &^= LayerPostings
	}
	return t
}

// WriteSnapshot serializes the corpus's current snapshot to w. The write
// works on the immutable snapshot and never blocks mutations or
// selections; pair it with Freeze when the byte stream must be atomic with
// respect to a write-ahead log (checkpointing).
func (c *Corpus) WriteSnapshot(w io.Writer) error {
	s := c.snap.Load()
	sw, err := segment.NewWriter(w, SnapshotMagic)
	if err != nil {
		return err
	}
	pruned := s.Grams != nil && s.Grams != s.RawGrams

	e := segment.NewEncoder(256)
	encodeConfig(e, c.cfg)
	e.U32(uint32(c.layers))
	e.U64(s.Epoch)
	e.Int(len(s.Records))
	e.Bool(pruned)
	if err := sw.Section(secHeader, e.Bytes()); err != nil {
		return err
	}

	e = segment.NewEncoder(32 * len(s.Records))
	for _, r := range s.Records {
		e.I64(int64(r.TID))
		e.Str(r.Text)
	}
	if err := sw.Section(secRecords, e.Bytes()); err != nil {
		return err
	}

	if c.layers.Has(LayerGrams) {
		e = segment.NewEncoder(1 << 20)
		encodeGramLayer(e, s.RawGrams, wireTables(c.layers, pruned, true))
		if err := sw.Section(secRawGrams, e.Bytes()); err != nil {
			return err
		}
		if pruned {
			e = segment.NewEncoder(1 << 20)
			encodeGramLayer(e, s.Grams, wireTables(c.layers, pruned, false))
			if err := sw.Section(secEffGrams, e.Bytes()); err != nil {
				return err
			}
		}
	}
	if c.layers.Has(LayerWords) {
		e = segment.NewEncoder(1 << 20)
		encodeWordLayer(e, s.Words)
		if err := sw.Section(secWords, e.Bytes()); err != nil {
			return err
		}
	}
	if c.layers.Has(LayerNorms) {
		e = segment.NewEncoder(16 * len(s.Norms))
		e.Strs(s.Norms)
		if err := sw.Section(secNorms, e.Bytes()); err != nil {
			return err
		}
	}
	return sw.Close()
}

// LoadSnapshot decodes a snapshot segment (the full file contents) into a
// ready corpus at the serialized epoch. The loaded corpus is bit-identical
// to the one WriteSnapshot captured and accepts mutations exactly like a
// freshly built corpus; its TokenizePasses counter stays at zero because
// no string is ever re-tokenized.
func LoadSnapshot(data []byte) (*Corpus, error) {
	r, err := segment.NewReader(data, SnapshotMagic)
	if err != nil {
		return nil, err
	}
	sections := make(map[uint8][]byte)
	for {
		tag, payload, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if _, dup := sections[tag]; dup {
			return nil, fmt.Errorf("approxsel: duplicate snapshot section 0x%02x", tag)
		}
		sections[tag] = payload
	}

	hdr, ok := sections[secHeader]
	if !ok {
		return nil, fmt.Errorf("approxsel: snapshot has no header section")
	}
	d := segment.NewDecoder(hdr)
	cfg := decodeConfig(d)
	stored := CorpusLayers(d.U32())
	epoch := d.U64()
	nrec := d.Int()
	pruned := d.Bool()
	if err := d.Finish(); err != nil {
		return nil, err
	}
	if nrec < 0 {
		return nil, fmt.Errorf("approxsel: snapshot claims %d records", nrec)
	}

	rec, ok := sections[secRecords]
	if !ok {
		return nil, fmt.Errorf("approxsel: snapshot has no records section")
	}
	d = segment.NewDecoder(rec)
	records := make([]Record, nrec)
	for i := range records {
		records[i] = Record{TID: int(d.I64()), Text: d.Str()}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}

	c := &Corpus{cfg: cfg, layers: stored.withDeps()}
	layers := c.layers
	if c.layers.Has(LayerSigs) {
		c.fam = minhash.NewFamily(cfg.MinHashSize(), cfg.MinHashSeed)
	}
	s := &Snapshot{Epoch: epoch, Records: records, tids: spliceTIDs(nil, (&splice{recs: records}).seal(0))}
	for i := 1; i < nrec; i++ {
		if s.tids[i].tid == s.tids[i-1].tid {
			return nil, fmt.Errorf("approxsel: snapshot records contain duplicate TIDs")
		}
	}

	if layers.Has(LayerGrams) {
		raw, ok := sections[secRawGrams]
		if !ok {
			return nil, fmt.Errorf("approxsel: snapshot has no gram layer section")
		}
		l, err := decodeGramLayer(raw, nrec, wireTables(stored, pruned, true), gramTables(layers, pruned, true))
		if err != nil {
			return nil, err
		}
		s.RawGrams, s.Grams = l, l
		if pruned {
			eff, ok := sections[secEffGrams]
			if !ok {
				return nil, fmt.Errorf("approxsel: pruned snapshot has no effective gram layer")
			}
			el, err := decodeGramLayer(eff, nrec, wireTables(stored, pruned, false), gramTables(layers, pruned, false))
			if err != nil {
				return nil, err
			}
			s.Grams = el
		}
	}
	if layers.Has(LayerWords) {
		wl, ok := sections[secWords]
		if !ok {
			return nil, fmt.Errorf("approxsel: snapshot has no word layer section")
		}
		l, err := decodeWordLayer(wl, nrec, layers)
		if err != nil {
			return nil, err
		}
		s.Words = l
	}
	if layers.Has(LayerNorms) {
		nb, ok := sections[secNorms]
		if !ok {
			return nil, fmt.Errorf("approxsel: snapshot has no norms section")
		}
		d = segment.NewDecoder(nb)
		s.Norms = d.Strs()
		if err := d.Finish(); err != nil {
			return nil, err
		}
		if len(s.Norms) != nrec {
			return nil, fmt.Errorf("approxsel: norms column has %d entries for %d records", len(s.Norms), nrec)
		}
	}
	c.snap.Store(s)
	return c, nil
}

// ReplayMutations applies a gap-free sequence of mutation batches as one
// pass — the cold-start WAL replay path. Every batch is validated against
// the state its predecessors left, exactly like Insert/Delete/Upsert, but
// the batches fold into one splice (splicePlan) that is tokenized and
// assembled once, at the final epoch: assembly is a pure function of the
// resulting records, so the outcome is bit-identical to applying the
// batches one at a time, records overwritten later in the log are never
// tokenized, and the cost stays that of a single mutation carrying the
// log's net delta. The intermediate epochs are never observable during a
// cold start, and a validation failure anywhere in the sequence leaves the
// corpus unchanged. The mutation hook is not invoked — replayed batches
// are already in the log.
func (c *Corpus) ReplayMutations(muts []Mutation) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(muts) == 0 {
		return nil
	}
	plan := newSplicePlan(c.snap.Load())
	for _, m := range muts {
		if m.Epoch != plan.epoch+1 {
			return fmt.Errorf("approxsel: replay gap: batch at epoch %d after epoch %d", m.Epoch, plan.epoch)
		}
		if err := plan.fold(m.Add, m.Del, m.Kind == MutationUpsert); err != nil {
			return err
		}
	}
	c.snap.Store(c.apply(plan))
	return nil
}

// ---- config ----

// encodeConfig serializes every Config field in declaration order; the
// format version bumps if the struct grows.
func encodeConfig(e *segment.Encoder, cfg Config) {
	e.Int(cfg.Q)
	e.Int(cfg.WordQ)
	e.F64(cfg.BM25K1)
	e.F64(cfg.BM25K3)
	e.F64(cfg.BM25B)
	e.F64(cfg.HMMA0)
	e.F64(cfg.GESCins)
	e.F64(cfg.GESThreshold)
	e.F64(cfg.SoftTFIDFTheta)
	e.F64(cfg.EditTheta)
	e.Bool(cfg.EditPositional)
	e.Int(cfg.MinHashK)
	e.I64(cfg.MinHashSeed)
	e.F64(cfg.PruneRate)
}

func decodeConfig(d *segment.Decoder) Config {
	return Config{
		Q:              d.Int(),
		WordQ:          d.Int(),
		BM25K1:         d.F64(),
		BM25K3:         d.F64(),
		BM25B:          d.F64(),
		HMMA0:          d.F64(),
		GESCins:        d.F64(),
		GESThreshold:   d.F64(),
		SoftTFIDFTheta: d.F64(),
		EditTheta:      d.F64(),
		EditPositional: d.Bool(),
		MinHashK:       d.Int(),
		MinHashSeed:    d.I64(),
		PruneRate:      d.F64(),
	}
}

// ---- collection statistics ----

func encodeStatsData(e *segment.Encoder, d weights.StatsData) {
	e.Int(d.N)
	e.Int(d.CS)
	e.F64(d.AvgDL)
	e.F64(d.AvgIDF)
	e.U32(uint32(len(d.DF)))
	for i := range d.DF {
		e.I64(d.DF[i])
		e.I64(d.CF[i])
		e.F64(d.SumPML[i])
	}
}

// decodeStatsInto reads the flat statistics written by encodeStatsData and rebuilds the weights.Corpus over the given token
// order: scalars and float aggregates restored bit-exactly.
func decodeStatsInto(d *segment.Decoder, tokens []string) (*weights.Corpus, error) {
	sd := weights.StatsData{
		N:     d.Int(),
		CS:    d.Int(),
		AvgDL: d.F64(),
	}
	sd.AvgIDF = d.F64()
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n != len(tokens) {
		return nil, fmt.Errorf("approxsel: statistics cover %d tokens, table has %d", n, len(tokens))
	}
	rows := d.Raw(24*n, "statistics rows")
	if err := d.Err(); err != nil {
		return nil, err
	}
	sd.DF = make([]int64, n)
	sd.CF = make([]int64, n)
	sd.SumPML = make([]float64, n)
	for i := 0; i < n; i++ {
		row := rows[24*i:]
		sd.DF[i] = int64(binary.LittleEndian.Uint64(row))
		sd.CF[i] = int64(binary.LittleEndian.Uint64(row[8:]))
		sd.SumPML[i] = math.Float64frombits(binary.LittleEndian.Uint64(row[16:]))
	}
	return weights.FromData(tokens, sd)
}

// ---- gram layers ----

func encodeGramLayer(e *segment.Encoder, l *GramLayer, wire CorpusLayers) {
	l.materialize()
	e.U8(tableFlags(wire))
	e.Strs(l.TokenByRank)
	encodeStatsData(e, l.Stats.Export())
	// Per-record gram multisets as dense ranks, preserving order (the edit
	// predicate's positional filter reads gram positions). The total gram
	// count leads, so the decoder carves every record's multiset from one
	// contiguous backing array.
	e.Int(l.Stats.CS())
	for i, doc := range l.Docs {
		e.U32(uint32(len(doc)))
		for _, g := range doc {
			e.U32(uint32(pairIn(l.Pairs[i], l.TokenByRank, g).Rank))
		}
	}
	encodePairs(e, l.Pairs)
	if l.layers.Has(LayerTokenIDs) {
		e.F64s(l.idfByRank())
	}
	if wire.Has(LayerPostings) {
		encodePostings(e, l.Postings)
	}
	if rs := l.RS(); rs != nil {
		e.F64s(rs.ByRank)
		e.Bool(rs.Len != nil)
		if rs.Len != nil {
			e.F64s(rs.Len)
			e.F64(rs.LenMin)
		}
	}
	if t := l.TFIDF(); t != nil {
		encodePostTable(e, l.Postings, t)
	}
	if lm := l.LM(); lm != nil {
		encodePostTable(e, l.Postings, &lm.PostTable)
		e.F64s(lm.SumComp)
		e.F64(lm.CompMax)
	}
	if tf := l.TF(); tf != nil {
		encodeWPostTable(e, l.Postings, tf, nil)
	}
}

// encodePairs writes per-record distinct (rank, tf) pairs in ascending rank
// order, total first for backing-array carving.
func encodePairs(e *segment.Encoder, rows [][]RankTF) {
	total := 0
	for _, pairs := range rows {
		total += len(pairs)
	}
	e.Int(total)
	for _, pairs := range rows {
		e.U32(uint32(len(pairs)))
		for _, p := range pairs {
			e.U32(uint32(p.Rank))
			e.U32(uint32(p.TF))
		}
	}
}

func encodePostTable(e *segment.Encoder, ids [][]int32, t *PostTable) {
	encodeWPostTable(e, ids, t.Post, t.Skip)
	e.F64s(t.Max)
	e.F64s(t.Min)
}

// decodeGramLayer decodes a gram layer section that declares the wire
// tables into a layer carrying layers.
func decodeGramLayer(payload []byte, nrec int, wire, layers CorpusLayers) (*GramLayer, error) {
	d := segment.NewDecoder(payload)
	if got, want := d.U8(), tableFlags(wire); got != want {
		return nil, fmt.Errorf("approxsel: gram layer tables %06b do not match materialized layers %06b", got, want)
	}
	l := &GramLayer{TokenByRank: d.Strs(), layers: layers}
	nTok := len(l.TokenByRank)

	stats, err := decodeStatsInto(d, l.TokenByRank)
	if err != nil {
		return nil, err
	}
	l.Stats = stats

	// Gram multisets: ranks back to interned strings (aliasing the token
	// table), document lengths derived from the multiset sizes, every
	// record's slice carved from one backing array.
	if l.Docs, err = decodeRankRows(d, nrec, l.TokenByRank, "gram multiset"); err != nil {
		return nil, err
	}
	l.DL = make([]int, nrec)
	for i, doc := range l.Docs {
		l.DL[i] = len(doc)
	}
	if l.Pairs, err = decodePairs(d, nrec, nTok); err != nil {
		return nil, err
	}

	if wire.Has(LayerTokenIDs) {
		idf := d.F64s()
		if len(idf) != nTok {
			return nil, fmt.Errorf("approxsel: idf column has %d entries for %d tokens", len(idf), nTok)
		}
		l.idf.set(idf)
	}
	if layers.Has(LayerPostings) {
		l.Postings = postingsFromPairs(l.Pairs, nTok)
	}
	if wire.Has(LayerPostings) {
		// The stored ids must be exactly the lists rebuilt from the pairs.
		if err := readAlignedRows(d, l.Postings, nil, 4, func(int, []byte) error { return nil }); err != nil {
			return nil, err
		}
	}
	if layers.Has(LayerRS) {
		rs := &RSTable{ByRank: d.F64s()}
		if len(rs.ByRank) != nTok {
			return nil, fmt.Errorf("approxsel: RS column has %d entries for %d tokens", len(rs.ByRank), nTok)
		}
		if d.Bool() {
			rs.Len = d.F64s()
			rs.LenMin = d.F64()
			if len(rs.Len) != nrec {
				return nil, fmt.Errorf("approxsel: RS length column has %d entries for %d records", len(rs.Len), nrec)
			}
		}
		l.rs.set(rs)
	}
	if layers.Has(LayerTFIDF) {
		t, err := decodePostTable(d, l, zeroNorms(l.Pairs, l.idfByRank()))
		if err != nil {
			return nil, err
		}
		l.tfidf.set(t)
	}
	if layers.Has(LayerLM) {
		t, err := decodePostTable(d, l, nil)
		if err != nil {
			return nil, err
		}
		lm := &LMTable{PostTable: *t, SumComp: d.F64s(), CompMax: d.F64()}
		if len(lm.SumComp) != nrec {
			return nil, fmt.Errorf("approxsel: LM columns do not match %d tokens / %d records", nTok, nrec)
		}
		l.lm.set(lm)
	}
	if layers.Has(LayerNorms) {
		tf, err := decodeWPostTable(d, l, nil, tfValue)
		if err != nil {
			return nil, err
		}
		l.tf.set(tf)
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return l, nil
}

// decodeRankRows reads per-record token sequences written as a total plus
// (length, ranks...) rows, interning every token through the table and
// carving all rows from one backing array.
func decodeRankRows(d *segment.Decoder, nrec int, table []string, what string) ([][]string, error) {
	total := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if total < 0 || total > d.Remaining()/4 {
		return nil, fmt.Errorf("approxsel: %s table claims %d entries", what, total)
	}
	backing := make([]string, 0, total)
	rows := make([][]string, nrec)
	for i := range rows {
		n := int(d.U32())
		if err := d.Err(); err != nil {
			return nil, err
		}
		raw := d.Raw(4*n, what)
		if err := d.Err(); err != nil {
			return nil, err
		}
		if len(backing)+n > total {
			return nil, fmt.Errorf("approxsel: %s of record %d overruns its table", what, i)
		}
		start := len(backing)
		for j := 0; j < n; j++ {
			id := binary.LittleEndian.Uint32(raw[4*j:])
			if id >= uint32(len(table)) {
				return nil, fmt.Errorf("approxsel: %s rank %d out of range (%d tokens)", what, id, len(table))
			}
			backing = append(backing, table[id])
		}
		rows[i] = backing[start:len(backing):len(backing)]
	}
	return rows, nil
}

func decodePairs(d *segment.Decoder, nrec, nTok int) ([][]RankTF, error) {
	total := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if total < 0 || total > d.Remaining()/8 {
		return nil, fmt.Errorf("approxsel: count pairs claim %d rows", total)
	}
	backing := make([]RankTF, 0, total)
	rows := make([][]RankTF, nrec)
	for i := range rows {
		n := int(d.U32())
		if err := d.Err(); err != nil {
			return nil, err
		}
		raw := d.Raw(8*n, "count pairs")
		if err := d.Err(); err != nil {
			return nil, err
		}
		if len(backing)+n > total {
			return nil, fmt.Errorf("approxsel: count pairs of record %d overrun their table", i)
		}
		start := len(backing)
		for j := 0; j < n; j++ {
			rank := binary.LittleEndian.Uint32(raw[8*j:])
			tf := binary.LittleEndian.Uint32(raw[8*j+4:])
			if rank >= uint32(nTok) || (j > 0 && int32(rank) <= backing[len(backing)-1].Rank) {
				return nil, fmt.Errorf("approxsel: count rank %d out of order or range (%d tokens)", rank, nTok)
			}
			backing = append(backing, RankTF{Rank: int32(rank), TF: int32(tf)})
		}
		rows[i] = backing[start:len(backing):len(backing)]
	}
	return rows, nil
}

func decodePostTable(d *segment.Decoder, l *GramLayer, skip []bool) (*PostTable, error) {
	post, err := decodeWPostTable(d, l, skip, func(v float64) (float64, bool) { return v, true })
	if err != nil {
		return nil, err
	}
	t := &PostTable{Post: post, Max: d.F64s(), Min: d.F64s(), Skip: skip}
	if nTok := len(l.Postings); len(t.Max) != nTok || len(t.Min) != nTok {
		return nil, fmt.Errorf("approxsel: posting bound columns do not match %d tokens", nTok)
	}
	return t, nil
}

// encodePostings writes a rank-indexed posting table with its total, so the
// decoder can carve one contiguous backing array exactly like the builder.
func encodePostings(e *segment.Encoder, table [][]int32) {
	total := 0
	for _, l := range table {
		total += len(l)
	}
	e.Int(total)
	e.U32(uint32(len(table)))
	for _, l := range table {
		e.U32(uint32(len(l)))
		for _, v := range l {
			e.U32(uint32(v))
		}
	}
}

// postingsFromPairs builds the distinct-token inverted index from the
// interned pairs — the lists assembly splices, rebuilt with the same
// integer arithmetic: per rank, the ascending positions of the records
// holding the token.
func postingsFromPairs(pairs [][]RankTF, nTok int) [][]int32 {
	df := make([]int, nTok)
	total := 0
	for _, row := range pairs {
		for _, p := range row {
			df[p.Rank]++
		}
		total += len(row)
	}
	backing := make([]int32, total)
	lists := make([][]int32, nTok)
	off := 0
	for r, n := range df {
		lists[r] = backing[off : off : off+n]
		off += n
	}
	for i, row := range pairs {
		for _, p := range row {
			lists[p.Rank] = append(lists[p.Rank], int32(i))
		}
	}
	return lists
}

// encodeWPostTable writes a weight column aligned with the posting ids in
// the segment's weighted-table form: per rank, (u32 record, f64 weight)
// rows, the record taken from the shared list. Records skip marks have no
// row.
func encodeWPostTable[T int32 | float64](e *segment.Encoder, ids [][]int32, col [][]T, skip []bool) {
	total := 0
	for _, list := range ids {
		total += rowCount(list, skip)
	}
	e.Int(total)
	e.U32(uint32(len(ids)))
	for r, list := range ids {
		e.U32(uint32(rowCount(list, skip)))
		for j, rec := range list {
			if skip == nil || !skip[rec] {
				e.U32(uint32(rec))
				e.F64(float64(col[r][j]))
			}
		}
	}
}

// rowCount is the number of ids in list that skip does not mark.
func rowCount(list []int32, skip []bool) int {
	n := len(list)
	if skip != nil {
		for _, rec := range list {
			if skip[rec] {
				n--
			}
		}
	}
	return n
}

// tfValue accepts a stored term frequency: a positive integer.
func tfValue(v float64) (int32, bool) {
	tf := int32(v)
	return tf, tf > 0 && float64(tf) == v
}

// decodeWPostTable reads a table written by encodeWPostTable and returns its
// weights only, aligned with the layer's posting ids. conv must accept every
// stored value; records skip marks have no row and get the zero value.
func decodeWPostTable[T any](d *segment.Decoder, l *GramLayer, skip []bool, conv func(float64) (T, bool)) ([][]T, error) {
	col := PostingColumn[T](l)
	err := readAlignedRows(d, l.Postings, skip, 12, func(r int, tail []byte) error {
		var v T
		if tail != nil {
			var ok bool
			if v, ok = conv(math.Float64frombits(binary.LittleEndian.Uint64(tail))); !ok {
				return fmt.Errorf("approxsel: weighted posting list %d holds an invalid value", r)
			}
		}
		col[r] = append(col[r], v)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return col, nil
}

// readAlignedRows reads a rank-indexed table in the segment's posting form
// — a total, the list count, then per list a row count and width-byte rows
// that lead with a u32 record id — whose lists must hold exactly the shared
// ids skip does not mark, in order. val gets each row's bytes after the id,
// and nil for every marked record.
func readAlignedRows(d *segment.Decoder, ids [][]int32, skip []bool, width int, val func(r int, tail []byte) error) error {
	total := d.Int()
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if n != len(ids) {
		return fmt.Errorf("approxsel: posting table has %d lists for %d tokens", n, len(ids))
	}
	for r, list := range ids {
		cnt, want := int64(d.U32()), rowCount(list, skip)
		if err := d.Err(); err != nil {
			return err
		}
		if cnt != int64(want) {
			return fmt.Errorf("approxsel: posting list %d has %d rows for %d shared ids", r, cnt, want)
		}
		rows := d.Raw(width*want, "posting list")
		if err := d.Err(); err != nil {
			return err
		}
		for _, rec := range list {
			var tail []byte
			if skip == nil || !skip[rec] {
				if got := binary.LittleEndian.Uint32(rows); got != uint32(rec) {
					return fmt.Errorf("approxsel: posting list %d names record %d where the shared list holds %d", r, got, rec)
				}
				tail, rows = rows[4:width], rows[width:]
			}
			if err := val(r, tail); err != nil {
				return err
			}
		}
		total -= want
	}
	if total != 0 {
		return fmt.Errorf("approxsel: posting table total does not match its lists")
	}
	return nil
}

// ---- word layer ----

func encodeWordLayer(e *segment.Encoder, l *WordLayer) {
	l.materialize()
	// The sorted word order (rank r holds the word with rank r) is the
	// string table everything else references.
	sorted := l.toks.TokenByRank
	e.Strs(sorted)
	encodeStatsData(e, l.Stats.Export())

	// Word sequences lead with their total size, so the decoder carves the
	// per-record slices (and the idf-weight columns, which share the same
	// lengths) from contiguous backing arrays.
	e.Int(l.Stats.CS())
	for _, ranks := range l.PosRanks() {
		e.U32(uint32(len(ranks)))
		for _, r := range ranks {
			e.U32(uint32(r))
		}
	}
	for _, w := range l.IDFWeights() {
		e.F64s(w)
	}
	if tfidf := l.TFIDF(); tfidf != nil {
		idf := l.toks.idfByRank()
		for i, col := range tfidf {
			// Deterministic (rank, weight) rows in ascending rank order; a
			// record with a zero norm has no rows.
			pairs := l.Pairs[i]
			if tfidfNorm(pairs, idf) == 0 {
				pairs = nil
			}
			e.U32(uint32(len(pairs)))
			for _, p := range pairs {
				j := slices.Index(l.Words[i], sorted[p.Rank])
				e.U32(uint32(p.Rank))
				e.F64(col[j])
			}
		}
	}
	if l.layers.Has(LayerWordGrams) {
		e.Int(l.WordTotal)
		for i, vocab := range l.Vocab {
			e.U32(uint32(len(vocab)))
			for _, w := range vocab {
				e.U32(uint32(pairIn(l.Pairs[i], sorted, w).Rank))
			}
		}
		// The word-gram string table: the sorted gram dictionary gives
		// every distinct gram a dense id.
		gramID := make(map[string]int32, len(l.GramKeys))
		for i, g := range l.GramKeys {
			gramID[g] = int32(i)
		}
		e.Strs(l.GramKeys)
		total := 0
		for _, sz := range l.GramSizeOf {
			total += int(sz)
		}
		e.Int(total)
		for _, vgrams := range l.VocabGrams {
			e.U32(uint32(len(vgrams)))
			for _, gs := range vgrams {
				e.U32(uint32(len(gs)))
				for _, g := range gs {
					e.U32(uint32(gramID[g]))
				}
			}
		}
		e.Int(total)
		for _, refs := range l.GramIndex {
			l.encodeRefs(e, refs)
		}
	}
	if l.layers.Has(LayerSigs) {
		total := 0
		for _, sigs := range l.Sigs {
			for _, sig := range sigs {
				total += len(sig)
			}
		}
		e.Int(total)
		for _, sigs := range l.Sigs {
			e.U32(uint32(len(sigs)))
			for _, sig := range sigs {
				e.U64s(sig)
			}
		}
		e.Int(total)
		e.U32(uint32(len(l.SigKeys)))
		for i, k := range l.SigKeys {
			e.U32(uint32(k.Slot))
			e.U64(k.Value)
			l.encodeRefs(e, l.SigIndex[i])
		}
	}
}

// encodeRefs writes one inverted list as (record, word) references, the
// wire form of the dense word ids.
func (l *WordLayer) encodeRefs(e *segment.Encoder, refs []int32) {
	e.U32(uint32(len(refs)))
	for _, wid := range refs {
		rec := l.WordRecOf[wid]
		e.U32(uint32(rec))
		e.U32(uint32(wid - l.WordOff[rec]))
	}
}

// decodeRefs reads total inverted lists' worth of (record, word)
// references back into dense word ids, n lists carved from one backing
// array; each list is preceded by whatever key lead reads.
func (l *WordLayer) decodeRefs(d *segment.Decoder, n, total int, what string, key func()) ([][]int32, error) {
	if total < 0 || total > d.Remaining()/8 {
		return nil, fmt.Errorf("approxsel: %s claims %d references", what, total)
	}
	backing := make([]int32, 0, total)
	lists := make([][]int32, n)
	for i := range lists {
		key()
		cnt := int(d.U32())
		if err := d.Err(); err != nil {
			return nil, err
		}
		rows := d.Raw(8*cnt, what)
		if err := d.Err(); err != nil {
			return nil, err
		}
		if len(backing)+cnt > total {
			return nil, fmt.Errorf("approxsel: %s list %d overruns its table", what, i)
		}
		start := len(backing)
		for j := 0; j < cnt; j++ {
			rec := binary.LittleEndian.Uint32(rows[8*j:])
			word := binary.LittleEndian.Uint32(rows[8*j+4:])
			if rec >= uint32(len(l.Vocab)) || word >= uint32(len(l.Vocab[rec])) {
				return nil, fmt.Errorf("approxsel: %s reference (%d, %d) out of range", what, rec, word)
			}
			backing = append(backing, l.WordOff[rec]+int32(word))
		}
		lists[i] = backing[start:len(backing):len(backing)]
	}
	return lists, nil
}

func decodeWordLayer(payload []byte, nrec int, layers CorpusLayers) (*WordLayer, error) {
	d := segment.NewDecoder(payload)
	sorted := d.Strs()
	stats, err := decodeStatsInto(d, sorted)
	if err != nil {
		return nil, err
	}
	words, err := decodeRankRows(d, nrec, sorted, "word sequence")
	if err != nil {
		return nil, err
	}
	// The interned pairs rebuild with the exact integer counting of the
	// assembly path.
	toks := &GramLayer{Docs: words, DL: make([]int, nrec), Stats: stats, TokenByRank: sorted, Pairs: make([][]RankTF, nrec)}
	l := newWordLayer(toks, layers)
	posRanks := wordColumns[int32](l)
	var ranks []int32
	for i, ws := range words {
		toks.DL[i] = len(ws)
		for j, w := range ws {
			posRanks[i][j], _ = stats.Rank(w)
		}
		ranks = append(ranks[:0], posRanks[i]...) // CountRanks sorts in place
		toks.Pairs[i] = weights.CountRanks(ranks)
	}
	l.pos.set(posRanks)

	// The idf-weight columns share the word sequences' lengths, so they
	// carve from one backing array of the same total size.
	idfw := wordColumns[float64](l)
	for i, col := range idfw {
		if err := d.F64sInto(col); err != nil {
			return nil, fmt.Errorf("approxsel: idf weights of record %d do not match its words: %w", i, err)
		}
	}
	l.idf.set(idfw)
	if layers.Has(LayerWordTFIDF) {
		tfidf := wordColumns[float64](l)
		for i, col := range tfidf {
			n := int(d.U32())
			if err := d.Err(); err != nil {
				return nil, err
			}
			rows := d.Raw(12*n, "tf-idf word map")
			if err := d.Err(); err != nil {
				return nil, err
			}
			if n != 0 && n != len(l.Pairs[i]) {
				return nil, fmt.Errorf("approxsel: tf-idf weights of record %d do not match its words", i)
			}
			for k := 0; k < n; k++ {
				id := binary.LittleEndian.Uint32(rows[12*k:])
				w := math.Float64frombits(binary.LittleEndian.Uint64(rows[12*k+4:]))
				if int32(id) != l.Pairs[i][k].Rank {
					return nil, fmt.Errorf("approxsel: tf-idf word rank %d out of place", id)
				}
				for j, word := range words[i] {
					if word == sorted[id] {
						col[j] = w
					}
				}
			}
		}
		l.tfidf.set(tfidf)
	}
	if layers.Has(LayerWordGrams) {
		if l.Vocab, err = decodeRankRows(d, nrec, sorted, "vocab"); err != nil {
			return nil, err
		}
		l.WordOff = make([]int32, nrec)
		for i, vocab := range l.Vocab {
			l.WordOff[i] = int32(l.WordTotal)
			l.WordTotal += len(vocab)
		}
		l.GramKeys = d.Strs()
		if !slices.IsSorted(l.GramKeys) {
			return nil, fmt.Errorf("approxsel: word gram table out of order")
		}
		totalWG := d.Int()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if totalWG < 0 || totalWG > d.Remaining()/4 {
			return nil, fmt.Errorf("approxsel: word grams claim %d entries", totalWG)
		}
		// Two backing arrays: the gram strings (totalWG entries) and the
		// per-word gram slices (one per vocab word).
		wgBacking := make([]string, 0, totalWG)
		vgramsBacking := make([][]string, l.WordTotal)
		l.WordRecOf = make([]int32, l.WordTotal)
		l.GramSizeOf = make([]int32, l.WordTotal)
		l.VocabGrams = make([][][]string, nrec)
		for i := 0; i < nrec; i++ {
			nw := int(d.U32())
			if err := d.Err(); err != nil {
				return nil, err
			}
			if nw != len(l.Vocab[i]) {
				return nil, fmt.Errorf("approxsel: vocab grams of record %d do not match its vocab", i)
			}
			base := int(l.WordOff[i])
			vgrams := vgramsBacking[base : base+nw : base+nw]
			for j := 0; j < nw; j++ {
				ng := int(d.U32())
				if err := d.Err(); err != nil {
					return nil, err
				}
				rows := d.Raw(4*ng, "word grams")
				if err := d.Err(); err != nil {
					return nil, err
				}
				if len(wgBacking)+ng > totalWG {
					return nil, fmt.Errorf("approxsel: word grams of record %d overrun their table", i)
				}
				start := len(wgBacking)
				for k := 0; k < ng; k++ {
					id := binary.LittleEndian.Uint32(rows[4*k:])
					if id >= uint32(len(l.GramKeys)) {
						return nil, fmt.Errorf("approxsel: word gram id %d out of range (%d grams)", id, len(l.GramKeys))
					}
					wgBacking = append(wgBacking, l.GramKeys[id])
				}
				vgrams[j] = wgBacking[start:len(wgBacking):len(wgBacking)]
				l.WordRecOf[base+j] = int32(i)
				l.GramSizeOf[base+j] = int32(ng)
			}
			l.VocabGrams[i] = vgrams
		}
		total := d.Int()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if l.GramIndex, err = l.decodeRefs(d, len(l.GramKeys), total, "gram index", func() {}); err != nil {
			return nil, err
		}
	}
	if layers.Has(LayerSigs) {
		totalSig := d.Int()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if totalSig < 0 || totalSig > d.Remaining()/8 {
			return nil, fmt.Errorf("approxsel: signatures claim %d values", totalSig)
		}
		sigBacking := make([]uint64, 0, totalSig)
		l.Sigs = make([][][]uint64, nrec)
		for i := 0; i < nrec; i++ {
			nw := int(d.U32())
			if err := d.Err(); err != nil {
				return nil, err
			}
			if nw != len(l.Vocab[i]) {
				return nil, fmt.Errorf("approxsel: signatures of record %d do not match its vocab", i)
			}
			sigs := make([][]uint64, nw)
			for j := 0; j < nw; j++ {
				k := int(d.U32())
				if err := d.Err(); err != nil {
					return nil, err
				}
				rows := d.Raw(8*k, "signature")
				if err := d.Err(); err != nil {
					return nil, err
				}
				if len(sigBacking)+k > totalSig {
					return nil, fmt.Errorf("approxsel: signatures of record %d overrun their table", i)
				}
				start := len(sigBacking)
				for v := 0; v < k; v++ {
					sigBacking = append(sigBacking, binary.LittleEndian.Uint64(rows[8*v:]))
				}
				sigs[j] = sigBacking[start:len(sigBacking):len(sigBacking)]
			}
			l.Sigs[i] = sigs
		}
		total := d.Int()
		nKeys := int(d.U32())
		if err := d.Err(); err != nil {
			return nil, err
		}
		if nKeys < 0 || nKeys > d.Remaining()/16 {
			return nil, fmt.Errorf("approxsel: signature index claims %d keys", nKeys)
		}
		l.SigKeys = make([]SigKey, 0, nKeys)
		if l.SigIndex, err = l.decodeRefs(d, nKeys, total, "signature index", func() {
			l.SigKeys = append(l.SigKeys, SigKey{Slot: int(d.U32()), Value: d.U64()})
		}); err != nil {
			return nil, err
		}
		if !slices.IsSortedFunc(l.SigKeys, compareSigKeys) {
			return nil, fmt.Errorf("approxsel: signature index out of order")
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return l, nil
}
