package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/minhash"
	"repro/internal/store/segment"
	"repro/internal/weights"
)

// This file implements corpus snapshot persistence. WriteSnapshot encodes
// what tokenization produced — records, edit-normalized strings, and each
// token layer's sorted token table with every record's tokens as ranks into
// it — into a versioned, CRC-framed binary segment stamped with the
// snapshot's epoch. Nothing a count or a hash can recover is stored:
// LoadSnapshot rebuilds the interned pairs, the integer statistics and the
// posting ids from the rank rows with the integer arithmetic of assembly,
// and the pruned effective layer with assembly's own call; every weight
// column and the word index stay lazy and are built on first use exactly
// as on a fresh build. A loaded corpus is therefore bit-identical to the
// one that was saved — same epoch, same scores, same tie order, for every
// predicate — without tokenizing a string. Word strings are interned
// through the word table on decode (a record's words alias its entries),
// so a loaded snapshot is also more compact in memory than a freshly
// tokenized one.

// SnapshotMagic identifies a corpus snapshot segment file.
const SnapshotMagic = "APXSNAP4"

// legacyMagics identify the earlier snapshot formats: APXSNAP1 also stored
// every weight table, APXSNAP2 gram rows in occurrence order and every
// word's q-grams and signature, APXSNAP3 the word vocabularies and the word
// q-gram and signature indexes. Their header and records sections have
// today's layout; a legacy segment opens by building the corpus from its
// records, so none of its stored indexes is trusted.
var legacyMagics = []string{"APXSNAP1", "APXSNAP2", "APXSNAP3"}

// Section tags of a snapshot segment (the legacy format kept the pruned
// layer's tables under tag 4).
const (
	secHeader   = 1
	secRecords  = 2
	secRawGrams = 3
	secWords    = 5
	secNorms    = 6
)

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
	section := func(tag uint8, size int, encode func(*segment.Encoder)) {
		if err == nil {
			e := segment.NewEncoder(size)
			encode(e)
			err = sw.Section(tag, e.Bytes())
		}
	}
	section(secHeader, 256, func(e *segment.Encoder) {
		encodeConfig(e, c.cfg)
		e.U32(uint32(c.layers))
		e.U64(s.Epoch)
		e.Int(len(s.Records))
		e.Bool(s.Grams != s.RawGrams)
	})
	recSize := 0
	for _, r := range s.Records {
		recSize += 12 + len(r.Text)
	}
	section(secRecords, recSize, func(e *segment.Encoder) {
		for _, r := range s.Records {
			e.I64(int64(r.TID))
			e.Str(r.Text)
		}
	})
	if c.layers.Has(LayerGrams) {
		l := s.RawGrams
		section(secRawGrams, rowsSize(l.TokenByRank, len(l.DL), l.Stats.CS()), func(e *segment.Encoder) { encodeGramLayer(e, l) })
	}
	if c.layers.Has(LayerWords) {
		w := s.Words
		section(secWords, rowsSize(w.toks.TokenByRank, len(w.Words), w.Stats.CS()), func(e *segment.Encoder) { encodeWordLayer(e, w) })
	}
	if c.layers.Has(LayerNorms) {
		section(secNorms, strsSize(s.Norms), func(e *segment.Encoder) { e.Strs(s.Norms) })
	}
	if err != nil {
		return err
	}
	return sw.Close()
}

// LoadSnapshot decodes a snapshot segment (the full file contents) into a
// ready corpus at the serialized epoch. The loaded corpus is bit-identical
// to the one WriteSnapshot captured and accepts mutations exactly like a
// freshly built corpus; its TokenizePasses counter stays at zero because
// no string is ever re-tokenized. A legacy segment is the exception: it
// builds the corpus from its records.
func LoadSnapshot(data []byte) (*Corpus, error) {
	magic := SnapshotMagic
	if m := string(data[:min(len(data), len(magic))]); slices.Contains(legacyMagics, m) {
		magic = m
	}
	r, err := segment.NewReader(data, magic)
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
	layers := CorpusLayers(d.U32())
	epoch := d.U64()
	nrec := d.Int()
	pruned := d.Bool()
	if err := d.Finish(); err != nil {
		return nil, err
	}
	if layers&^AllLayers != 0 {
		return nil, fmt.Errorf("approxsel: snapshot names unknown layers %b", layers&^AllLayers)
	}
	layers = layers.withDeps()

	rec, ok := sections[secRecords]
	if !ok {
		return nil, fmt.Errorf("approxsel: snapshot has no records section")
	}
	// Every record takes at least its TID and its text's length.
	if nrec < 0 || nrec > len(rec)/12 {
		return nil, fmt.Errorf("approxsel: snapshot claims %d records", nrec)
	}
	d = segment.NewDecoder(rec)
	records := make([]Record, nrec)
	for i := range records {
		records[i] = Record{TID: int(d.I64()), Text: d.Str()}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	if err := validateCorpus(records, cfg); err != nil {
		return nil, err
	}
	if magic != SnapshotMagic {
		// Its tables are not read: a fresh build over its records yields
		// the same state, which is then stamped with the stored epoch.
		c, err := NewCorpus(records, cfg, layers)
		if err != nil {
			return nil, err
		}
		s := *c.snap.Load()
		s.Epoch = epoch
		c.snap.Store(&s)
		return c, nil
	}
	if pruned != (layers.Has(LayerGrams) && cfg.PruneRate > 0) {
		return nil, fmt.Errorf("approxsel: snapshot pruning flag %v contradicts prune rate %v", pruned, cfg.PruneRate)
	}

	c := &Corpus{cfg: cfg, layers: layers}
	if layers.Has(LayerSigs) {
		c.fam = minhash.NewFamily(cfg.MinHashSize(), cfg.MinHashSeed)
	}
	s := &Snapshot{Epoch: epoch, Records: records, tids: spliceTIDs(nil, (&splice{recs: records}).seal(0))}
	if layers.Has(LayerGrams) {
		raw, ok := sections[secRawGrams]
		if !ok {
			return nil, fmt.Errorf("approxsel: snapshot has no gram layer section")
		}
		if s.RawGrams, err = decodeGramLayer(raw, nrec, gramTables(layers, pruned, true)); err != nil {
			return nil, err
		}
		s.Grams = c.effectiveGrams(s.RawGrams)
	}
	if layers.Has(LayerWords) {
		wl, ok := sections[secWords]
		if !ok {
			return nil, fmt.Errorf("approxsel: snapshot has no word layer section")
		}
		if s.Words, err = decodeWordLayer(wl, nrec, layers, cfg.WordQ, c.fam); err != nil {
			return nil, err
		}
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

// ---- token layers ----

// strsSize is the encoded size of a string table.
func strsSize(ss []string) int {
	n := 4 + 4*len(ss)
	for _, s := range ss {
		n += len(s)
	}
	return n
}

// rowsSize is the encoded size of a token table with nrec rank rows of
// total entries.
func rowsSize(tokens []string, nrec, total int) int {
	return strsSize(tokens) + 8 + 4*nrec + 4*total
}

// encodeGramLayer writes what tokenization produced for a gram layer: the
// sorted token table and every record's gram multiset as ranks into it, in
// rank order, each rank repeated tf times. The total leads, so the decoder
// carves every row from one backing array.
func encodeGramLayer(e *segment.Encoder, l *GramLayer) {
	e.Strs(l.TokenByRank)
	e.Int(l.Stats.CS())
	for i, pairs := range l.Pairs {
		e.U32(uint32(l.DL[i]))
		for _, p := range pairs {
			for range p.TF {
				e.U32(uint32(p.Rank))
			}
		}
	}
}

// decodeGramLayer decodes a gram layer section into a layer carrying
// layers. Its rows are in rank order, so a record's (rank, tf) pairs are
// the runs of its row.
func decodeGramLayer(payload []byte, nrec int, layers CorpusLayers) (*GramLayer, error) {
	d := segment.NewDecoder(payload)
	tokens, ranks, err := decodeTokenRows(d, nrec)
	if err == nil {
		err = d.Finish()
	}
	if err != nil {
		return nil, err
	}
	runs := 0
	for i, row := range ranks {
		for j := range row {
			if j > 0 && row[j] < row[j-1] {
				return nil, fmt.Errorf("approxsel: token row %d decreases at entry %d", i, j)
			}
			if j == 0 || row[j] != row[j-1] {
				runs++
			}
		}
	}
	backing := make([]RankTF, 0, runs)
	pairs, dl := make([][]RankTF, nrec), make([]int, nrec)
	for i, row := range ranks {
		start := len(backing)
		for j, r := range row {
			if j > 0 && r == row[j-1] {
				backing[len(backing)-1].TF++
			} else {
				backing = append(backing, RankTF{Rank: r, TF: 1})
			}
		}
		pairs[i], dl[i] = backing[start:len(backing):len(backing)], len(row)
	}
	return checkedGramLayer(tokens, pairs, dl, layers)
}

// checkedGramLayer builds a decoded layer, which must not name a token that
// occurs in no record.
func checkedGramLayer(tokens []string, pairs [][]RankTF, dl []int, layers CorpusLayers) (*GramLayer, error) {
	l := countedGramLayer(tokens, pairs, dl, layers)
	if r := slices.Index(l.Stats.DFs(), 0); r >= 0 {
		return nil, fmt.Errorf("approxsel: token %q occurs in no record", tokens[r])
	}
	return l, nil
}

// decodeTokenTable reads a sorted token table.
func decodeTokenTable(d *segment.Decoder) ([]string, error) {
	tokens := d.Strs()
	for r := 1; r < len(tokens); r++ {
		if tokens[r-1] >= tokens[r] {
			return nil, fmt.Errorf("approxsel: token table out of order at rank %d", r)
		}
	}
	return tokens, d.Err()
}

// decodeTokenRows reads a token table and nrec rank rows into it.
func decodeTokenRows(d *segment.Decoder, nrec int) ([]string, [][]int32, error) {
	tokens, err := decodeTokenTable(d)
	if err != nil {
		return nil, nil, err
	}
	ranks, err := decodeRankRows(d, nrec, len(tokens))
	return tokens, ranks, err
}

// decodeRankRows reads nrec rows of ranks into a table of nTok entries,
// written as a total and then (length, ranks...) per row, carving every row
// from one backing array.
func decodeRankRows(d *segment.Decoder, nrec, nTok int) ([][]int32, error) {
	total := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if total < 0 || total > d.Remaining()/4 {
		return nil, fmt.Errorf("approxsel: token table claims %d entries", total)
	}
	backing := make([]int32, 0, total)
	rows := make([][]int32, nrec)
	for i := range rows {
		n := int(d.U32())
		raw := d.Raw(4*n, "token")
		if err := d.Err(); err != nil {
			return nil, err
		}
		if len(backing)+n > total {
			return nil, fmt.Errorf("approxsel: token row %d overruns its table", i)
		}
		start := len(backing)
		for j := 0; j < n; j++ {
			r := binary.LittleEndian.Uint32(raw[4*j:])
			if r >= uint32(nTok) {
				return nil, fmt.Errorf("approxsel: token rank %d out of range (%d tokens)", r, nTok)
			}
			backing = append(backing, int32(r))
		}
		rows[i] = backing[start:len(backing):len(backing)]
	}
	if len(backing) != total {
		return nil, fmt.Errorf("approxsel: token table holds %d entries, its %d rows %d", total, nrec, len(backing))
	}
	return rows, nil
}

// internRows turns rank rows into token rows that alias the table's
// strings, carved from one backing array.
func internRows(ranks [][]int32, table []string) [][]string {
	total := 0
	for _, row := range ranks {
		total += len(row)
	}
	backing := make([]string, 0, total)
	rows := make([][]string, len(ranks))
	for i, row := range ranks {
		start := len(backing)
		for _, r := range row {
			backing = append(backing, table[r])
		}
		rows[i] = backing[start:len(backing):len(backing)]
	}
	return rows
}

// ---- word layer ----

// encodeWordLayer writes the word layer: its word sequences as ranks into
// the sorted word table, in occurrence order.
func encodeWordLayer(e *segment.Encoder, l *WordLayer) {
	sorted := l.toks.TokenByRank
	e.Strs(sorted)
	e.Int(l.Stats.CS())
	for i, words := range l.Words {
		e.U32(uint32(len(words)))
		for _, w := range words {
			e.U32(uint32(pairIn(l.Pairs[i], sorted, w).Rank))
		}
	}
}

// decodeWordLayer decodes a word layer section into a layer carrying
// layers, whose index counts q-grams of q characters and signs them with
// fam.
func decodeWordLayer(payload []byte, nrec int, layers CorpusLayers, q int, fam *minhash.Family) (*WordLayer, error) {
	d := segment.NewDecoder(payload)
	sorted, ranks, err := decodeTokenRows(d, nrec)
	if err == nil {
		err = d.Finish()
	}
	if err != nil {
		return nil, err
	}
	pairs, dl := make([][]RankTF, nrec), make([]int, nrec)
	var scratch []int32
	for i, row := range ranks {
		scratch = append(scratch[:0], row...) // CountRanks sorts in place
		pairs[i], dl[i] = weights.CountRanks(scratch), len(row)
	}
	toks, err := checkedGramLayer(sorted, pairs, dl, 0)
	if err != nil {
		return nil, err
	}
	return newWordLayer(toks, internRows(ranks, sorted), layers, q, fam), nil
}
