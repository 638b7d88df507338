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
// what tokenization and hashing produced — records, edit-normalized
// strings, each token layer's sorted token table with every record's tokens
// as ranks into it, and the word layer's vocabularies, word q-grams,
// min-hash signatures and their indexes — into a versioned, CRC-framed
// binary segment stamped with the snapshot's epoch. Nothing a count can
// recover is stored: LoadSnapshot rebuilds the interned pairs, the integer
// statistics and the posting ids from the rank rows with the integer
// arithmetic of assembly, and the pruned effective layer with assembly's
// own call, so every weight column stays lazy and derives on first use
// exactly as on a fresh build. A loaded corpus is therefore bit-identical
// to the one that was saved — same epoch, same scores, same tie order, for
// every predicate — without tokenizing a string. Strings are interned
// through the token tables on decode (a document's grams alias the
// TokenByRank entries), so a loaded snapshot is also more compact in
// memory than a freshly tokenized one.

// SnapshotMagic identifies a corpus snapshot segment file.
const SnapshotMagic = "APXSNAP2"

// legacyMagic identifies the first snapshot format, which also stored every
// weight table. Its header and records sections have today's layout; a
// legacy segment opens by building the corpus from its records.
const legacyMagic = "APXSNAP1"

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
	section(secRecords, 32*len(s.Records), func(e *segment.Encoder) {
		for _, r := range s.Records {
			e.I64(int64(r.TID))
			e.Str(r.Text)
		}
	})
	if c.layers.Has(LayerGrams) {
		section(secRawGrams, 1<<20, func(e *segment.Encoder) { encodeTokens(e, s.RawGrams) })
	}
	if c.layers.Has(LayerWords) {
		section(secWords, 1<<20, func(e *segment.Encoder) { encodeWordLayer(e, s.Words) })
	}
	if c.layers.Has(LayerNorms) {
		section(secNorms, 16*len(s.Norms), func(e *segment.Encoder) { e.Strs(s.Norms) })
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
	if len(data) >= len(legacyMagic) && string(data[:len(legacyMagic)]) == legacyMagic {
		magic = legacyMagic
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
	if magic == legacyMagic {
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
		s.Grams = c.effectiveGrams(records, s.RawGrams)
	}
	if layers.Has(LayerWords) {
		wl, ok := sections[secWords]
		if !ok {
			return nil, fmt.Errorf("approxsel: snapshot has no word layer section")
		}
		if s.Words, err = decodeWordLayer(wl, nrec, layers, cfg.MinHashSize()); err != nil {
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

// encodeTokens writes what tokenization produced for one token layer: the
// sorted token table and every record's tokens as ranks into it, in
// occurrence order (the edit predicate's positional filter reads gram
// positions). The total leads, so the decoder carves every row from one
// backing array.
func encodeTokens(e *segment.Encoder, l *GramLayer) {
	e.Strs(l.TokenByRank)
	e.Int(l.Stats.CS())
	for i, doc := range l.Docs {
		e.U32(uint32(len(doc)))
		for _, t := range doc {
			e.U32(uint32(pairIn(l.Pairs[i], l.TokenByRank, t).Rank))
		}
	}
}

// decodeGramLayer decodes a gram layer section into a layer carrying layers.
func decodeGramLayer(payload []byte, nrec int, layers CorpusLayers) (*GramLayer, error) {
	d := segment.NewDecoder(payload)
	l, err := decodeTokens(d, nrec, layers)
	if err == nil {
		err = d.Finish()
	}
	if err != nil {
		return nil, err
	}
	return l, nil
}

// decodeTokens reads a token layer written by encodeTokens and rebuilds the
// rest of it the way assembly builds it: interned (rank, tf) pairs, integer
// df/cf/cs counters, statistics whose Σ tf/dl aggregate sums on first use
// (the supplier GramLayer.splice installs), and the posting ids when the
// layer carries them. Every weight column stays lazy.
func decodeTokens(d *segment.Decoder, nrec int, layers CorpusLayers) (*GramLayer, error) {
	tokens := d.Strs()
	for r := 1; r < len(tokens); r++ {
		if tokens[r-1] >= tokens[r] {
			return nil, fmt.Errorf("approxsel: token table out of order at rank %d", r)
		}
	}
	ranks, err := decodeRankRows(d, nrec, len(tokens), "token")
	if err != nil {
		return nil, err
	}
	l := &GramLayer{Docs: internRows(ranks, tokens), DL: make([]int, nrec), TokenByRank: tokens, Pairs: make([][]RankTF, nrec), layers: layers}
	df, cf := make([]int32, len(tokens)), make([]int32, len(tokens))
	cs := 0
	var scratch []int32
	for i, row := range ranks {
		scratch = append(scratch[:0], row...) // CountRanks sorts in place
		l.Pairs[i], l.DL[i] = weights.CountRanks(scratch), len(row)
		cs += len(row)
		for _, p := range l.Pairs[i] {
			df[p.Rank]++
			cf[p.Rank] += p.TF
		}
	}
	if r := slices.Index(df, 0); r >= 0 {
		return nil, fmt.Errorf("approxsel: token %q occurs in no record", tokens[r])
	}
	pairs, dl := l.Pairs, l.DL
	l.Stats = weights.New(tokens, df, cf, nrec, cs, func() []float64 { return weights.SumPML(pairs, dl, len(tokens)) })
	if layers.Has(LayerPostings) {
		l.Postings = postingsFromPairs(pairs, len(tokens))
	}
	return l, nil
}

// decodeRankRows reads nrec rows of ranks into a table of nTok entries,
// written as a total and then (length, ranks...) per row, carving every row
// from one backing array.
func decodeRankRows(d *segment.Decoder, nrec, nTok int, what string) ([][]int32, error) {
	total := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if total < 0 || total > d.Remaining()/4 {
		return nil, fmt.Errorf("approxsel: %s table claims %d entries", what, total)
	}
	backing := make([]int32, 0, total)
	rows := make([][]int32, nrec)
	for i := range rows {
		n := int(d.U32())
		raw := d.Raw(4*n, what)
		if err := d.Err(); err != nil {
			return nil, err
		}
		if len(backing)+n > total {
			return nil, fmt.Errorf("approxsel: %s row %d overruns its table", what, i)
		}
		start := len(backing)
		for j := 0; j < n; j++ {
			r := binary.LittleEndian.Uint32(raw[4*j:])
			if r >= uint32(nTok) {
				return nil, fmt.Errorf("approxsel: %s rank %d out of range (%d tokens)", what, r, nTok)
			}
			backing = append(backing, int32(r))
		}
		rows[i] = backing[start:len(backing):len(backing)]
	}
	if len(backing) != total {
		return nil, fmt.Errorf("approxsel: %s table holds %d entries, its %d rows %d", what, total, nrec, len(backing))
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

// ---- word layer ----

// encodeWordLayer writes the word layer: its word token layer, then the
// tokenization and hashing products over each record's distinct words —
// vocabularies as ranks into the word table, word q-grams as ids into the
// sorted gram dictionary, min-hash signatures — and the two indexes over
// them as (record, word) references.
func encodeWordLayer(e *segment.Encoder, l *WordLayer) {
	encodeTokens(e, l.toks)
	sorted := l.toks.TokenByRank
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

// decodeWordLayer decodes a word layer section into a layer carrying
// layers, whose signatures must hold sigSize values each.
func decodeWordLayer(payload []byte, nrec int, layers CorpusLayers, sigSize int) (*WordLayer, error) {
	d := segment.NewDecoder(payload)
	toks, err := decodeTokens(d, nrec, 0)
	if err != nil {
		return nil, err
	}
	l := newWordLayer(toks, layers)
	sorted := toks.TokenByRank
	if layers.Has(LayerWordGrams) {
		vocabRanks, err := decodeRankRows(d, nrec, len(sorted), "vocab")
		if err != nil {
			return nil, err
		}
		l.Vocab = internRows(vocabRanks, sorted)
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
				if k != sigSize {
					return nil, fmt.Errorf("approxsel: signature of record %d holds %d values, want %d", i, k, sigSize)
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
