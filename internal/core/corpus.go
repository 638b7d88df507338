package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/minhash"
	"repro/internal/obs"
	"repro/internal/tokenize"
)

// This file implements the shared Corpus the paper's framework stores
// inside the DBMS: one set of precomputed token and weight tables that all
// thirteen predicates read, instead of one private copy per predicate.
// A Corpus tokenizes the base relation exactly once, materializes the
// layers the attached predicates need (q-gram and word token tables,
// collection statistics, shared weight/posting tables, the word q-gram and
// min-hash indexes, edit-normalized strings), and supports epoch-versioned
// Insert/Delete/Upsert: a mutation tokenizes only the changed records,
// splices them into the previous snapshot's tables (layers.go, splice.go),
// and publishes a fresh immutable Snapshot under a new epoch. Predicates
// attach as lightweight views that re-read the snapshot when the epoch
// moves.

// CorpusLayers selects which precomputed layers a Corpus materializes.
// The facade's OpenCorpus builds AllLayers so that any predicate can
// attach; the one-shot construction path requests only what the single
// predicate reads, keeping New(name, records) as cheap as before.
type CorpusLayers uint16

const (
	// LayerGrams is the q-gram token layer: per-record gram multisets,
	// interned (rank, tf) pairs, document lengths and collection statistics
	// (plus the IDF-pruned variant when Config.PruneRate > 0).
	LayerGrams CorpusLayers = 1 << iota
	// LayerPostings is the distinct-token inverted index: the record ids
	// every rank-indexed table of the layer shares. The overlap predicates
	// walk the ids alone; each weighted table is a weight column aligned
	// with them.
	LayerPostings
	// LayerRS is the Robertson–Sparck Jones weight table (Eq. 3.5).
	LayerRS
	// LayerTFIDF is the normalized tf-idf posting table (§3.2.1).
	LayerTFIDF
	// LayerLM is the language-model posting table: per-(token, record)
	// combined log terms and the per-record Σ log(1−pm) column (§3.3.1).
	LayerLM
	// LayerNorms is the edit-normalized string column (§4.4), together
	// with the raw-layer gram-frequency column the edit filter scans.
	LayerNorms
	// LayerTokenIDs is the rank-indexed idf column over the interned
	// (rank, tf) pairs (the pairs themselves are always kept: every table
	// derives from them).
	LayerTokenIDs
	// LayerWords is the word token layer used by the combination
	// predicates, with per-position idf weights.
	LayerWords
	// LayerWordTFIDF is the per-position normalized tf-idf word weight
	// column used by SoftTFIDF.
	LayerWordTFIDF
	// LayerWordGrams is the word q-gram inverted index over dense word ids
	// (GESJaccard's filter), built when a view first asks for it
	// (WordLayer.Index).
	LayerWordGrams
	// LayerSigs adds the min-hash signature (slot, value) index to the word
	// index (GESapx's filter).
	LayerSigs
)

// AllLayers materializes every layer, so any registered predicate can
// attach to the corpus.
const AllLayers = LayerGrams | LayerPostings | LayerRS | LayerTFIDF | LayerLM |
	LayerNorms | LayerTokenIDs | LayerWords | LayerWordTFIDF | LayerWordGrams | LayerSigs

// withDeps closes a layer set under build dependencies (weight tables need
// their token layer and the posting ids their columns align with;
// the signature index is part of the word index).
func (l CorpusLayers) withDeps() CorpusLayers {
	if l&(LayerTFIDF|LayerLM) != 0 {
		l |= LayerTokenIDs
	}
	if l&(LayerTFIDF|LayerLM|LayerNorms|LayerTokenIDs) != 0 {
		l |= LayerPostings
	}
	if l&(LayerPostings|LayerRS|LayerTFIDF|LayerLM|LayerNorms|LayerTokenIDs) != 0 {
		l |= LayerGrams
	}
	if l&LayerSigs != 0 {
		l |= LayerWordGrams
	}
	if l&(LayerWordTFIDF|LayerWordGrams) != 0 {
		l |= LayerWords
	}
	return l
}

// Has reports whether every layer in want is present.
func (l CorpusLayers) Has(want CorpusLayers) bool { return l&want == want }

// RankTok pairs a query token with its corpus rank, the iteration unit of
// the rank-ordered query paths.
type RankTok struct {
	Tok  string
	Rank int32
}

// Snapshot is one immutable version of a Corpus. Predicates attached to a
// corpus read exactly one snapshot; mutations publish a new snapshot under
// the next epoch and never touch what an already-published one can see
// (list backing arrays may grow past a published snapshot's lengths, see
// apply).
type Snapshot struct {
	Epoch   uint64
	Records []Record
	tids    []tidPos // sorted by TID
	// Grams is the effective q-gram scoring layer: the IDF-pruned layer
	// when Config.PruneRate > 0, the raw layer otherwise.
	Grams *GramLayer
	// RawGrams is always the unpruned layer — the edit predicate's q-gram
	// filter must see every gram to keep its no-false-negative guarantee.
	// It aliases Grams when pruning is off.
	RawGrams *GramLayer
	Words    *WordLayer
	// Norms is the edit-normalized string column (LayerNorms).
	Norms []string
	// TokDur and WeightDur are the tokenization and assembly times spent
	// producing this snapshot (the §5.5.1 preprocessing phases; a
	// mutation's delta cost, not a cumulative total). The weight columns a
	// predicate view derives on attach are timed by the view, not here.
	TokDur    time.Duration
	WeightDur time.Duration
}

// tidPos locates one record: the TID index is a TID-sorted array, so the
// next snapshot's index is a block copy with shifted positions, not a map
// rebuild.
type tidPos struct {
	tid int
	pos int32
}

// Index returns the record position of a TID.
func (s *Snapshot) Index(tid int) (int, bool) {
	i, ok := slices.BinarySearchFunc(s.tids, tid, func(e tidPos, tid int) int { return e.tid - tid })
	if !ok {
		return 0, false
	}
	return int(s.tids[i].pos), true
}

// Corpus is the shared, mutable token/weight store. It is safe for
// concurrent use: reads work on immutable snapshots, mutations are
// serialized and publish new snapshots atomically.
type Corpus struct {
	cfg    Config
	layers CorpusLayers
	fam    *minhash.Family

	mu     sync.Mutex // serializes mutations
	snap   atomic.Pointer[Snapshot]
	passes atomic.Int64 // full tokenization passes (test instrumentation)

	// hook, when set, observes every applied mutation under the mutation
	// lock — the write-ahead attachment point of the persistence layer.
	hook func(Mutation) error
	// seqSrc, when set, supplies the batch sequence number stamped on every
	// mutation. A sharded corpus installs one source across its shards so
	// that all sub-batches of one logical batch share a sequence number;
	// without a source the sequence equals the epoch (a plain corpus's WAL
	// is totally ordered already).
	seqSrc func() uint64
}

// PersistenceError marks a mutation aborted because the persistence layer
// could not log it (disk full, log sealed by a graceful drain). It is the
// server's cue to answer 5xx — the mutation itself was valid and is
// retryable — where plain validation errors stay client faults.
type PersistenceError struct{ Err error }

func (e *PersistenceError) Error() string {
	return fmt.Sprintf("approxsel: mutation rejected by persistence hook: %v", e.Err)
}

// Unwrap exposes the hook's underlying error.
func (e *PersistenceError) Unwrap() error { return e.Err }

// MutationKind names one of the three mutation operations.
type MutationKind uint8

const (
	// MutationInsert adds new records.
	MutationInsert MutationKind = iota + 1
	// MutationDelete removes records by TID.
	MutationDelete
	// MutationUpsert inserts records, replacing existing TIDs.
	MutationUpsert
)

// Mutation describes one validated mutation batch about to be published.
type Mutation struct {
	Kind MutationKind
	// Add holds the inserted or upserted records; Del the deleted TIDs.
	Add []Record
	Del []int
	// Epoch is the epoch the corpus moves to when this batch publishes.
	Epoch uint64
	// Seq is the global batch sequence number: all per-shard sub-batches of
	// one logical mutation on a sharded corpus share it, so a cold start can
	// re-associate and totally order them across shards. A plain corpus's
	// Seq equals its Epoch.
	Seq uint64
}

// SetMutationHook installs fn as the corpus's mutation observer. It is
// called under the mutation lock after a batch has validated and its new
// snapshot has been assembled, but before the snapshot publishes: an error
// from fn aborts the mutation with no visible state change. This is the
// write-ahead contract the WAL builds on — a mutation is acknowledged only
// after the hook has accepted it. Passing nil removes the hook.
func (c *Corpus) SetMutationHook(fn func(Mutation) error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hook = fn
}

// SetSeqSource installs the supplier of batch sequence numbers stamped on
// every mutation (and written to the WAL). A sharded corpus sets one
// source across its shards; a corpus without a source stamps Seq = Epoch.
func (c *Corpus) SetSeqSource(fn func() uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seqSrc = fn
}

// Freeze runs fn on the current snapshot while holding the mutation lock,
// so no mutation can land (or append to a WAL) while fn runs. The
// persistence layer checkpoints inside Freeze, making "write segment at
// epoch E, truncate the log" atomic against concurrent writers. Selections
// are unaffected — they read the published snapshot without the lock.
func (c *Corpus) Freeze(fn func(*Snapshot) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fn(c.snap.Load())
}

// CorpusBuilderFunc constructs a predicate attached to a shared corpus —
// the corpus-aware counterpart of BuilderFunc. The facade's registry
// resolves native built-ins to CorpusBuilderFuncs and adapts legacy
// BuilderFuncs (the declarative realization and Register-ed predicates)
// automatically, so every predicate can attach to a corpus.
type CorpusBuilderFunc func(c *Corpus, cfg Config) (Predicate, error)

// NewCorpus tokenizes the base relation once and materializes the
// requested layers (closed under dependencies). The facade's OpenCorpus
// passes AllLayers; the one-shot predicate constructors request only what
// they read.
func NewCorpus(records []Record, cfg Config, layers CorpusLayers) (*Corpus, error) {
	if err := validateCorpus(records, cfg); err != nil {
		return nil, err
	}
	c := &Corpus{cfg: cfg, layers: layers.withDeps()}
	if c.layers.Has(LayerSigs) {
		c.fam = minhash.NewFamily(cfg.MinHashSize(), cfg.MinHashSeed)
	}
	// A fresh build is a splice that appends every record to the empty
	// snapshot: the one assembly path there is.
	t0 := time.Now()
	sp := &splice{recs: append([]Record(nil), records...)}
	c.tokenize(sp)
	c.passes.Add(1)
	c.snap.Store(c.assemble(c.emptySnapshot(), sp, 0, time.Since(t0)))
	return c, nil
}

// Upper bounds on the sizes a Config names, far above any the paper or its
// ablations use (q ≤ 4, min-hash size ≤ 20) and far below what padding
// every string with q−1 characters or allocating a signature family of
// that size would cost — a snapshot header is input from outside.
const (
	maxQ        = 64
	maxMinHashK = 1024
)

// validateCorpus checks the invariants shared by all predicates.
func validateCorpus(records []Record, cfg Config) error {
	if cfg.Q < 1 || cfg.Q > maxQ {
		return fmt.Errorf("approxsel: q-gram size must be in [1, %d], got %d", maxQ, cfg.Q)
	}
	if cfg.WordQ < 1 || cfg.WordQ > maxQ {
		return fmt.Errorf("approxsel: word q-gram size must be in [1, %d], got %d", maxQ, cfg.WordQ)
	}
	if !(cfg.PruneRate >= 0 && cfg.PruneRate < 1) {
		return fmt.Errorf("approxsel: prune rate must be in [0, 1), got %v", cfg.PruneRate)
	}
	if cfg.MinHashK > maxMinHashK {
		return fmt.Errorf("approxsel: min-hash size must be ≤ %d, got %d", maxMinHashK, cfg.MinHashK)
	}
	seen := make(map[int]bool, len(records))
	for _, r := range records {
		if seen[r.TID] {
			return fmt.Errorf("approxsel: duplicate TID %d in base relation", r.TID)
		}
		seen[r.TID] = true
	}
	return nil
}

// MinHashSize returns the effective min-hash signature size: MinHashK, or
// the paper's default of 5 when unset.
func (c Config) MinHashSize() int {
	if c.MinHashK > 0 {
		return c.MinHashK
	}
	return DefaultConfig().MinHashK
}

// Snapshot returns the current immutable snapshot.
func (c *Corpus) Snapshot() *Snapshot { return c.snap.Load() }

// Epoch returns the current mutation epoch; it increases with every
// applied Insert/Delete/Upsert.
func (c *Corpus) Epoch() uint64 { return c.snap.Load().Epoch }

// Config returns the corpus's tokenization configuration.
func (c *Corpus) Config() Config { return c.cfg }

// Layers returns the materialized layer set.
func (c *Corpus) Layers() CorpusLayers { return c.layers }

// Len returns the current number of records.
func (c *Corpus) Len() int { return len(c.snap.Load().Records) }

// Records returns a copy of the current base relation in storage order.
func (c *Corpus) Records() []Record {
	return append([]Record(nil), c.snap.Load().Records...)
}

// TokenizePasses returns how many times the full base relation has been
// tokenized — exactly once per corpus, however many predicates attach
// (mutations re-tokenize changed records only and do not count).
func (c *Corpus) TokenizePasses() int64 { return c.passes.Load() }

// CompatibleConfig checks that a predicate attaching with cfg agrees with
// the corpus on every tokenization-level parameter. Scoring parameters
// (BM25, HMM, thresholds, edit options) are per-attach and may differ.
func (c *Corpus) CompatibleConfig(cfg Config) error {
	o := c.cfg
	switch {
	case cfg.Q != o.Q:
		return fmt.Errorf("approxsel: predicate q=%d does not match corpus q=%d", cfg.Q, o.Q)
	case cfg.WordQ != o.WordQ:
		return fmt.Errorf("approxsel: predicate word q=%d does not match corpus word q=%d", cfg.WordQ, o.WordQ)
	case cfg.PruneRate != o.PruneRate:
		return fmt.Errorf("approxsel: predicate prune rate %v does not match corpus prune rate %v", cfg.PruneRate, o.PruneRate)
	case cfg.MinHashSize() != o.MinHashSize():
		return fmt.Errorf("approxsel: predicate min-hash size %d does not match corpus size %d", cfg.MinHashSize(), o.MinHashSize())
	case cfg.MinHashSeed != o.MinHashSeed:
		return fmt.Errorf("approxsel: predicate min-hash seed %d does not match corpus seed %d", cfg.MinHashSeed, o.MinHashSeed)
	}
	return nil
}

// ---- mutations ----

// Insert adds records to the corpus; inserting an existing TID is an
// error. Only the new records are tokenized.
func (c *Corpus) Insert(records ...Record) error {
	return c.mutate(records, nil, false)
}

// Upsert inserts records, replacing any existing record with the same
// TID. Only the touched records are tokenized.
func (c *Corpus) Upsert(records ...Record) error {
	return c.mutate(records, nil, true)
}

// Delete removes records by TID; deleting an unknown TID is an error.
func (c *Corpus) Delete(tids ...int) error {
	return c.mutate(nil, tids, false)
}

// MutationLockWaitUS is the time mutations spent waiting for the corpus
// mutation lock (process-wide; exported as approx_mutation_lock_wait_us).
var MutationLockWaitUS = obs.NewHistogram()

func (c *Corpus) mutate(add []Record, del []int, upsert bool) error {
	t0 := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	MutationLockWaitUS.Observe(time.Since(t0))
	if len(add) == 0 && len(del) == 0 {
		return nil
	}
	plan := newSplicePlan(c.snap.Load())
	if err := plan.fold(add, del, upsert); err != nil {
		return err
	}
	next := c.apply(plan)
	kind := MutationInsert
	switch {
	case len(del) > 0:
		kind = MutationDelete
	case upsert:
		kind = MutationUpsert
	}
	seq := next.Epoch
	if c.seqSrc != nil {
		seq = c.seqSrc()
	}
	m := Mutation{Kind: kind, Add: add, Del: del, Epoch: next.Epoch, Seq: seq}
	if c.hook != nil {
		t1 := time.Now()
		err := c.hook(m)
		if obs.TracingEnabled() {
			obs.RecordStage("mutate.wal", time.Since(t1))
		}
		if err != nil {
			return &PersistenceError{Err: err}
		}
	}
	c.snap.Store(next)
	return nil
}

// apply tokenizes a plan's changed records and assembles the snapshot that
// follows: the step Insert/Delete/Upsert and WAL replay share. The plan's
// base must be the corpus's current snapshot and the caller must hold the
// mutation lock: inverted lists that only gain values are extended in
// place when their backing array has room, which is invisible to readers
// of earlier snapshots (they never look past their own lengths) only as
// long as snapshots form a single lineage. A snapshot that is assembled
// but never published (the hook refused it) is simply dropped; whatever it
// wrote past the base's lengths is overwritten by the next attempt.
func (c *Corpus) apply(plan *splicePlan) *Snapshot {
	sp := plan.splice()
	t0 := time.Now()
	c.tokenize(sp)
	tokDur := time.Since(t0)
	next := c.assemble(plan.base, sp, plan.epoch, tokDur)
	if obs.TracingEnabled() {
		obs.RecordStage("mutate.tokenize", tokDur)
		obs.RecordStage("mutate.splice", next.WeightDur)
	}
	return next
}

// splicePlan folds mutation batches over a base snapshot into the one
// splice that takes the base to their combined result. Each batch is
// validated against the state the batches before it produced, exactly as
// if they had published one by one; the work is proportional to the
// batches, never to the base. A single Insert/Delete/Upsert is a plan with
// one batch; WAL replay folds the whole log tail and assembles once.
type splicePlan struct {
	base     *Snapshot
	epoch    uint64
	dropped  map[int]bool   // base positions removed
	replaced map[int]Record // base positions whose record changed
	appended []Record       // records past the base, in arrival order
	gone     []bool         // appended records a later batch deleted
	appIdx   map[int]int    // TID → index into appended, live entries only
}

func newSplicePlan(base *Snapshot) *splicePlan {
	return &splicePlan{base: base, epoch: base.Epoch, dropped: map[int]bool{}, replaced: map[int]Record{}, appIdx: map[int]int{}}
}

// has reports whether a TID is live in the planned state.
func (p *splicePlan) has(tid int) bool {
	if _, ok := p.appIdx[tid]; ok {
		return true
	}
	pos, ok := p.base.Index(tid)
	return ok && !p.dropped[pos]
}

// fold validates one batch and adds it to the plan; on error the plan is
// abandoned by its caller.
func (p *splicePlan) fold(add []Record, del []int, upsert bool) error {
	deleting := make(map[int]bool, len(del))
	for _, tid := range del {
		if !p.has(tid) {
			return fmt.Errorf("approxsel: delete of unknown TID %d", tid)
		}
		if deleting[tid] {
			return fmt.Errorf("approxsel: duplicate TID %d in delete", tid)
		}
		deleting[tid] = true
	}
	seen := make(map[int]bool, len(add))
	for _, r := range add {
		if seen[r.TID] {
			return fmt.Errorf("approxsel: duplicate TID %d in insert", r.TID)
		}
		seen[r.TID] = true
		if deleting[r.TID] {
			return fmt.Errorf("approxsel: TID %d both inserted and deleted", r.TID)
		}
		if !upsert && p.has(r.TID) {
			return fmt.Errorf("approxsel: insert of existing TID %d (use Upsert to replace)", r.TID)
		}
	}
	for _, tid := range del {
		if i, ok := p.appIdx[tid]; ok {
			p.gone[i] = true
			delete(p.appIdx, tid)
		} else {
			pos, _ := p.base.Index(tid)
			p.dropped[pos] = true
			delete(p.replaced, pos)
		}
	}
	for _, r := range add {
		if i, ok := p.appIdx[r.TID]; ok {
			p.appended[i] = r
		} else if pos, ok := p.base.Index(r.TID); ok && !p.dropped[pos] {
			p.replaced[pos] = r
		} else {
			p.appIdx[r.TID] = len(p.appended)
			p.appended, p.gone = append(p.appended, r), append(p.gone, false)
		}
	}
	p.epoch++
	return nil
}

// splice turns the plan into the form assembly consumes.
func (p *splicePlan) splice() *splice {
	sp := &splice{}
	for pos := range p.dropped {
		sp.drop = append(sp.drop, pos)
	}
	for pos := range p.replaced {
		sp.repl = append(sp.repl, pos)
	}
	sort.Ints(sp.drop)
	sort.Ints(sp.repl)
	sp.recs = make([]Record, 0, len(sp.repl)+len(p.appended))
	for _, pos := range sp.repl {
		sp.recs = append(sp.recs, p.replaced[pos])
	}
	for i, r := range p.appended {
		if !p.gone[i] {
			sp.recs = append(sp.recs, r)
		}
	}
	return sp
}

// ---- tokenization (the single expensive pass) ----

// rawCols carries the tokenization products of a splice's records, one
// column per materialized layer (parallel to splice.recs).
type rawCols struct {
	docs  [][]string
	words [][]string
	norms []string
}

// tokenize fills in the tokenization columns of a splice's records.
func (c *Corpus) tokenize(sp *splice) {
	n := len(sp.recs)
	raw := &sp.raw
	if c.layers.Has(LayerGrams) {
		raw.docs = make([][]string, n)
	}
	if c.layers.Has(LayerWords) {
		raw.words = make([][]string, n)
	}
	if c.layers.Has(LayerNorms) {
		raw.norms = make([]string, n)
	}
	for k, rec := range sp.recs {
		if raw.docs != nil {
			raw.docs[k] = tokenize.QGrams(rec.Text, c.cfg.Q)
		}
		if raw.words != nil {
			raw.words[k] = tokenize.Words(strings.ToUpper(rec.Text))
		}
		if raw.norms != nil {
			raw.norms[k] = tokenize.EditNormalize(rec.Text, c.cfg.Q)
		}
	}
}

// ---- assembly ----
//
// assemble produces the snapshot that follows prev when the record list
// changes by sp. Collection statistics change globally on any insert or
// delete, and the differential contract — a mutated corpus is bit-identical
// to a fresh build — rules out approximate maintenance; so the statistics
// are kept as exact integer counters, the structural tables are spliced
// (sharing every list the delta does not reach), and everything that is a
// float function of N is left to derive itself on first use (layers.go).
// The result is a pure function of the new records and their
// tokenization: prev only says what can be reused, and a fresh build is
// the same call over the empty snapshot. The cost of a write is the delta's
// own tokens plus flat passes over integer arrays — positions above a
// deleted record shift down, ranks move when the vocabulary gains or loses
// a token. With PruneRate > 0 the pruned effective layer is rebuilt in
// full, because its idf threshold moves with every write.

func (c *Corpus) emptySnapshot() *Snapshot {
	s := &Snapshot{}
	if c.layers.Has(LayerGrams) {
		s.RawGrams = emptyGramLayer()
	}
	if c.layers.Has(LayerWords) {
		s.Words = newWordLayer(emptyGramLayer(), nil, c.layers, c.cfg.WordQ, c.fam)
	}
	return s
}

// gramTables narrows a corpus layer set to the tables one gram layer
// carries: everything when raw and effective layer are one, otherwise the
// raw layer keeps only tokenization-level state plus the edit filter's TF
// column with the posting ids it aligns with, and the derived tables live
// on the pruned effective layer.
func gramTables(layers CorpusLayers, pruned, raw bool) CorpusLayers {
	switch {
	case !pruned:
		return layers
	case !raw:
		return layers &^ LayerNorms
	case layers.Has(LayerNorms):
		return LayerNorms | LayerPostings
	}
	return 0
}

func (c *Corpus) assemble(prev *Snapshot, sp *splice, epoch uint64, tokDur time.Duration) *Snapshot {
	start := time.Now()
	sp.seal(len(prev.Records))
	s := &Snapshot{
		Epoch:   epoch,
		Records: spliceRows(prev.Records, sp, sp.recs),
		tids:    spliceTIDs(prev.tids, sp),
	}
	if c.layers.Has(LayerGrams) {
		s.RawGrams = prev.RawGrams.splice(sp, sp.raw.docs, gramTables(c.layers, c.cfg.PruneRate > 0, true))
		s.Grams = c.effectiveGrams(s.RawGrams)
	}
	if c.layers.Has(LayerNorms) {
		s.Norms = spliceRows(prev.Norms, sp, sp.raw.norms)
	}
	if c.layers.Has(LayerWords) {
		s.Words = prev.Words.splice(sp)
	}
	s.TokDur, s.WeightDur = tokDur, time.Since(start)
	return s
}

// effectiveGrams is the scoring layer over a raw gram layer: the raw layer
// itself, or with PruneRate > 0 the IDF-pruned layer, built in full from
// the raw pairs because its idf threshold moves with every write.
func (c *Corpus) effectiveGrams(raw *GramLayer) *GramLayer {
	if c.cfg.PruneRate <= 0 {
		return raw
	}
	return pruneLayer(raw, c.cfg.PruneRate, gramTables(c.layers, true, false))
}

// spliceTIDs carries the TID index over: dropped entries leave, positions
// above a drop shift down, appended records enter (replacements keep both
// TID and position).
func spliceTIDs(old []tidPos, sp *splice) []tidPos {
	out := make([]tidPos, 0, len(old)-len(sp.drop)+len(sp.recs)-len(sp.repl))
	if len(sp.drop) == 0 {
		out = append(out, old...)
	} else {
		for _, e := range old {
			below, dropped := slices.BinarySearch(sp.drop, int(e.pos))
			if !dropped {
				out = append(out, tidPos{e.tid, e.pos - int32(below)})
			}
		}
	}
	for k := len(sp.repl); k < len(sp.recs); k++ {
		out = append(out, tidPos{sp.recs[k].TID, sp.pos[k]})
	}
	byTID := func(a, b tidPos) int { return a.tid - b.tid }
	if !slices.IsSortedFunc(out, byTID) {
		slices.SortFunc(out, byTID)
	}
	return out
}
