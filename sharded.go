package approxsel

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/watch"
)

// ShardedCorpus is the shared, mutable token and weight store, partitioned
// across N core corpus shards by a stable hash of the TID; Corpus is its
// one-shard form. Opening tokenizes the relation exactly once; Predicate
// attaches any registered predicate as a lightweight view over the shared
// tables (so the full thirteen-predicate suite performs a single
// tokenization/statistics pass); and Insert, Delete and Upsert mutate the
// relation in place, re-tokenizing only the changed records. Attached
// predicates notice a moved epoch on their next selection and re-attach to
// the fresh statistics automatically.
//
// Preprocessing, mutation maintenance and probing parallelize across the
// shards: attached predicates fan each selection out to every shard on the
// SelectBatch worker pool and merge the per-shard top-k rankings with a
// k-way heap, mutations route each record to its home shard, and every
// shard keeps its own mutation epoch — the epoch vector (Epochs) identifies
// one global version of the relation, the invalidation key of the serving
// subsystem's result cache.
//
// Collection statistics (document frequencies, idf, average document
// length) are computed per shard, the standard practice of partitioned
// search engines: with one shard the scores are bit-identical to
// predicates attached directly to one core corpus, and with more shards
// they converge to them as shards grow. The merge itself is deterministic
// for any shard count.
//
// A ShardedCorpus is safe for concurrent use: selections read immutable
// per-shard snapshots, mutations are serialized and publish atomically per
// shard, and a selection racing a mutation observes either the old or the
// new version of each shard — never a mix.
type ShardedCorpus struct {
	cfg    Config
	shards []*core.Corpus
	mu     sync.Mutex // serializes mutations across shards

	// root and logs hold the approxstore attachment when the corpus was
	// opened with WithDataDir: one per-shard write-ahead log under one
	// manifest keyed by the shard-epoch vector. Both are nil/empty for a
	// purely in-memory corpus.
	root string
	logs []*store.Log

	// hub fans the mutation stream out to registered watches (approxwatch);
	// always set, idle until the first RegisterWatch. seq numbers logical
	// mutation batches corpus-wide, so every shard's sub-batch (and WAL
	// entry) of one mutation carries the same sequence number; it resumes
	// past the largest logged sequence on a durable open.
	hub *watch.Hub
	seq atomic.Uint64
}

// OpenShardedCorpus tokenizes the base relation once, partitioned across
// the given number of shards (values < 1 select GOMAXPROCS) and built in
// parallel. Options adjust the tokenization parameters exactly as in New;
// the realization is chosen per Predicate call.
func OpenShardedCorpus(records []Record, shards int, opts ...BuildOption) (*ShardedCorpus, error) {
	if shards < 1 {
		shards = runtime.GOMAXPROCS(0)
	}
	settings := core.BuildSettings{
		Config:      core.DefaultConfig(),
		Realization: string(Native),
	}
	for _, o := range opts {
		o.ApplyBuild(&settings)
	}
	if root := settings.DataDir; root != "" {
		// Durable corpus: an existing manifest wins over the records and
		// shard-count arguments — the stored layout fixes both (a record's
		// home shard must never change across restarts). A segment and WAL
		// directly in root, without a manifest, is the layout the one-shard
		// corpus used to write: refused, never re-seeded over (that would
		// serve a corpus missing every logged mutation).
		if store.HasManifest(root) {
			return openStoredShards(root)
		}
		if store.Exists(root) {
			return nil, fmt.Errorf("approxsel: %s holds a corpus store without MANIFEST.json, a layout this version no longer opens", root)
		}
		s, err := buildShards(records, shards, settings.Config)
		if err != nil {
			return nil, err
		}
		if err := s.attachStore(root); err != nil {
			return nil, err
		}
		return s, nil
	}
	return buildShards(records, shards, settings.Config)
}

// buildShards partitions and tokenizes the relation across shards in
// parallel — the in-memory construction path of OpenShardedCorpus.
func buildShards(records []Record, shards int, cfg Config) (*ShardedCorpus, error) {
	parts := make([][]Record, shards)
	for _, r := range records {
		i := shardOf(r.TID, shards)
		parts[i] = append(parts[i], r)
	}
	s := &ShardedCorpus{cfg: cfg, shards: make([]*core.Corpus, shards)}
	_, err := core.RunJobs(context.Background(), shards, 0, func(i int) error {
		c, err := core.NewCorpus(parts[i], cfg, core.AllLayers)
		if err != nil {
			return err
		}
		s.shards[i] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.initWatchHub(s.Epochs(), nil)
	return s, nil
}

// attachStore initializes root as the data directory of a freshly built
// sharded corpus: one store per shard, then the manifest naming the layout
// and the shard-epoch vector.
func (s *ShardedCorpus) attachStore(root string) error {
	s.root = root
	s.logs = make([]*store.Log, len(s.shards))
	_, err := core.RunJobs(context.Background(), len(s.shards), 0, func(i int) error {
		l, err := store.Create(store.ShardDir(root, i), s.shards[i])
		if err != nil {
			return err
		}
		s.logs[i] = l
		return nil
	})
	if err != nil {
		return err
	}
	return store.WriteManifest(root, store.Manifest{Version: 1, Shards: len(s.shards), Epochs: s.Epochs(), Seq: s.seq.Load()})
}

// openStoredShards restores a sharded corpus from its manifest: every shard
// loads its newest segment and replays its WAL in parallel, reaching the
// exact pre-crash shard-epoch vector.
func openStoredShards(root string) (*ShardedCorpus, error) {
	m, err := store.ReadManifest(root)
	if err != nil {
		return nil, err
	}
	s := &ShardedCorpus{
		root:   root,
		shards: make([]*core.Corpus, m.Shards),
		logs:   make([]*store.Log, m.Shards),
	}
	_, err = core.RunJobs(context.Background(), m.Shards, 0, func(i int) error {
		l, err := store.Open(store.ShardDir(root, i))
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		s.shards[i] = l.Corpus()
		s.logs[i] = l
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The manifest's epoch vector names the global version of the last
	// checkpoint; every shard must replay to at least it. A shard below it
	// regressed — a corrupt newest segment fell back to an older one whose
	// WAL a checkpoint already truncated — and serving a cross-shard-
	// inconsistent corpus as if healthy is worse than failing the start.
	for i, c := range s.shards {
		if c.Epoch() < m.Epochs[i] {
			return nil, fmt.Errorf("approxsel: shard %d replayed to epoch %d, below the manifest's checkpoint epoch %d — its store has lost acknowledged state", i, c.Epoch(), m.Epochs[i])
		}
	}
	s.cfg = s.shards[0].Config()
	// Seed the watch hub from the per-shard WAL replay windows, regrouped
	// into logical batches by sequence number: a watch resuming across the
	// restart replays the missed events, and the batch counter continues
	// past the largest sequence any shard logged.
	base := make([]core.Record, 0)
	baseEpochs := make([]uint64, m.Shards)
	perShard := make([][]core.Mutation, m.Shards)
	var maxSeq uint64
	for i, l := range s.logs {
		b, muts := l.TakeReplay()
		base = append(base, b...)
		perShard[i] = muts
		baseEpochs[i] = l.Stats().SnapshotEpoch
		if ms := l.MaxSeq(); ms > maxSeq {
			maxSeq = ms
		}
	}
	// The batch counter resumes past the largest sequence any shard logged
	// or the manifest checkpointed (the WAL truncates at a checkpoint, so
	// the manifest carries the floor across it).
	if m.Seq > maxSeq {
		maxSeq = m.Seq
	}
	s.seq.Store(maxSeq)
	s.initWatchHub(baseEpochs, watch.GroupBatches(base, perShard))
	return s, nil
}

// shardOf maps a TID to its home shard with a splitmix64-style finalizer,
// so consecutive TIDs spread evenly and a record's shard never changes.
func shardOf(tid, shards int) int {
	x := uint64(tid)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(shards))
}

// Shards returns the shard count.
func (s *ShardedCorpus) Shards() int { return len(s.shards) }

// Len returns the current number of records across all shards.
func (s *ShardedCorpus) Len() int {
	n := 0
	for _, c := range s.shards {
		n += c.Len()
	}
	return n
}

// Epochs returns the per-shard mutation epoch vector. Two equal vectors
// identify bit-identical relation state: any Insert/Delete/Upsert advances
// the epoch of every shard it touches.
func (s *ShardedCorpus) Epochs() []uint64 {
	out := make([]uint64, len(s.shards))
	for i, c := range s.shards {
		out[i] = c.Epoch()
	}
	return out
}

// State returns the record count and the epoch vector as one consistent
// pair: it serializes against mutations, so the two values always describe
// the same version of the relation (Len and Epochs called separately can
// straddle a concurrent mutation).
func (s *ShardedCorpus) State() (int, []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Len(), s.Epochs()
}

// Records returns a copy of the current base relation, in shard order and
// per-shard storage order (not global insertion order).
func (s *ShardedCorpus) Records() []Record {
	var out []Record
	for _, c := range s.shards {
		out = append(out, c.Records()...)
	}
	return out
}

// Config returns the configuration the sharded corpus was opened with.
func (s *ShardedCorpus) Config() Config { return s.cfg }

// Predicate attaches the named predicate to every shard, resolving the
// name through the predicate registry exactly like New, and returns a view
// that fans selections out across the shards and merges the per-shard
// rankings. The attach starts from the corpus's own configuration; options
// apply on top and may change scoring-level parameters only
// (tokenization-level parameters — q-gram sizes, pruning, min-hash
// geometry — are fixed when the corpus opens).
//
// Native predicates attach as views over the shards' shared tables; the
// declarative realization and Register-ed predicates are adapted
// automatically, rebuilding from a shard's records when its epoch moves.
func (s *ShardedCorpus) Predicate(name string, opts ...BuildOption) (Predicate, error) {
	settings := core.BuildSettings{
		Config:      s.cfg,
		Realization: string(Native),
	}
	for _, o := range opts {
		o.ApplyBuild(&settings)
	}
	v := &shardedView{name: name, views: make([]Predicate, len(s.shards))}
	for i, c := range s.shards {
		p, err := attachToCorpus(c, Realization(settings.Realization), name, settings.Config)
		if err != nil {
			return nil, err
		}
		v.views[i] = p
	}
	return v, nil
}

// ---- mutations ----

// Insert adds records, each routed to its home shard; inserting an
// existing TID is an error and the whole batch is rejected up front.
func (s *ShardedCorpus) Insert(records ...Record) error {
	return s.mutate(records, nil, false)
}

// Delete removes records by TID; deleting an unknown TID is an error and
// the whole batch is rejected up front.
func (s *ShardedCorpus) Delete(tids ...int) error {
	return s.mutate(nil, tids, false)
}

// Upsert inserts records, replacing any existing record with the same TID.
func (s *ShardedCorpus) Upsert(records ...Record) error {
	return s.mutate(records, nil, true)
}

// mutate validates the whole batch against current state first — so a bad
// batch leaves every shard untouched — then applies the per-shard slices in
// parallel. Shards untouched by the batch keep their epoch; touched shards
// advance.
func (s *ShardedCorpus) mutate(add []Record, del []int, upsert bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.shards)
	addBy := make([][]Record, n)
	delBy := make([][]int, n)
	// oldBy collects the pre-images of deleted and replaced records: the
	// watch hub retracts their pairs with them.
	oldBy := make([][]Record, n)
	seen := make(map[int]bool, len(add)+len(del))
	for _, tid := range del {
		if seen[tid] {
			return fmt.Errorf("approxsel: duplicate TID %d in delete", tid)
		}
		seen[tid] = true
		sh := shardOf(tid, n)
		snap := s.shards[sh].Snapshot()
		i, ok := snap.Index(tid)
		if !ok {
			return fmt.Errorf("approxsel: delete of unknown TID %d", tid)
		}
		delBy[sh] = append(delBy[sh], tid)
		oldBy[sh] = append(oldBy[sh], snap.Records[i])
	}
	// A batch is adds XOR deletes (Insert/Upsert/Delete each pass one), so
	// a repeated TID here is always a duplicate within the add batch.
	op := "insert"
	if upsert {
		op = "upsert"
	}
	for _, r := range add {
		if seen[r.TID] {
			return fmt.Errorf("approxsel: duplicate TID %d in %s", r.TID, op)
		}
		seen[r.TID] = true
		sh := shardOf(r.TID, n)
		snap := s.shards[sh].Snapshot()
		if i, ok := snap.Index(r.TID); ok {
			if !upsert {
				return fmt.Errorf("approxsel: insert of existing TID %d (use Upsert to replace)", r.TID)
			}
			oldBy[sh] = append(oldBy[sh], snap.Records[i])
		}
		addBy[sh] = append(addBy[sh], r)
	}
	seq := s.seq.Add(1)
	applied := make([]bool, n)
	_, err := core.RunJobs(context.Background(), n, 0, func(i int) error {
		if len(addBy[i]) == 0 && len(delBy[i]) == 0 {
			return nil
		}
		// A batch is adds XOR deletes, so each shard's sub-batch is one
		// atomic core mutation: a shard either fully applied or is
		// untouched.
		if len(delBy[i]) > 0 {
			if err := s.shards[i].Delete(delBy[i]...); err != nil {
				return err
			}
		} else if upsert {
			if err := s.shards[i].Upsert(addBy[i]...); err != nil {
				return err
			}
		} else if err := s.shards[i].Insert(addBy[i]...); err != nil {
			return err
		}
		applied[i] = true
		return nil
	})
	// Tell the watch hub exactly what landed — on a partial failure, only
	// the applied shards' sub-batches — before reporting the outcome, so
	// its history never diverges from the corpus.
	if s.hub != nil {
		var subs []watch.SubMutation
		for i := 0; i < n; i++ {
			if !applied[i] {
				continue
			}
			kind := core.MutationInsert
			if len(delBy[i]) > 0 {
				kind = core.MutationDelete
			} else if upsert {
				kind = core.MutationUpsert
			}
			subs = append(subs, watch.SubMutation{Shard: i, Kind: kind, Add: addBy[i], Del: delBy[i], Old: oldBy[i], Epoch: s.shards[i].Epoch()})
		}
		if len(subs) > 0 {
			s.hub.OnBatch(watch.Batch{Seq: seq, Subs: subs})
		}
	}
	if err != nil {
		// Validation ran up front against every shard, so a failure here is
		// a persistence/internal error after some shards may already have
		// applied (and logged) their sub-batches. That partial state must
		// not masquerade as a cleanly-retryable failure: report it
		// explicitly so callers (and the server's status mapping) can tell
		// "nothing happened, retry" from "the batch is half-landed".
		var partial []int
		for i, ok := range applied {
			if ok {
				partial = append(partial, i)
			}
		}
		if len(partial) > 0 {
			return &PartialMutationError{Err: err, Applied: partial}
		}
		return err
	}
	return nil
}

// ---- the fan-out predicate view ----

// shardedView is the predicate ShardedCorpus.Predicate returns: one
// epoch-refreshing corpus view per shard, probed concurrently on the
// SelectBatch worker pool, with the per-shard rankings heap-merged into the
// global SortMatches order. Limits and thresholds push down into every
// shard unchanged: the global top k is a subset of the union of per-shard
// top k's, and the merge stops after k.
type shardedView struct {
	name  string
	views []Predicate
}

// Name implements core.Predicate.
func (v *shardedView) Name() string { return v.name }

// Select implements core.Predicate with the full global ranking.
func (v *shardedView) Select(query string) ([]Match, error) {
	return v.SelectCtx(context.Background(), query, core.SelectOptions{})
}

// SelectCtx implements core.ContextPredicate: the query fans out to every
// shard with the options pushed down, and the merged result is identical
// for any worker schedule.
func (v *shardedView) SelectCtx(ctx context.Context, query string, opts core.SelectOptions) ([]Match, error) {
	if opts.Limit < 0 {
		return nil, fmt.Errorf("approxsel: negative selection limit %d", opts.Limit)
	}
	// Traced requests get one span per shard probe under a "fanout" parent
	// and a "merge" span for the cross-shard heap merge; untraced requests
	// pay one atomic load per StartSpan.
	fanCtx, fan := obs.StartSpan(ctx, "fanout")
	per := make([][]Match, len(v.views))
	_, err := core.RunJobs(ctx, len(v.views), 0, func(i int) error {
		shCtx, sp := obs.StartSpan(fanCtx, "shard.select")
		if sp != nil {
			sp.SetAttr("shard", strconv.Itoa(i))
			defer sp.End()
		}
		ms, err := core.SelectWithOptions(shCtx, v.views[i], query, opts)
		if err != nil {
			return err
		}
		per[i] = ms
		return nil
	})
	fan.End()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, mg := obs.StartSpan(ctx, "merge")
	ms := core.MergeRanked(per, opts.Limit)
	mg.End()
	return ms, nil
}

// PreprocessPhases implements core.Phased with the summed per-shard phases
// (the total work; shards overlap on the wall clock).
func (v *shardedView) PreprocessPhases() (time.Duration, time.Duration) {
	var tok, w time.Duration
	for _, p := range v.views {
		if ph, ok := p.(core.Phased); ok {
			t0, w0 := ph.PreprocessPhases()
			tok += t0
			w += w0
		}
	}
	return tok, w
}
