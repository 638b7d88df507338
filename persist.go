package approxsel

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// This file is the public face of approxstore, the durable persistence
// layer: every shard of a corpus saves as a versioned binary snapshot
// segment (records, interned token tables, posting lists, collection
// statistics, bound columns, epoch — floats serialized bit-for-bit) plus an
// epoch-stamped write-ahead log of the mutations applied since, under one
// root directory whose MANIFEST.json fixes the shard count. A reopened
// corpus is bit-identical to the one that was built and then mutated: same
// epochs, same scores, same tie order, for every predicate.
//
//	// Durable: load-or-build, with every mutation write-ahead logged.
//	corpus, err := approxsel.OpenCorpus(records, approxsel.WithDataDir(dir))
//	defer corpus.CloseStore()
//	corpus.Insert(...)       // acknowledged only after the WAL took it
//	corpus.Checkpoint()      // fresh segment at the current epochs, WAL truncated

// WithDataDir makes OpenCorpus and OpenShardedCorpus durable under the
// given directory: an existing approxstore there is loaded instead of
// building from the records argument (the stored configuration and shard
// count win), a fresh directory is seeded from the records, and either way
// every later mutation is write-ahead logged and acknowledged only once the
// log has taken it.
func WithDataDir(dir string) BuildOption {
	return buildOpt(func(s *core.BuildSettings) { s.DataDir = dir })
}

// StoreStats describes the durable state of a corpus opened with
// WithDataDir.
type StoreStats struct {
	// Dir is the root data directory.
	Dir string
	// SnapshotEpochs is the per-shard epoch vector of the segments a cold
	// start would load.
	SnapshotEpochs []uint64
	// SnapshotBytes is the total on-disk size of those segments.
	SnapshotBytes int64
	// WALEntries counts the mutation batches currently logged across all
	// shards; they replay on the next cold start, and a Checkpoint resets
	// the count to zero.
	WALEntries int
	// LastLoadDur is how long the last cold start (segment decode + WAL
	// replay, slowest shard) took; zero for a freshly created store.
	LastLoadDur time.Duration
}

// PartialMutationError reports a multi-shard mutation batch that failed
// after some shards had already applied (and durably logged) their
// sub-batches. The batch is neither fully applied nor cleanly retryable:
// the listed shards hold their part of it, the others none. It only
// arises from persistence or internal failures — validation runs against
// every shard before anything applies.
type PartialMutationError struct {
	// Err is the failure that stopped the batch.
	Err error
	// Applied lists the shards whose sub-batches landed.
	Applied []int
}

func (e *PartialMutationError) Error() string {
	return fmt.Sprintf("approxsel: mutation batch partially applied (shards %v landed): %v", e.Applied, e.Err)
}

// Unwrap exposes the underlying failure.
func (e *PartialMutationError) Unwrap() error { return e.Err }

// ---- durable methods ----

// Persistent reports whether the corpus is attached to a data directory
// (opened with WithDataDir), i.e. whether its mutations are write-ahead
// logged.
func (s *ShardedCorpus) Persistent() bool { return s.root != "" }

// Checkpoint writes a fresh snapshot segment per shard and truncates every
// shard's write-ahead log, then rewrites the manifest with the checkpointed
// shard-epoch vector. Mutations are frozen for the duration (the manifest
// must name one consistent global version); selections proceed unaffected.
func (s *ShardedCorpus) Checkpoint() error {
	if s.root == "" {
		return fmt.Errorf("approxsel: Checkpoint on a corpus without a data directory")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := core.RunJobs(context.Background(), len(s.logs), 0, func(i int) error {
		return s.logs[i].Checkpoint()
	}); err != nil {
		return err
	}
	return store.WriteManifest(s.root, store.Manifest{Version: 1, Shards: len(s.shards), Epochs: s.Epochs(), Seq: s.seq.Load()})
}

// SyncStore flushes every shard's logged mutations to stable storage.
// Appends survive a process crash as soon as they are acknowledged; Sync
// hardens them against machine crashes too. It is a no-op on a corpus
// without a data directory.
func (s *ShardedCorpus) SyncStore() error {
	for _, l := range s.logs {
		if err := l.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// CloseStore fsyncs and closes every shard's write-ahead log. Further
// mutations fail; selections keep working. It is a no-op on a corpus
// without a data directory.
//
// The close is serialized behind the cross-shard mutation lock: without
// it, a mutation racing the drain could land (and fsync) on the shards
// whose logs were still open while the rest rejected its sub-batches —
// a durably half-applied batch that was never acknowledged. Behind the
// lock, every mutation either completes before the first log seals or
// fails on every shard.
func (s *ShardedCorpus) CloseStore() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, l := range s.logs {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// StoreStats returns the durable-state counters aggregated across shards;
// ok is false for a corpus without a data directory.
func (s *ShardedCorpus) StoreStats() (StoreStats, bool) {
	if s.root == "" {
		return StoreStats{}, false
	}
	out := StoreStats{Dir: s.root, SnapshotEpochs: make([]uint64, len(s.logs))}
	for i, l := range s.logs {
		st := l.Stats()
		out.SnapshotEpochs[i] = st.SnapshotEpoch
		out.SnapshotBytes += st.SnapshotBytes
		out.WALEntries += st.WALEntries
		if st.LastLoadDur > out.LastLoadDur {
			out.LastLoadDur = st.LastLoadDur
		}
	}
	return out, true
}
