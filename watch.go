package approxsel

import "repro/internal/watch"

// This file is the public face of approxwatch, the standing-query
// subsystem: RegisterWatch installs a predicate + threshold pair over a
// live corpus and streams epoch-tagged match/unmatch events as the
// relation mutates, instead of re-running ApproximateJoin.
// Folding a watch's events up to epoch E reproduces the batch join at
// epoch E bit for bit — same pair set, same scores. Every event's score
// comes from a thresholded Select: a changed record's new text asserts
// pairs and its old text (the pre-image the mutation carries) retracts
// them, against the corpus after the batch for a self watch and against
// the indexed probe relation for a join watch; a resumed watch replays
// the missed window over a scratch corpus rolled back to its vector.
//
//	w, err := corpus.RegisterWatch("Jaccard", 0.6)
//	for ev := range w.Events() { ... }     // online dedup
//
//	w, err := corpus.RegisterWatch("Jaccard", 0.6,
//	    approxsel.WithProbes(queries...))  // incremental join against a fixed probe set
//
// Delivery resumes: pass WithResume(lastSeenEpochs) and the missed window
// replays (from the WAL's replay window after a cold start) before live
// events continue, each missed event exactly once.
//
// Watches accept the stats-free predicates only — Jaccard, IntersectSize,
// EditDistance — because any statistics-weighted score shifts on every
// mutation, which no delta evaluation can track exactly.

// WatchEvent is one incremental change to a watch's join result.
type WatchEvent = watch.Event

// Watch is a registered standing query; consume Events until closed.
type Watch = watch.Watch

// WatchStats is the per-corpus watch observability block.
type WatchStats = watch.Stats

// ErrResumeTooOld reports a WithResume vector older than the corpus's
// replayable history window.
var ErrResumeTooOld = watch.ErrResumeTooOld

// ErrWatchLagged reports a watch consumer that fell behind its delivery
// buffer; re-register with the last seen epoch vector to resume.
var ErrWatchLagged = watch.ErrLagged

// WatchOption adjusts a watch registration.
type WatchOption func(*watch.Spec)

// WithProbes turns the watch into an incremental join: events track the
// approximate join of the fixed probe relation against the corpus, rather
// than the corpus's self join. An empty probe set is a join that never
// matches, not a self join.
func WithProbes(records ...Record) WatchOption {
	return func(s *watch.Spec) {
		s.Probes = append([]Record{}, records...)
	}
}

// WithResume replays the window the client missed: epochs is the
// per-shard epoch vector it last saw (one entry for a one-shard Corpus).
func WithResume(epochs []uint64) WatchOption {
	return func(s *watch.Spec) {
		s.Resume = append([]uint64(nil), epochs...)
	}
}

// WithWatchBuffer sets the delivery channel capacity (default 1024).
func WithWatchBuffer(n int) WatchOption {
	return func(s *watch.Spec) { s.Buffer = n }
}

// watchSpec folds options into a registration spec.
func watchSpec(predicate string, theta float64, opts []WatchOption) watch.Spec {
	spec := watch.Spec{Predicate: predicate, Theta: theta}
	for _, o := range opts {
		o(&spec)
	}
	return spec
}

// RegisterWatch installs a standing query on the corpus: predicate one of
// the stats-free watchable predicates, theta the positive match
// threshold. Without options it is a self watch (online dedup) whose
// selects fan out across all shards; resume vectors carry one epoch per
// shard. The returned Watch delivers until Close, CloseWatches, or the
// consumer lags.
func (s *ShardedCorpus) RegisterWatch(predicate string, theta float64, opts ...WatchOption) (*Watch, error) {
	spec := watchSpec(predicate, theta, opts)
	var live Predicate
	if spec.Probes == nil {
		var err error
		if live, err = s.Predicate(predicate, watch.AttachConfig(s.cfg, spec)); err != nil {
			return nil, err
		}
	}
	// Under the mutation lock, the records a resume replay rolls back from
	// are the version the hub's epoch vector names.
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hub.Register(spec, live, s.Records)
}

// CloseWatches closes every watch on the corpus cleanly and rejects
// further registrations (graceful drain).
func (s *ShardedCorpus) CloseWatches() { s.hub.CloseAll() }

// WatchStats reports the corpus's watch counters.
func (s *ShardedCorpus) WatchStats() WatchStats { return s.hub.Stats() }

// initWatchHub builds the sharded corpus's hub and points every shard's
// sequence source at the corpus-wide batch counter, so all sub-batches of
// one logical mutation log the same sequence number.
func (s *ShardedCorpus) initWatchHub(baseEpochs []uint64, hist []watch.Batch) {
	s.hub = watch.NewHub(s.cfg, len(s.shards), baseEpochs, hist)
	for _, c := range s.shards {
		c.SetSeqSource(func() uint64 { return s.seq.Load() })
	}
}
