package approxsel

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Corpus is the shared, mutable base relation the paper's framework stores
// inside the DBMS: one set of precomputed token and weight tables that all
// registered predicates read. It is the one-shard ShardedCorpus.
type Corpus = ShardedCorpus

// OpenCorpus tokenizes the base relation once, materializing every
// precomputed layer (q-grams, word grams, counts, document lengths,
// IDF/weight statistics, min-hash signatures, edit-normalized strings) so
// that any registered predicate can attach. It is OpenShardedCorpus with
// one shard; with WithDataDir a stored manifest's shard count wins.
func OpenCorpus(records []Record, opts ...BuildOption) (*Corpus, error) {
	return OpenShardedCorpus(records, 1, opts...)
}

// attachToCorpus resolves (realization, name) and wraps the resulting
// builder in an epoch-refreshing view.
func attachToCorpus(cc *core.Corpus, r Realization, name string, cfg Config) (Predicate, error) {
	corpusBuilder, legacyBuilder, err := lookupAttach(r, name)
	if err != nil {
		return nil, err
	}
	v := &corpusView{corpus: cc, name: name}
	if corpusBuilder != nil {
		v.build = func() (core.Predicate, error) { return corpusBuilder(cc, cfg) }
	} else {
		// Legacy builders tokenize for themselves, but the documented
		// contract holds for every attach: tokenization-level parameters
		// were fixed at OpenCorpus, and a conflicting override would make
		// this predicate silently diverge from the rest of the suite.
		if err := cc.CompatibleConfig(cfg); err != nil {
			return nil, err
		}
		v.build = func() (core.Predicate, error) { return legacyBuilder(cc.Records(), cfg) }
	}
	if _, err := v.current(); err != nil {
		return nil, err
	}
	return v, nil
}

// corpusView is the lightweight predicate view of one shard: it holds a
// builder closure plus the inner predicate built for the current epoch,
// and transparently rebuilds the inner predicate when the corpus moves to
// a new epoch. For native predicates the rebuild is a cheap re-attach to
// the corpus's already-updated shared tables; for adapted legacy builders
// it is a rebuild from the corpus's records.
type corpusView struct {
	corpus *core.Corpus
	name   string
	build  func() (core.Predicate, error)
	state  atomic.Pointer[viewState]
	mu     sync.Mutex // held while one epoch's predicate is built
}

type viewState struct {
	epoch uint64
	inner core.Predicate
}

// current returns the inner predicate for the corpus's current epoch,
// building it if the epoch moved. A hit is one atomic load; on a miss the
// first caller builds under mu while concurrent first reads wait for that
// build, so each epoch's predicate is built once.
func (v *corpusView) current() (core.Predicate, error) {
	e := v.corpus.Epoch()
	if st := v.state.Load(); st != nil && st.epoch >= e {
		return st.inner, nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if st := v.state.Load(); st != nil && st.epoch >= e {
		return st.inner, nil
	}
	inner, err := v.build()
	if err != nil {
		return nil, err
	}
	v.state.Store(&viewState{epoch: e, inner: inner})
	return inner, nil
}

// Name implements core.Predicate.
func (v *corpusView) Name() string { return v.name }

// Select implements core.Predicate against the corpus's current epoch.
func (v *corpusView) Select(query string) ([]Match, error) {
	p, err := v.current()
	if err != nil {
		return nil, err
	}
	return p.Select(query)
}

// SelectCtx implements core.ContextPredicate: options are pushed down into
// the inner predicate when it supports them, post-filtered otherwise.
func (v *corpusView) SelectCtx(ctx context.Context, query string, opts core.SelectOptions) ([]Match, error) {
	p, err := v.current()
	if err != nil {
		return nil, err
	}
	return core.SelectWithOptions(ctx, p, query, opts)
}

// PreprocessPhases implements core.Phased by delegating to the inner
// predicate; adapted predicates that do not track phases report zeros.
func (v *corpusView) PreprocessPhases() (time.Duration, time.Duration) {
	p, err := v.current()
	if err != nil {
		return 0, 0
	}
	if ph, ok := p.(core.Phased); ok {
		return ph.PreprocessPhases()
	}
	return 0, 0
}
