package approxsel

import (
	"repro/internal/core"
)

// ---- construction options ----

// BuildOption configures predicate construction in New and corpus opening
// in OpenCorpus. A Config value is itself a BuildOption that replaces the
// whole parameter set, which keeps the original New(name, records, cfg)
// call form working; to adjust a few knobs, start from DefaultConfig:
//
//	cfg := approxsel.DefaultConfig()
//	cfg.Q, cfg.PruneRate = 3, 0.1
//	approxsel.New("BM25", records, cfg)
type BuildOption = core.BuildOption

// buildOpt adapts a settings mutation to the BuildOption interface.
func buildOpt(f func(*core.BuildSettings)) BuildOption { return core.BuildOptionFunc(f) }

// WithRealization selects which realization New builds: Native (the
// default, in-memory) or Declarative (the paper's SQL realization).
func WithRealization(r Realization) BuildOption {
	return buildOpt(func(s *core.BuildSettings) { s.Realization = string(r) })
}

// ---- selection options ----

// SelectOption tunes one selection made through SelectCtx.
type SelectOption interface {
	applySelect(*core.SelectOptions)
}

// BatchOption tunes a SelectBatch call. Every ProbeOption is also a
// BatchOption, applying to each probe of the batch.
type BatchOption interface {
	applyBatch(*batchSettings)
}

// ProbeOption is a per-probe limit usable both on a single SelectCtx call
// and on every query of a SelectBatch (it implements SelectOption and
// BatchOption).
type ProbeOption struct {
	apply func(*core.SelectOptions)
}

func (o ProbeOption) applySelect(s *core.SelectOptions) { o.apply(s) }
func (o ProbeOption) applyBatch(b *batchSettings)       { o.apply(&b.sel) }

// Limit keeps only the k best matches. The limit is pushed down into the
// predicate when it supports it (all native predicates do), replacing the
// full sort of the candidate set with a k-bounded heap.
func Limit(k int) ProbeOption {
	return ProbeOption{apply: func(s *core.SelectOptions) { s.Limit = k }}
}

// Threshold keeps only matches with score ≥ theta — the paper's
// sim(t_q, t) ≥ θ selection — filtering before materialization in
// predicates that support push-down.
func Threshold(theta float64) ProbeOption {
	return ProbeOption{apply: func(s *core.SelectOptions) {
		s.Threshold = theta
		s.HasThreshold = true
	}}
}

// Workers sets the worker-pool size of SelectBatch. Values below 1 select
// the default (GOMAXPROCS). Predicates that do not declare concurrent
// probing safe (the declarative realization) are always probed by a single
// worker regardless of this option.
func Workers(n int) BatchOption { return workersOption(n) }

type workersOption int

func (w workersOption) applyBatch(b *batchSettings) { b.workers = int(w) }

// selectOptions folds SelectOptions into the core representation.
func selectOptions(opts []SelectOption) core.SelectOptions {
	var so core.SelectOptions
	for _, o := range opts {
		o.applySelect(&so)
	}
	return so
}
