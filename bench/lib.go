package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	approxsel "repro"
	"repro/internal/core"
	"repro/internal/native"
)

// libInst is the set-up lib-combo workload: one shared corpus, the five
// expensive predicates attached to it, and the round-robin operation list.
type libInst struct {
	ds     *approxsel.DirtyDataset
	corpus *approxsel.Corpus
	views  map[string]approxsel.Predicate
	ops    []selectOp
	next   int
	opened time.Duration // OpenCorpus alone
}

func setupLib(cfg config) (*libInst, setupTimes, error) {
	t0 := time.Now()
	ds, err := dataset(cfg.scaled(cfg.sizes.libRecords), cfg.seed)
	if err != nil {
		return nil, setupTimes{}, err
	}
	in := &libInst{ds: ds, views: map[string]approxsel.Predicate{}}
	tp := time.Now()
	if in.corpus, err = approxsel.OpenCorpus(ds.Records); err != nil {
		return nil, setupTimes{}, err
	}
	in.opened = time.Since(tp)
	for _, name := range expensiveFive {
		if in.views[name], err = in.corpus.Predicate(name); err != nil {
			return nil, setupTimes{}, err
		}
	}
	prep := time.Since(tp)
	// Round-robin over the predicates, so any prefix of the list keeps the
	// mix: the workload's median sits between two predicates' bands.
	for _, q := range pickQueries(ds.Records, cfg.sizes.libQueries, cfg.seed+1) {
		for _, name := range expensiveFive {
			in.ops = append(in.ops, selectOp{predicate: name, query: q.Text})
		}
	}
	return in, setupTimes{total: time.Since(t0).Seconds(), preprocess: prep.Seconds()}, nil
}

func (in *libInst) timedOp(_, _ int) (bool, error) {
	op := in.ops[in.next%len(in.ops)]
	in.next++
	ms, err := approxsel.SelectCtx(context.Background(), in.views[op.predicate], op.query, approxsel.Limit(selectLimit))
	if err == nil && len(ms) > selectLimit {
		err = fmt.Errorf("bench: %s returned %d matches over the limit", op.predicate, len(ms))
	}
	return false, err
}

func runLib(cfg config) (*result, error) {
	r := newResult("lib-combo", cfg)
	in, st, err := repeatSetup(cfg.setups(true), func() (*libInst, setupTimes, error) { return setupLib(cfg) }, func(*libInst) error { return nil })
	if err != nil {
		return nil, err
	}
	r.set("setup_s", st.total)
	r.set("preprocess_s", st.preprocess)
	r.set("heap_mb", heapMiB())
	r.set("approxsel.open_corpus_s", in.opened.Seconds())

	ph := closedLoop(1, cfg.timedDuration(), nil, "select", in.timedOp)
	ph.account(r)
	reportSelects(r, ph, 1, false)

	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
		traced := closedLoop(1, cfg.timedDuration(), rec, "select", in.timedOp)
		traced.account(r)
		reportOverhead(r, ph, traced)
	}
	if err := in.check(cfg, r, rec); err != nil {
		return nil, err
	}
	if err := rec.write(cfg.tracePath(r.Workload)); err != nil {
		return nil, err
	}
	r.finish()
	return r, nil
}

// check runs the counted sample through the facade view and through the
// native predicate attached to an independently built core corpus — the
// two must agree bit for bit — and checks accuracy. With a recorder the
// two passes are the workload's ladder (R3 over R4).
func (in *libInst) check(cfg config, r *result, rec *recorder) error {
	ctx := context.Background()
	opts := core.SelectOptions{Limit: selectLimit}
	sample := in.ops[:min(cfg.sizes.libSample, len(in.ops))]

	t0 := time.Now()
	cc, err := core.NewCorpus(in.ds.Records, core.DefaultConfig(), core.AllLayers)
	if err != nil {
		return err
	}
	r.set("core.new_corpus_s", time.Since(t0).Seconds())
	r.set("core.tokenize_passes", float64(cc.TokenizePasses()))
	natives := map[string]core.Predicate{}
	for _, name := range expensiveFive {
		t0 = time.Now()
		if natives[name], err = native.Attach(name, cc, cc.Config()); err != nil {
			return err
		}
		r.set("native."+name+".attach_us", float64(time.Since(t0))/1e3)
	}

	hp0 := core.HotPathSnapshot()
	got := make([][]core.Match, len(sample))
	r3 := make([]int64, len(sample))
	for i, op := range sample {
		r3[i], err = rec.timed("R3.corpus", -1, i, func() (err error) {
			got[i], err = core.SelectWithOptions(ctx, in.views[op.predicate], op.query, opts)
			return err
		})
		if err != nil {
			return err
		}
	}
	reportHotPath(r, core.HotPathSnapshot().Sub(hp0))

	dg := newDigest()
	r4 := make([]int64, len(sample))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, op := range sample {
		var want []core.Match
		r4[i], err = rec.timed("R4.native", -1, i, func() (err error) {
			want, err = core.SelectWithOptions(ctx, natives[op.predicate], op.query, opts)
			return err
		})
		if err != nil {
			return err
		}
		r.Attempted++
		if !sameMatches(want, got[i]) {
			r.fail(1, "facade and native answers differ for %s %q", op.predicate, op.query)
		}
		dg.matches(op.predicate, op.query, got[i])
	}
	runtime.ReadMemStats(&m1)
	r.Digest = dg.sum()
	r.setN("approxsel.corpus_select_p50_us", medianNS(r3)/1e3, len(sample))
	r.set("core.allocs_per_select", float64(m1.Mallocs-m0.Mallocs)/float64(len(sample)))
	r.set("core.bytes_per_select", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(len(sample)))
	perPredicate(r, "native.", sample, r4)

	maps, err := accuracy(in.ds, pickQueries(in.ds.Records, cfg.sizes.mapQueries, cfg.seed+3), expensiveFive,
		func(name string) (approxsel.Predicate, error) { return in.views[name], nil })
	if err != nil {
		return err
	}
	checkAccuracy(r, cfg, r.Workload, maps)
	return nil
}
