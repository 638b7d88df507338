package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	approxsel "repro"
	"repro/internal/core"
	"repro/internal/native"
	"repro/internal/obs"
	"repro/internal/server/cache"
)

// traced is the traced half of a serve run: the timed loop again with a
// span per operation and the product's own tracer at 1-in-1, then the read
// ladder over the seeded sample — the same operations entered at
// successively deeper public entry points.
func (in *serveInst) traced(cfg config, r *result, rec *recorder, untraced phase) error {
	prev := obs.TraceSampling()
	obs.ResetStageAggregates()
	obs.SetTraceSampling(1)
	ph := closedLoop(maxClients, cfg.timedDuration(), rec, "select", in.timedOp)
	obs.SetTraceSampling(prev)
	ph.account(r)
	reportOverhead(r, untraced, ph)
	st, err := in.sv.stats()
	if err != nil {
		return err
	}
	for _, name := range stageNames {
		r.setN("obs.stage."+name+".avg_us", float64(st.Trace.Stages[name].AvgUS), int(st.Trace.Stages[name].Count))
	}

	sample := in.ladderOps(cfg.sizes.sampleOps)
	handler := in.sv.srv.Handler()
	direct := func(body []byte) error {
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/select", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			return fmt.Errorf("bench: handler status %d: %s", w.Code, bytes.TrimSpace(w.Body.Bytes()))
		}
		return nil
	}
	sizes := make([]int64, len(sample))
	rungs := []rung{
		{"R0.http", func(i int) error {
			_, n, err := in.sv.selectOnce(selectBody(sample[i]))
			sizes[i] = int64(n)
			return err
		}},
	}
	keyUS, getUS, putUS := in.cacheCosts()
	r.set("cache.key_us", keyUS)
	r.set("cache.get_us", getUS)
	r.set("cache.put_us", putUS)
	if in.hot {
		rungs = append(rungs, rung{"R1.handler", func(i int) error { return direct(selectBody(sample[i])) }})
		lat, err := climb(r, rec, len(sample), rungs)
		if err != nil {
			return err
		}
		p0, p1 := medianNS(lat[0])/1e3, medianNS(lat[1])/1e3
		r.setN("server.http_self_us", medianGapUS(lat[0], lat[1]), len(sample))
		r.setN("server.resp_bytes_p50", medianNS(sizes), len(sample))
		// A hit never goes below the cache: the handler's self time is
		// everything but the key and the lookup.
		r.setN("server.handler_self_us", p1-keyUS-getUS, len(sample))
		fmt.Fprintf(cfg.out, " ladder: R0 %.1f us, R1 %.1f us over %d sampled ops (untraced select_p50_us %.1f)\n",
			p0, p1, len(sample), r.value("select_p50_us"))
		return nil
	}

	// The rungs below the server, each over its own freshly built corpus of
	// the same relation. R1 enters a second corpus of the same server: R0
	// has just cached the operation on the first, and every rung must miss.
	ctx := context.Background()
	opts := core.SelectOptions{Limit: selectLimit}
	if err := in.sv.srv.AddCorpus("ladder", in.ds.Records); err != nil {
		return err
	}
	t0 := time.Now()
	sharded, err := approxsel.OpenShardedCorpus(in.ds.Records, serveShards)
	if err != nil {
		return err
	}
	r.set("approxsel.open_sharded_s", time.Since(t0).Seconds())
	t0 = time.Now()
	plain, err := approxsel.OpenCorpus(in.ds.Records)
	if err != nil {
		return err
	}
	r.set("approxsel.open_corpus_s", time.Since(t0).Seconds())
	t0 = time.Now()
	cc, err := core.NewCorpus(in.ds.Records, core.DefaultConfig(), core.AllLayers)
	if err != nil {
		return err
	}
	r.set("core.new_corpus_s", time.Since(t0).Seconds())
	r.set("core.tokenize_passes", float64(cc.TokenizePasses()))

	shardedViews, plainViews, nativeViews := map[string]core.Predicate{}, map[string]core.Predicate{}, map[string]core.Predicate{}
	for _, name := range engineEight {
		if shardedViews[name], err = sharded.Predicate(name); err != nil {
			return err
		}
		if plainViews[name], err = plain.Predicate(name); err != nil {
			return err
		}
		t0 = time.Now()
		if nativeViews[name], err = native.Attach(name, cc, cc.Config()); err != nil {
			return err
		}
		r.set("native."+name+".attach_us", float64(time.Since(t0))/1e3)
		// Attach the server-side view of the second corpus before timing.
		if err := direct(selectBodyOn("ladder", selectOp{predicate: name, query: sample[0].query + " "})); err != nil {
			return err
		}
	}
	probe := func(views map[string]core.Predicate) func(i int) error {
		return func(i int) error {
			_, err := core.SelectWithOptions(ctx, views[sample[i].predicate], sample[i].query, opts)
			return err
		}
	}
	rungs = append(rungs,
		rung{"R1.handler", func(i int) error { return direct(selectBodyOn("ladder", sample[i])) }},
		rung{"R2.sharded", probe(shardedViews)},
		rung{"R3.corpus", probe(plainViews)},
		rung{"R4.native", probe(nativeViews)},
	)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	lat, err := climb(r, rec, len(sample), rungs)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	var p [5]float64
	for k := range p {
		p[k] = medianNS(lat[k]) / 1e3
	}
	r.setN("server.http_self_us", medianGapUS(lat[0], lat[1]), len(sample))
	r.setN("server.resp_bytes_p50", medianNS(sizes), len(sample))
	r.setN("server.handler_self_us", medianGapUS(lat[1], lat[2]), len(sample))
	r.setN("approxsel.sharded_select_p50_us", p[2], len(sample))
	r.setN("approxsel.corpus_select_p50_us", p[3], len(sample))
	if p[2] > 0 {
		r.set("approxsel.fanout_gain", p[3]/p[2])
	}
	perPredicate(r, "native.", sample, lat[4])
	fmt.Fprintf(cfg.out, " ladder: R0 %.1f us, R1 %.1f us, R2 %.1f us, R3 %.1f us, R4 %.1f us over %d sampled ops (untraced select_p50_us %.1f)\n",
		p[0], p[1], p[2], p[3], p[4], len(sample), r.value("select_p50_us"))

	// Allocation per native select and the k-way merge alone, single
	// goroutine: the ladder's rungs allocate side by side.
	lists := make([][]core.Match, len(sample))
	runtime.ReadMemStats(&m0)
	for i := range sample {
		if lists[i], err = core.SelectWithOptions(ctx, nativeViews[sample[i].predicate], sample[i].query, opts); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	r.set("core.allocs_per_select", float64(m1.Mallocs-m0.Mallocs)/float64(len(sample)))
	r.set("core.bytes_per_select", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(len(sample)))
	const rounds = 50
	t0 = time.Now()
	for n := 0; n < rounds; n++ {
		for i := 1; i < len(lists); i++ {
			core.MergeRanked([][]core.Match{lists[i-1], lists[i]}, selectLimit)
		}
	}
	if n := rounds * (len(lists) - 1); n > 0 {
		r.set("core.merge_ranked_us", float64(time.Since(t0))/1e3/float64(n))
	}
	return nil
}

// rung is one entry point of a ladder.
type rung struct {
	name string
	call func(i int) error
}

// ladderChunk is how many operations enter one rung before the next rung
// takes the same operations.
const ladderChunk = 50

// climb sends n sampled operations up a ladder, a chunk at a time: the
// chunk's operations enter the first rung, then the same operations the
// next, and so on. Rungs thus alternate every few tens of milliseconds —
// their difference is a layer's self time, not the machine's drift between
// two long passes — while an operation's second visit comes a whole chunk
// later, and the rungs take turns at being a chunk's first. Each chunk
// is shared by maxClients closed-loop clients, the workload's own load
// model, so a rung carries the contention of the timed phase it explains
// and none of the wake-up latency of an idle machine. It returns per-rung
// latencies in operation order.
func climb(r *result, rec *recorder, n int, rungs []rung) ([][]int64, error) {
	lat := make([][]int64, len(rungs))
	for k := range lat {
		lat[k] = make([]int64, n)
	}
	for lo := 0; lo < n; lo += ladderChunk {
		hi := min(lo+ladderChunk, n)
		for t := range rungs {
			// Rotate which rung sees a chunk first, so that no rung is
			// always the one that finds the chunk's lists cold.
			k := (lo/ladderChunk + t) % len(rungs)
			rg := rungs[k]
			ph := closedLoop(maxClients, time.Hour, nil, rg.name, func(c, j int) (bool, error) {
				i := lo + j*maxClients + c
				if i >= hi {
					return false, errStop
				}
				d, err := rec.timed(rg.name, -1, i, func() error { return rg.call(i) })
				lat[k][i] = d
				return false, err
			})
			r.Attempted += ph.ops
			if ph.errs > 0 {
				return nil, fmt.Errorf("bench: ladder %s: %w", rg.name, ph.firstErr)
			}
		}
	}
	return lat, nil
}

// reportOverhead sets the tracing overhead: traced over untraced median
// latency of the same closed loop.
func reportOverhead(r *result, untraced, traced phase) {
	whole := func(p phase) float64 { return windowed(p.clients, 1, latencyUS(0.50)).value }
	if u := whole(untraced); u > 0 {
		r.set("obs.trace_overhead_ratio", whole(traced)/u)
	}
}

// perPredicate sets <prefix><P>.select_p50_us from one rung's latencies.
func perPredicate(r *result, prefix string, sample []selectOp, lat []int64) {
	by := map[string][]int64{}
	for i, op := range sample {
		by[op.predicate] = append(by[op.predicate], lat[i])
	}
	for name, ls := range by {
		r.setN(prefix+name+".select_p50_us", medianNS(ls)/1e3, len(ls))
	}
}

// cacheCosts times cache.Key, Get and Put directly on an LRU of the
// product's capacity filled with the workload's own keys; microseconds
// per call. The lookups hit on the hot workload and miss on the cold one
// (its first capacity's worth of keys has been evicted by the second), as
// in the timed phase.
func (in *serveInst) cacheCosts() (keyUS, getUS, putUS float64) {
	pool := in.keys
	if !in.hot {
		pool = in.ops[:min(len(in.ops), 2*cacheEntries)]
	}
	epochs := make([]uint64, serveShards)
	value := []core.Match{{TID: 1, Score: 1}}
	keys := make([]string, len(pool))
	t0 := time.Now()
	for i, op := range pool {
		keys[i] = cache.Key("main", op.predicate, string(approxsel.Native), selectLimit, 0, false, epochs, op.query)
	}
	keyUS = float64(time.Since(t0)) / 1e3 / float64(len(pool))
	lru := cache.New[[]core.Match](cacheEntries)
	t0 = time.Now()
	for _, k := range keys {
		lru.Put(k, value)
	}
	putUS = float64(time.Since(t0)) / 1e3 / float64(len(keys))
	looked := keys[:min(len(keys), cacheEntries)]
	t0 = time.Now()
	for _, k := range looked {
		lru.Get(k)
	}
	getUS = float64(time.Since(t0)) / 1e3 / float64(len(looked))
	return keyUS, getUS, putUS
}
