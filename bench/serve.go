package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	approxsel "repro"
	"repro/internal/core"
	"repro/internal/server"
)

// serveShards pins the shard count: the product default is GOMAXPROCS,
// which would make hosts incomparable.
const serveShards = 2

// cacheEntries is the product's default result-cache capacity
// (server.Config.CacheEntries == 0); the cold workload fills it before
// timing so the LRU evicts from the first timed request on.
const cacheEntries = 4096

// serveInst is one set-up serve workload: the relation, the server behind
// its loopback listener, and the seeded operation lists.
type serveInst struct {
	hot bool
	ds  *approxsel.DirtyDataset
	sv  *served

	// Hot: the key population in popularity order with pre-marshaled
	// request bodies, each key's warm-pass (cache miss) answer, and one
	// zipf index list per client.
	keys   []selectOp
	bodies [][]byte
	missed [][]core.Match
	zipf   [][]int32

	// Cold: every (predicate, query) pair once, in seeded order:
	// ops[:sample] is the counted sample, ops[sample:2*sample] the ladder's,
	// ops[2*sample:timed] the untimed cache fill, ops[timed:] the timed list.
	ops    []selectOp
	sample int
	timed  int

	// next counts each client's timed operations, so a second timed phase
	// continues the lists where the first stopped.
	next [maxClients]int
}

func (in *serveInst) close() error {
	if in == nil || in.sv == nil {
		return nil
	}
	return in.sv.close()
}

// setupServe builds the relation and the server, generates the operation
// lists and runs the untimed warm pass.
func setupServe(cfg config, hot bool) (*serveInst, setupTimes, error) {
	sz := cfg.sizes
	t0 := time.Now()
	ds, err := dataset(cfg.scaled(sz.serveRecords), cfg.seed)
	if err != nil {
		return nil, setupTimes{}, err
	}
	sv, err := startServer(server.Config{Shards: serveShards})
	if err != nil {
		return nil, setupTimes{}, err
	}
	in := &serveInst{hot: hot, ds: ds, sv: sv}
	tp := time.Now()
	if err := sv.srv.AddCorpus("main", ds.Records); err != nil {
		in.close()
		return nil, setupTimes{}, err
	}
	prep := time.Since(tp)

	if hot {
		queries := pickQueries(ds.Records, sz.hotQueries, cfg.seed+1)
		in.keys = crossOps(engineEight, queries, cfg.seed+2)
		in.bodies = make([][]byte, len(in.keys))
		for i, k := range in.keys {
			in.bodies[i] = selectBody(k)
		}
		in.missed = make([][]core.Match, len(in.keys))
		for c := 0; c < maxClients; c++ {
			in.zipf = append(in.zipf, zipfIndexes(len(in.keys), sz.zipfOps, 1.3, cfg.seed+10+int64(c)))
		}
		err = in.warm(len(in.keys), func(i int) error {
			resp, _, err := sv.selectOnce(in.bodies[i])
			if err == nil && resp.Cached {
				err = fmt.Errorf("bench: warm pass answer of key %d came from the cache", i)
			}
			in.missed[i] = wireMatches(resp.Matches)
			return err
		})
	} else {
		queries := pickQueries(ds.Records, len(ds.Records), cfg.seed+1)
		in.ops = crossOps(engineEight, queries, cfg.seed+2)
		in.sample = min(sz.sampleOps, len(in.ops)/8)
		fill := min(cacheEntries, len(in.ops)/4)
		in.timed = 2*in.sample + fill
		err = in.warm(fill, func(i int) error {
			_, _, err := sv.selectOnce(selectBody(in.ops[2*in.sample+i]))
			return err
		})
	}
	if err != nil {
		in.close()
		return nil, setupTimes{}, err
	}
	return in, setupTimes{total: time.Since(t0).Seconds(), preprocess: prep.Seconds()}, nil
}

// warm issues n untimed requests from maxClients goroutines.
func (in *serveInst) warm(n int, do func(i int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for c := 0; c < maxClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += maxClients {
				if err := do(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return first
}

// timedOp is the closed-loop operation of the timed phase.
func (in *serveInst) timedOp(c, _ int) (bool, error) {
	i := in.next[c]
	in.next[c]++
	var body []byte
	if in.hot {
		list := in.zipf[c]
		body = in.bodies[list[i%len(list)]]
	} else {
		span := len(in.ops) - in.timed
		body = selectBody(in.ops[in.timed+(i*maxClients+c)%span])
	}
	resp, _, err := in.sv.selectOnce(body)
	return resp.Cached, err
}

// sampleOps is the seeded fixed-length sample of the counted pass: every
// tenth operation of client 0's list on the hot workload (repeats included,
// as in the workload), a reserved distinct prefix on the cold one.
func (in *serveInst) sampleOps(n int) []selectOp {
	if !in.hot {
		return in.ops[:min(n, in.sample)]
	}
	out := make([]selectOp, 0, n)
	for j := 0; j < n && j*10 < len(in.zipf[0]); j++ {
		out = append(out, in.keys[in.zipf[0][j*10]])
	}
	return out
}

// ladderOps is the sample the traced run's ladder enters at every rung. On
// the cold workload it is a second reserved prefix: every rung must miss,
// and the counted pass has cached its own.
func (in *serveInst) ladderOps(n int) []selectOp {
	if in.hot {
		return in.sampleOps(n)
	}
	return in.ops[in.sample:min(in.sample+n, 2*in.sample)]
}

func (in *serveInst) keyIndex() map[selectOp]int {
	idx := make(map[selectOp]int, len(in.keys))
	for i, k := range in.keys {
		idx[k] = i
	}
	return idx
}

const serveWindows = 5

// reportSelects turns a timed phase into the select metrics.
func reportSelects(r *result, p phase, windows int, tail bool) {
	perWindow := (p.ops - p.errs) / windows
	r.setStat("select_qps", windowed(p.clients, windows, throughput))
	r.setStat("select_p50_us", windowed(p.clients, windows, latencyUS(0.50)))
	r.setPercentile("select_p95_us", 0.95, windowed(p.clients, windows, latencyUS(0.95)), perWindow)
	if tail {
		r.setPercentile("select_p99_us", 0.99, windowed(p.clients, windows, latencyUS(0.99)), perWindow)
	}
}

func runServe(cfg config, hot bool) (*result, error) {
	name := "serve-cold"
	if hot {
		name = "serve-hot"
	}
	r := newResult(name, cfg)
	in, st, err := repeatSetup(cfg.setups(false), func() (*serveInst, setupTimes, error) { return setupServe(cfg, hot) }, (*serveInst).close)
	if err != nil {
		return nil, err
	}
	defer in.close()
	r.set("setup_s", st.total)
	r.set("preprocess_s", st.preprocess)
	r.set("heap_mb", heapMiB())

	before, err := in.sv.stats()
	if err != nil {
		return nil, err
	}
	ph := closedLoop(maxClients, cfg.timedDuration(), nil, "select", in.timedOp)
	ph.account(r)
	reportSelects(r, ph, serveWindows, true)
	after, err := in.sv.stats()
	if err != nil {
		return nil, err
	}
	if done := ph.ops - ph.errs; done > 0 {
		r.set("cache.hit_ratio", float64(ph.cached)/float64(done))
	}
	r.set("server.rejected", float64(after.Rejected-before.Rejected))
	r.set("server.errors", float64(after.Errors-before.Errors))

	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
		if err := in.traced(cfg, r, rec, ph); err != nil {
			return nil, err
		}
	}
	if err := in.check(cfg, r); err != nil {
		return nil, err
	}
	if err := rec.write(cfg.tracePath(name)); err != nil {
		return nil, err
	}
	r.finish()
	return r, nil
}

// check is the untimed counted pass and the correctness checks: the served
// miss, the served hit and the library answer of every sampled operation
// must be bit-identical, and every predicate must keep its accuracy.
func (in *serveInst) check(cfg config, r *result) error {
	sample := in.sampleOps(cfg.sizes.sampleOps)
	before, err := in.sv.stats()
	if err != nil {
		return err
	}
	hp0 := core.HotPathSnapshot()
	idx := map[selectOp]int{}
	if in.hot {
		idx = in.keyIndex()
	}
	served := make([][]core.Match, len(sample))
	for i, op := range sample {
		body := selectBody(op)
		r.Attempted++
		first, _, err := in.sv.selectOnce(body)
		if err != nil {
			r.fail(1, "check select: %v", err)
			continue
		}
		served[i] = wireMatches(first.Matches)
		miss := served[i]
		if in.hot {
			// The miss answer is the warm pass's; this one must be a hit.
			miss = in.missed[idx[op]]
			if !first.Cached {
				r.fail(1, "hot key %s answered uncached after the warm pass", op.predicate)
			}
		} else {
			if first.Cached {
				r.fail(1, "cold operation %d answered from the cache on first use", i)
			}
			r.Attempted++
			again, _, err := in.sv.selectOnce(body)
			if err != nil || !again.Cached {
				r.fail(1, "cold operation %d repeated: cached=%v err=%v", i, again.Cached, err)
				continue
			}
			served[i] = wireMatches(again.Matches)
		}
		if !sameMatches(miss, served[i]) {
			r.fail(1, "served miss and served hit differ for %s %q", op.predicate, op.query)
		}
	}
	hp := core.HotPathSnapshot().Sub(hp0)
	after, err := in.sv.stats()
	if err != nil {
		return err
	}
	r.set("cache.evictions", float64(after.Cache.Evictions-before.Cache.Evictions))
	r.set("cache.entries", float64(after.Cache.Entries))
	reportHotPath(r, hp)

	// The library answer: an independent corpus sharded the same way, so
	// scores must agree to the last bit.
	ref, err := approxsel.OpenShardedCorpus(in.ds.Records, serveShards)
	if err != nil {
		return err
	}
	views := map[string]approxsel.Predicate{}
	attach := func(name string) (approxsel.Predicate, error) {
		if p, ok := views[name]; ok {
			return p, nil
		}
		p, err := ref.Predicate(name)
		views[name] = p
		return p, err
	}
	dg := newDigest()
	ctx := context.Background()
	for i, op := range sample {
		if served[i] == nil {
			continue
		}
		p, err := attach(op.predicate)
		if err != nil {
			return err
		}
		r.Attempted++
		want, err := approxsel.SelectCtx(ctx, p, op.query, approxsel.Limit(selectLimit))
		if err != nil {
			return err
		}
		if !sameMatches(want, served[i]) {
			r.fail(1, "served and library answers differ for %s %q", op.predicate, op.query)
		}
		dg.matches(op.predicate, op.query, served[i])
	}
	r.Digest = dg.sum()

	maps, err := accuracy(in.ds, pickQueries(in.ds.Records, cfg.sizes.mapQueries, cfg.seed+3), engineEight, attach)
	if err != nil {
		return err
	}
	checkAccuracy(r, cfg, "serve", maps)
	return nil
}

// reportHotPath sets the engine's pruning counters over the counted pass.
func reportHotPath(r *result, hp core.HotPathStats) {
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	r.set("core.hotpath_queries", float64(hp.Queries))
	r.set("core.lists_total", float64(hp.Lists))
	r.set("core.postings_skipped", float64(hp.PostingsSkipped))
	r.set("core.lists_skipped_ratio", ratio(hp.ListsSkipped, hp.Lists))
	r.set("core.lists_update_only_ratio", ratio(hp.ListsUpdateOnly, hp.Lists))
	r.set("core.pruned_query_ratio", ratio(hp.PrunedQueries, hp.Queries))
}
