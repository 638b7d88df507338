package server

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
)

// The server's latency histograms are obs.Histogram: lock-free log2
// buckets where bucket i counts observations v (µs) with
// floor(log2(v))+1 == i, i.e. v ∈ [2^(i-1), 2^i), and quantiles report
// the bucket's exclusive upper bound 2^i. (An earlier comment described
// the bucketing as ceil(log2); the arithmetic was always floor-based —
// bits.Len64 — so the wire-visible /v1/stats values are unchanged, only
// the documentation moved to match the code.)

// HistogramStats is the JSON shape of one predicate's latency histogram.
type HistogramStats struct {
	Count uint64 `json:"count"`
	AvgUS uint64 `json:"avg_us"`
	P50US uint64 `json:"p50_us"`
	P90US uint64 `json:"p90_us"`
	P99US uint64 `json:"p99_us"`
}

func toHistogramStats(s obs.HistogramSnapshot) HistogramStats {
	return HistogramStats{Count: s.Count, AvgUS: s.AvgUS, P50US: s.P50US, P90US: s.P90US, P99US: s.P99US}
}

// metrics aggregates the server-wide counters behind /v1/stats and owns
// the obs registry behind GET /metrics — one unified catalog spanning
// request admission, per-predicate latency, the result cache, the
// selection engine's pruning counters, the durable store, watches and
// (when attached) the replication cluster.
type metrics struct {
	start time.Time
	reg   *obs.Registry

	requests   *obs.Counter // admitted requests
	rejected   *obs.Counter // 429s from admission
	errors     *obs.Counter // non-2xx responses other than 429
	selects    *obs.Counter // /v1/select probes served (approx_select_total)
	staleReads *obs.Counter // reads served with X-Approx-Stale while degraded

	mu          sync.Mutex
	byEndpoint  map[string]*obs.Counter
	endpointDur map[string]*obs.Histogram
	byPredicate map[predSeries]*obs.Histogram
}

func newMetrics() *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		start:       time.Now(),
		reg:         reg,
		requests:    reg.Counter("approx_requests_total", "requests admitted past the in-flight gate"),
		rejected:    reg.Counter("approx_requests_rejected_total", "requests rejected with 429 at admission"),
		errors:      reg.Counter("approx_request_errors_total", "non-2xx responses other than 429"),
		selects:     reg.Counter("approx_select_total", "/v1/select probes served"),
		staleReads:  reg.Counter("approx_degraded_stale_reads_total", "reads served stale-marked while unable to reach a leader"),
		byEndpoint:  make(map[string]*obs.Counter),
		endpointDur: make(map[string]*obs.Histogram),
		byPredicate: make(map[predSeries]*obs.Histogram),
	}

	// Selection engine: the max-score pruning counters (process-wide, the
	// cost the result cache cannot hide).
	reg.CounterFunc("approx_hotpath_queries_total", "engine selections", func() uint64 {
		return core.HotPathSnapshot().Queries
	})
	reg.CounterFunc("approx_hotpath_pruned_queries_total", "engine selections where admission closed early", func() uint64 {
		return core.HotPathSnapshot().PrunedQueries
	})
	reg.CounterFunc("approx_hotpath_lists_total", "posting lists presented to the engine", func() uint64 {
		return core.HotPathSnapshot().Lists
	})
	reg.CounterFunc("approx_hotpath_lists_skipped_total", "posting lists skipped entirely", func() uint64 {
		return core.HotPathSnapshot().ListsSkipped
	})
	reg.CounterFunc("approx_hotpath_postings_skipped_total", "postings in skipped lists", func() uint64 {
		return core.HotPathSnapshot().PostingsSkipped
	})

	// Durable store: WAL append/fsync and snapshot save/load latency
	// (process-wide obs histograms owned by the store package).
	reg.RegisterHistogram("approx_wal_append_us", "WAL append latency (framing + write)", store.WALAppendUS)
	reg.RegisterHistogram("approx_wal_fsync_us", "WAL fsync latency", store.WALFsyncUS)
	reg.RegisterHistogram("approx_snapshot_save_us", "snapshot segment write+fsync latency", store.SnapshotSaveUS)
	reg.RegisterHistogram("approx_snapshot_load_us", "snapshot load (decode + WAL replay scan) latency", store.SnapshotLoadUS)

	// Mutation path: how long writes queue behind one another (tokenize,
	// splice and WAL time are stage aggregates: mutate.* in /v1/stats).
	reg.RegisterHistogram("approx_mutation_lock_wait_us", "time mutations waited for a corpus mutation lock", core.MutationLockWaitUS)

	// Tracing: sampled traces since process start.
	reg.CounterFunc("approx_traces_sampled_total", "requests traced by the sampler", obs.TracesSampled)

	// Go runtime: heap, GC pauses and goroutines, read at scrape time.
	obs.RegisterRuntimeMetrics(reg)

	return m
}

// endpoint returns the per-endpoint request counter, creating and
// registering it on first use.
func (m *metrics) endpoint(name string) *obs.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.byEndpoint[name]
	if !ok {
		c = m.reg.Counter("approx_http_requests_total", "requests by endpoint", obs.Label{Key: "endpoint", Value: name})
		m.byEndpoint[name] = c
	}
	return c
}

// endpointDuration returns the per-endpoint latency histogram.
func (m *metrics) endpointDuration(name string) *obs.Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.endpointDur[name]
	if !ok {
		h = m.reg.Histogram("approx_request_duration_us", "request latency by endpoint", obs.Label{Key: "endpoint", Value: name})
		m.endpointDur[name] = h
	}
	return h
}

// predSeries names one approx_predicate_duration_us series: a hit costs a
// cache lookup and a miss a selection, so they never share a histogram.
type predSeries struct {
	predicate string
	cached    bool
}

// observeSelections records n selections of a predicate that took total
// together — one observation each at the amortized cost, so a batch is not
// a single whole-batch outlier — in the series of their cache outcome.
func (m *metrics) observeSelections(name string, cached bool, total time.Duration, n int) {
	if n == 0 {
		return
	}
	m.mu.Lock()
	key := predSeries{name, cached}
	h, ok := m.byPredicate[key]
	if !ok {
		cache := "miss"
		if cached {
			cache = "hit"
		}
		h = m.reg.Histogram("approx_predicate_duration_us", "selection latency by predicate and cache outcome",
			obs.Label{Key: "predicate", Value: name}, obs.Label{Key: "cache", Value: cache})
		m.byPredicate[key] = h
	}
	m.mu.Unlock()
	per := total / time.Duration(n)
	for i := 0; i < n; i++ {
		h.Observe(per)
	}
}

func (m *metrics) endpointCounts() map[string]uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]uint64, len(m.byEndpoint))
	for k, v := range m.byEndpoint {
		out[k] = v.Value()
	}
	return out
}

// predicateStats is the /v1/stats view: per predicate, the latency of the
// selections that ran (cache hits are counted by the cache block).
func (m *metrics) predicateStats() map[string]HistogramStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]HistogramStats, len(m.byPredicate))
	for k, h := range m.byPredicate {
		if !k.cached {
			out[k.predicate] = toHistogramStats(h.Snapshot())
		}
	}
	return out
}
