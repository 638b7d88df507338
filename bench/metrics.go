package main

import (
	"fmt"
	"sort"
)

// metricDef names one metric of the benchmark. The catalog below is the
// single source of the names, units and bounds: BENCHMARK.json must agree
// with it (a test checks that), and -compare gates with its bounds.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the baseline median by which the metric may get
	// worse before -compare reports a regression; 0 means reported, ungated.
	bound float64
	// universal marks the end-to-end metrics every workload reports: the
	// end_to_end list of BENCHMARK.json. The other end-to-end metrics apply
	// to some workloads only, so BENCHMARK.json lists them under per_layer
	// (its contract wants every end_to_end metric from every workload);
	// -compare still gates them where they are reported.
	universal bool
}

// endToEnd is what a user of the system sees, per operation and per run.
// Every timing carries the widest bound the contract allows: on the 2-core
// sandbox the baseline was measured in, the machine's own speed drifts by
// 10–30% for seconds at a time (bench/README.md, baseline), and a bound
// inside that drift would gate the neighbours, not the change.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, universal: true},
	{name: "preprocess_s", unit: "s", better: "lower", bound: 0.25, universal: true},
	{name: "select_qps", unit: "ops/s", better: "higher", bound: 0.25, universal: true},
	{name: "select_p50_us", unit: "us", better: "lower", bound: 0.25, universal: true},
	{name: "select_p95_us", unit: "us", better: "lower", bound: 0.25, universal: true},
	{name: "heap_mb", unit: "MiB", better: "lower", bound: 0.10, universal: true},
	{name: "select_p99_us", unit: "us", better: "lower", bound: 0.25},
	{name: "write_ops_s", unit: "ops/s", better: "higher", bound: 0.25},
	{name: "write_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "write_p95_us", unit: "us", better: "lower", bound: 0.25},
	{name: "reopen_s", unit: "s", better: "lower", bound: 0.25},
	{name: "disk_amp", unit: "ratio", better: "lower", bound: 0.05},
	{name: "fail_ratio", unit: "ratio", better: "lower", bound: 0},
}

// stageNames are the span stages the program aggregates on its own
// (internal/obs), read back from /v1/stats in the traced run.
var stageNames = []string{
	"admit", "cache.lookup", "cache.fill", "fanout", "shard.select", "merge",
	"engine.accumulate", "engine.materialize", "apply",
}

// perLayer lists the per-layer metrics, layer = module name. A workload
// reports 0 for a metric of a layer it does not measure.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{name: name, unit: unit, better: "lower"} }
	higher := func(name, unit string) metricDef { return metricDef{name: name, unit: unit, better: "higher"} }
	defs := []metricDef{
		lower("server.http_self_us", "us"),
		lower("server.handler_self_us", "us"),
		lower("server.resp_bytes_p50", "bytes"),
		lower("server.rejected", "count"),
		lower("server.errors", "count"),
		higher("cache.hit_ratio", "ratio"),
		lower("cache.evictions", "count"),
		lower("cache.entries", "count"),
		lower("cache.key_us", "us"),
		lower("cache.get_us", "us"),
		lower("cache.put_us", "us"),
		lower("approxsel.sharded_select_p50_us", "us"),
		lower("approxsel.corpus_select_p50_us", "us"),
		higher("approxsel.fanout_gain", "ratio"),
		lower("approxsel.open_sharded_s", "s"),
		lower("approxsel.open_corpus_s", "s"),
		lower("approxsel.view_rebuild_us", "us"),
	}
	for _, p := range append(append([]string(nil), engineEight...), expensiveFive...) {
		defs = append(defs, lower("native."+p+".select_p50_us", "us"), lower("native."+p+".attach_us", "us"))
	}
	defs = append(defs,
		lower("core.lists_total", "count"),
		higher("core.lists_skipped_ratio", "ratio"),
		higher("core.lists_update_only_ratio", "ratio"),
		higher("core.postings_skipped", "count"),
		higher("core.pruned_query_ratio", "ratio"),
		lower("core.hotpath_queries", "count"),
		lower("core.allocs_per_select", "count"),
		lower("core.bytes_per_select", "bytes"),
		lower("core.merge_ranked_us", "us"),
		lower("core.new_corpus_s", "s"),
		lower("core.tokenize_passes", "count"),
		lower("core.mutate_insert_p50_us", "us"),
		lower("core.mutate_upsert_p50_us", "us"),
		lower("core.mutate_delete_p50_us", "us"),
		lower("core.delta_tokenize_us", "us"),
		lower("core.assemble_share", "ratio"),
		lower("store.wal_self_us", "us"),
		lower("store.wal_bytes_per_mutation", "bytes"),
		lower("store.wal_entries", "count"),
		lower("store.fsyncs", "count"),
		lower("store.checkpoint_s", "s"),
		lower("store.segment_bytes", "bytes"),
		lower("store.load_s", "s"),
		lower("store.replay_s", "s"),
		lower("watch.derive_us_per_mutation", "us"),
		lower("watch.events_emitted", "count"),
	)
	for _, p := range declSix {
		defs = append(defs,
			lower("declarative."+p+".tokenize_s", "s"),
			lower("declarative."+p+".weights_s", "s"),
			lower("declarative."+p+".select_p50_us", "us"),
			lower("declarative."+p+".vs_native", "ratio"),
		)
	}
	defs = append(defs,
		lower("sqldb.bulk_insert_us_per_krow", "us"),
		lower("sqldb.create_index_us", "us"),
		lower("sqldb.insert_select_groupby_us", "us"),
		lower("sqldb.token_join_us", "us"),
		lower("obs.trace_overhead_ratio", "ratio"),
	)
	for _, s := range stageNames {
		defs = append(defs, lower("obs.stage."+s+".avg_us", "us"))
	}
	defs = append(defs, higher("eval.map_mean", "ratio"), higher("eval.map_min", "ratio"))
	return defs
}

// contractEndToEnd and contractPerLayer are the two metric lists of
// BENCHMARK.json: what the last output line carries with -trace 0 and
// with -trace 1.
func contractEndToEnd() []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if d.universal {
			out = append(out, d)
		}
	}
	return out
}

func contractPerLayer() []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if !d.universal {
			out = append(out, d)
		}
	}
	return append(out, perLayer...)
}

func metricByName(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.name == name {
			return d, true
		}
	}
	for _, d := range perLayer {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// exactCounts are the program-made counts -compare requires to be equal on
// both sides: they come from the fixed-length counted pass of a run, never
// from the time-bounded phase, so they repeat exactly for one seed.
var exactCounts = map[string]bool{
	"cache.evictions": true, "cache.entries": true,
	"core.lists_total": true, "core.postings_skipped": true, "core.hotpath_queries": true,
	"core.lists_skipped_ratio": true, "core.lists_update_only_ratio": true, "core.pruned_query_ratio": true,
	"core.tokenize_passes": true,
	"store.wal_entries":    true, "watch.events_emitted": true,
	"server.rejected": true, "server.errors": true,
}

func exactCountNames() []string {
	names := make([]string, 0, len(exactCounts))
	for n := range exactCounts {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// measured is one reported value with what is known about its sample.
type measured struct {
	Value float64 `json:"value"`
	// N is the sample count behind a timing; Min/Max the extreme windows
	// (serve workloads) printed as spread. Zero when not applicable.
	N   int     `json:"n,omitempty"`
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`
}

// result is everything one run of one workload reports.
type result struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Seconds   float64             `json:"seconds"`
	Trace     bool                `json:"trace"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Correct   bool                `json:"correct"`
	Digest    string              `json:"digest"`
	Metrics   map[string]measured `json:"metrics"`
	// Accuracy is the mean average precision per check label and predicate.
	Accuracy map[string]map[string]float64 `json:"accuracy,omitempty"`
	// Notes flag numbers to read with care, such as a thin percentile.
	Notes []string `json:"notes,omitempty"`
	// Failures lists what failed, for the human reading the run.
	Failures []string `json:"failures,omitempty"`
}

func newResult(workload string, cfg config) *result {
	return &result{Workload: workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Metrics: map[string]measured{}}
}

// put stores a metric; a name outside the catalog is a bug in the benchmark.
func (r *result) put(name string, m measured) {
	if _, ok := metricByName(name); !ok {
		panic(fmt.Sprintf("bench: metric %q is not in the catalog", name))
	}
	r.Metrics[name] = m
}

func (r *result) set(name string, v float64) { r.put(name, measured{Value: v}) }

func (r *result) setN(name string, v float64, n int) { r.put(name, measured{Value: v, N: n}) }

func (r *result) setStat(name string, st windowStat) {
	r.put(name, measured{Value: st.value, N: st.n, Min: st.min, Max: st.max})
}

// setPercentile sets a latency percentile (µs) of n samples and notes when
// fewer than minBeyond samples lie beyond it.
func (r *result) setPercentile(name string, p float64, st windowStat, n int) {
	r.setStat(name, st)
	if b := beyond(n, p); b < minBeyond {
		r.Notes = append(r.Notes, fmt.Sprintf("%s rests on %d samples with only %d beyond it (want %d)", name, n, b, minBeyond))
	}
}

func (r *result) value(name string) float64 { return r.Metrics[name].Value }

// fail records failed operations or checks.
func (r *result) fail(n int, format string, args ...any) {
	r.Failed += n
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// finish derives fail_ratio and the verdict.
func (r *result) finish() {
	if r.Attempted < 1 {
		r.Attempted = 1
	}
	r.set("fail_ratio", float64(r.Failed)/float64(r.Attempted))
	r.Correct = r.Failed == 0
}
