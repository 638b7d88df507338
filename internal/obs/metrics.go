// Package obs is the zero-dependency telemetry substrate of the serving
// stack: a metrics registry with Prometheus text exposition (counters,
// gauges, log2-bucketed latency histograms), a sampled low-overhead span
// tracer with a top-N slow-query log, and process-wide per-stage latency
// aggregates. Every subsystem (server, sharded fan-out, hot-path engine,
// cache, store, watch) reports through it, so one /metrics scrape
// and one slow-query span tree answer "where did that request spend its
// time".
//
// Cost contract: with tracing disabled (the process default), every
// tracing entry point is a single atomic load and performs no allocations
// — cheap enough for the selection hot path, as asserted by the engine's
// allocation test. Metric observation is always-on and lock-free (two to
// three atomic adds).
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ---- scalar metrics ----

// Counter is a monotonically increasing uint64 metric.
type Counter struct{ v atomic.Uint64 }

// NewCounter returns a standalone counter; register it with
// Registry.RegisterCounter to expose it.
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores the value.
func (g *Gauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return floatFromBits(g.bits.Load()) }

// numBuckets is the histogram's bucket count: bucket indexes are
// floor(log2(µs))+1, so 32 buckets cover every latency below ~35 minutes.
const numBuckets = 32

// Histogram is a lock-free log2-bucketed latency histogram: bucket i
// counts observations v (in µs) with floor(log2(v))+1 == i, i.e.
// v ∈ [2^(i-1), 2^i); bucket 0 counts v == 0. Quantile estimates are
// accurate to a factor of two — plenty for spotting regressions — while
// observation is two atomic adds on the hot path.
type Histogram struct {
	count   atomic.Uint64
	sumUS   atomic.Uint64
	buckets [numBuckets]atomic.Uint64
}

// NewHistogram returns a standalone histogram; register it with
// Registry.RegisterHistogram to expose it.
func NewHistogram() *Histogram { return &Histogram{} }

// BucketOf returns the bucket index of a µs observation: 0 for v == 0,
// otherwise bits.Len64(v) — which is floor(log2(v))+1, so bucket i spans
// [2^(i-1), 2^i).
func BucketOf(us uint64) int {
	if us == 0 {
		return 0
	}
	b := bits.Len64(us)
	if b >= numBuckets {
		b = numBuckets - 1
	}
	return b
}

// BucketBound returns the exclusive upper bound (µs) of bucket i — the
// value Quantile reports when the target observation lands in bucket i.
// Consistent with BucketOf: every v in bucket i satisfies v < 2^i (i > 0);
// bucket 0 holds only v == 0, bounded by 1.
func BucketBound(i int) uint64 {
	if i <= 0 {
		return 1
	}
	return uint64(1) << i
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveUS(uint64(d.Microseconds())) }

// ObserveUS records one µs observation.
func (h *Histogram) ObserveUS(us uint64) {
	h.count.Add(1)
	h.sumUS.Add(us)
	h.buckets[BucketOf(us)].Add(1)
}

// Quantile returns an upper bound (the bucket's exclusive upper boundary)
// for the q-quantile observation in microseconds.
func (h *Histogram) Quantile(q float64) uint64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var seen uint64
	for i := 0; i < numBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen > target {
			return BucketBound(i)
		}
	}
	return BucketBound(numBuckets - 1)
}

// HistogramSnapshot is a point-in-time summary of a histogram.
type HistogramSnapshot struct {
	Count uint64
	SumUS uint64
	AvgUS uint64
	P50US uint64
	P90US uint64
	P99US uint64
}

// Snapshot summarizes the histogram. A histogram with zero observations
// reports all-zero quantiles.
func (h *Histogram) Snapshot() HistogramSnapshot {
	n := h.count.Load()
	s := HistogramSnapshot{Count: n, SumUS: h.sumUS.Load()}
	if n > 0 {
		s.AvgUS = s.SumUS / n
		s.P50US = h.Quantile(0.50)
		s.P90US = h.Quantile(0.90)
		s.P99US = h.Quantile(0.99)
	}
	return s
}

// ---- registry ----

// Label is one name=value pair attached to a metric child.
type Label struct{ Key, Value string }

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// child is one registered (metric, label set) series.
type child struct {
	labels string // rendered {k="v",...}, "" for none
	metric any    // *Counter / *Gauge / *Histogram; nil for func metrics
	write  func(w io.Writer, name, labels string)
}

// family groups every child of one metric name.
type family struct {
	name, help string
	kind       metricKind
	children   []*child
	byLabels   map[string]*child
}

// Registry holds named metrics and writes them in Prometheus text
// exposition format. Registration methods are create-or-get: registering
// the same (name, labels) twice returns the same instance, and registering
// one name with two kinds panics (a programming error, like a duplicate
// flag).
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
	// order preserves registration order of families for stable exposition.
	order []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return true
}

// renderLabels serializes a label set as {k="v",...} with Prometheus label
// value escaping; labels are emitted in the given order.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double quote, and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// register resolves the family and child slot for (name, labels), creating
// them as needed; build is called to construct the child only on first
// registration.
func (r *Registry) register(name, help string, kind metricKind, labels []Label, build func() *child) *child {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l.Key) {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %q", l.Key, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, byLabels: make(map[string]*child)}
		r.fams[name] = f
		r.order = append(r.order, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, f.kind))
	}
	key := renderLabels(labels)
	if c, ok := f.byLabels[key]; ok {
		return c
	}
	c := build()
	c.labels = key
	f.byLabels[key] = c
	f.children = append(f.children, c)
	return c
}

// Counter registers (or returns the existing) counter under name with the
// given labels.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.RegisterCounter(name, help, NewCounter(), labels...)
}

// RegisterCounter exposes an existing counter instance (e.g. a package
// level subsystem counter) under name. If the (name, labels) series is
// already registered, the registered instance wins and is returned.
func (r *Registry) RegisterCounter(name, help string, c *Counter, labels ...Label) *Counter {
	ch := r.register(name, help, kindCounter, labels, func() *child {
		return &child{metric: c, write: func(w io.Writer, n, l string) {
			fmt.Fprintf(w, "%s%s %d\n", n, l, c.Value())
		}}
	})
	return ch.metric.(*Counter)
}

// Gauge registers (or returns the existing) gauge under name.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	ch := r.register(name, help, kindGauge, labels, func() *child {
		return &child{metric: g, write: func(w io.Writer, n, l string) {
			fmt.Fprintf(w, "%s%s %s\n", n, l, formatFloat(g.Value()))
		}}
	})
	return ch.metric.(*Gauge)
}

// GaugeFunc registers a gauge whose value is read from f at exposition
// time — the bridge for counters owned elsewhere (hot-path pruning stats,
// cache occupancy).
func (r *Registry) GaugeFunc(name, help string, f func() float64, labels ...Label) {
	r.register(name, help, kindGauge, labels, func() *child {
		return &child{write: func(w io.Writer, n, l string) {
			fmt.Fprintf(w, "%s%s %s\n", n, l, formatFloat(f()))
		}}
	})
}

// CounterFunc registers a counter whose value is read from f at exposition
// time.
func (r *Registry) CounterFunc(name, help string, f func() uint64, labels ...Label) {
	r.register(name, help, kindCounter, labels, func() *child {
		return &child{write: func(w io.Writer, n, l string) {
			fmt.Fprintf(w, "%s%s %d\n", n, l, f())
		}}
	})
}

// Histogram registers (or returns the existing) histogram under name.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	return r.RegisterHistogram(name, help, NewHistogram(), labels...)
}

// RegisterHistogram exposes an existing histogram instance under name. If
// the (name, labels) series is already registered, the registered instance
// wins and is returned.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram, labels ...Label) *Histogram {
	ch := r.register(name, help, kindHistogram, labels, func() *child {
		return &child{metric: h, write: func(w io.Writer, n, l string) {
			writeHistogram(w, n, l, h)
		}}
	})
	return ch.metric.(*Histogram)
}

// writeHistogram emits the cumulative _bucket/_sum/_count triplet of one
// histogram series. Buckets are emitted up to the highest non-empty one
// (plus +Inf), keeping the exposition compact.
func writeHistogram(w io.Writer, name, labels string, h *Histogram) {
	// Load a consistent-enough view: counts first, then per-bucket.
	total := h.count.Load()
	var counts [numBuckets]uint64
	top := 0
	for i := 0; i < numBuckets; i++ {
		counts[i] = h.buckets[i].Load()
		if counts[i] > 0 {
			top = i
		}
	}
	// Merge the le label into an existing label set.
	le := func(bound string) string {
		if labels == "" {
			return `{le="` + bound + `"}`
		}
		return labels[:len(labels)-1] + `,le="` + bound + `"}`
	}
	var cum uint64
	for i := 0; i <= top; i++ {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, le(fmt.Sprintf("%d", BucketBound(i))), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, le("+Inf"), total)
	fmt.Fprintf(w, "%s_sum%s %d\n", name, labels, h.sumUS.Load())
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, total)
}

// WritePrometheus writes every registered metric in Prometheus text
// exposition format (version 0.0.4). Families appear in registration
// order; children within a family are sorted by label set for a stable
// scrape.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.order))
	copy(fams, r.order)
	// Snapshot children under the lock; the writes themselves only read
	// atomics (or call gauge funcs, which must not re-enter the registry).
	type famSnap struct {
		name, help string
		kind       metricKind
		children   []*child
	}
	snaps := make([]famSnap, len(fams))
	for i, f := range fams {
		cs := make([]*child, len(f.children))
		copy(cs, f.children)
		sort.Slice(cs, func(a, b int) bool { return cs[a].labels < cs[b].labels })
		snaps[i] = famSnap{name: f.name, help: f.help, kind: f.kind, children: cs}
	}
	r.mu.Unlock()

	for _, f := range snaps {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, c := range f.children {
			c.write(w, f.name, c.labels)
		}
	}
	return nil
}

// formatFloat renders a float without exponent noise for integral values.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
