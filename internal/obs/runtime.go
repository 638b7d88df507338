package obs

import (
	"runtime"
	"runtime/metrics"
)

// RegisterRuntimeMetrics adds the Go runtime's heap, GC pause and goroutine
// figures to r. Each is read from runtime/metrics when the registry is
// scraped: no timer, and no stop-the-world as with runtime.ReadMemStats.
func RegisterRuntimeMetrics(r *Registry) {
	r.GaugeFunc("approx_go_heap_alloc_bytes", "bytes of heap objects, live or not yet swept",
		func() float64 { return runtimeValue("/memory/classes/heap/objects:bytes") })
	// The runtime counts GC pauses as CPU time, GOMAXPROCS times each pause;
	// dividing by GOMAXPROCS recovers the summed pause latency (exact while
	// GOMAXPROCS does not change).
	r.CounterFunc("approx_go_gc_pause_us_total", "summed stop-the-world GC pause time", func() uint64 {
		return uint64(runtimeValue("/cpu/classes/gc/pause:cpu-seconds") / float64(runtime.GOMAXPROCS(0)) * 1e6)
	})
	r.GaugeFunc("approx_go_goroutines", "live goroutines",
		func() float64 { return runtimeValue("/sched/goroutines:goroutines") })
}

// runtimeValue reads one scalar runtime metric; 0 if this Go release does
// not export it.
func runtimeValue(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch v := s[0].Value; v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	}
	return 0
}
