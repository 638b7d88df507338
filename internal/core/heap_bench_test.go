package core_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dirty"
)

// liveHeap is the heap in use after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BenchmarkCorpusHeap builds an all-layers corpus over 20 000 dirty DBLP
// titles, with no predicate attached, and reports the heap the snapshot
// retains after two collections as MiB-retained. It lives in the external
// test package because the dirty generator imports core.
func BenchmarkCorpusHeap(b *testing.B) {
	ds, err := dirty.DBLP(20000, 1)
	if err != nil {
		b.Fatal(err)
	}
	var retained float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		before := liveHeap()
		b.StartTimer()
		c, err := core.NewCorpus(ds.Records, core.DefaultConfig(), core.AllLayers)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		retained += float64(liveHeap()) - float64(before)
		runtime.KeepAlive(c)
		b.StartTimer()
	}
	b.ReportMetric(retained/float64(b.N)/(1<<20), "MiB-retained")
}
