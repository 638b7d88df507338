package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

// BenchmarkSnapshotLoad times the cold-start restore path of a 5 000-record
// corpus; pair with -cpuprofile to find decode hot spots.
func BenchmarkSnapshotLoad(b *testing.B) {
	ds, err := dblpDataset(5000, 1)
	if err != nil {
		b.Fatal(err)
	}
	c, err := core.NewCorpus(ds.Records, core.DefaultConfig(), core.AllLayers)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if err := store.Save(dir, c); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := store.Load(dir); err != nil {
			b.Fatal(err)
		}
	}
}
