package experiments

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/dirty"
	"repro/internal/native"
	"repro/internal/store"
)

// BenchmarkSnapshotLoad prices the snapshot round trip of a 5 000-record
// corpus: write is WriteSnapshot alone, load the cold-start restore through
// store.Load, and load+attach that restore followed by attaching all 13
// native predicates, which derives every weight column the segment does
// not store. Each reports the segment's size as segment-bytes; pair with
// -cpuprofile to find hot spots.
func BenchmarkSnapshotLoad(b *testing.B) {
	ds, err := dirty.DBLP(5000, 1)
	if err != nil {
		b.Fatal(err)
	}
	c, err := core.NewCorpus(ds.Records, core.DefaultConfig(), core.AllLayers)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	l, err := store.Create(dir, c)
	if err != nil {
		b.Fatal(err)
	}
	l.Release()
	var seg bytes.Buffer
	if err := c.WriteSnapshot(&seg); err != nil {
		b.Fatal(err)
	}
	size := float64(seg.Len())

	b.Run("write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := c.WriteSnapshot(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(size, "segment-bytes")
	})
	load := func(b *testing.B, attach bool) {
		for i := 0; i < b.N; i++ {
			lc, _, err := store.Load(dir)
			if err != nil {
				b.Fatal(err)
			}
			if !attach {
				continue
			}
			for _, name := range core.PredicateNames {
				if _, err := native.Attach(name, lc, lc.Config()); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(size, "segment-bytes")
	}
	b.Run("load", func(b *testing.B) { load(b, false) })
	b.Run("load+attach", func(b *testing.B) { load(b, true) })
}
