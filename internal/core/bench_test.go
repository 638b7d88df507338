package core

import (
	"fmt"
	"testing"

	"repro/internal/datasets"
)

// benchRecords is a DBLP-title relation of n records with TIDs 1..n.
func benchRecords(n int) []Record {
	titles := datasets.DBLPTitles(n, 7)
	out := make([]Record, len(titles))
	for i, t := range titles {
		out[i] = Record{TID: i + 1, Text: t}
	}
	return out
}

// BenchmarkNewCorpus is the fresh build: assembly with no predecessor.
func BenchmarkNewCorpus(b *testing.B) {
	recs := benchRecords(5000)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := NewCorpus(recs, DefaultConfig(), AllLayers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorpusMutate measures one single-record mutation on an
// all-layers corpus at three sizes. What a write costs must follow the
// delta, not the corpus: ns/op, B/op and allocs/op here are the numbers the
// write path is held to. Deletes and upserts hit the middle of the
// relation, so every position above shifts.
func BenchmarkCorpusMutate(b *testing.B) {
	for _, n := range []int{2500, 10000, 40000} {
		recs := benchRecords(n + 1)
		spare := recs[n]
		c, err := NewCorpus(recs[:n], DefaultConfig(), AllLayers)
		if err != nil {
			b.Fatal(err)
		}
		mid := recs[n/2]
		b.Run(fmt.Sprintf("insert/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if err := c.Insert(spare); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := c.Delete(spare.TID); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
		b.Run(fmt.Sprintf("upsert/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			texts := [2]string{spare.Text, mid.Text}
			i := 0
			for b.Loop() {
				if err := c.Upsert(Record{TID: mid.TID, Text: texts[i%2]}); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
		b.Run(fmt.Sprintf("delete/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				victim := c.Snapshot().Records[n/2]
				if err := c.Delete(victim.TID); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := c.Insert(victim); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
