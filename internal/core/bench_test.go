package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
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

// BenchmarkEngineWalkVsLookup prices the max-score engine's four unit
// operations against each other, per posting or candidate, on lists of 500,
// 4 000 and 30 000 postings spread over 40 000 records: a full walk in
// mid-query (half the records the list names are candidates already, the
// other half become candidates), an update-only walk, a binary-search
// lookup step (64 fresh candidates looked up in the list), and the floor
// scan of kthKey per candidate. lookupStepCost and the scan budget in
// hotpath.go are set from these ratios; the engine's work tally counts in
// the same units.
func BenchmarkEngineWalkVsLookup(b *testing.B) {
	const universe = 40000
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{500, 4000, 30000} {
		picks := rng.Perm(universe)[:n]
		half := slices.Clone(picks[:n/2])
		slices.Sort(picks)
		slices.Sort(half)
		ids, ws := make([]int32, n), make([]float64, n)
		for i, r := range picks {
			ids[i], ws[i] = int32(r), rng.Float64()
		}
		t := &Term{Q: 1.5, Ids: ids, W: ws, MaxW: 1, MinW: 0}
		seen := &Term{Q: 1, Ids: make([]int32, len(half))}
		for i, r := range half {
			seen.Ids[i] = int32(r)
		}
		s := GetScratch(universe)
		per := func(b *testing.B, units int) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(units), "ns/unit")
		}
		b.Run(fmt.Sprintf("full/%d", n), func(b *testing.B) {
			for b.Loop() {
				s.Reset(universe)
				s.walkFull(seen)
				s.walkFull(t)
			}
			per(b, n+n/2)
		})
		b.Run(fmt.Sprintf("update/%d", n), func(b *testing.B) {
			for b.Loop() {
				s.walkUpdateOnly(t)
			}
			per(b, n)
		})
		b.Run(fmt.Sprintf("floor/%d", n), func(b *testing.B) {
			s.Reset(universe)
			s.walkFull(t)
			for b.Loop() {
				s.kthKey(nil, 10)
			}
			per(b, n)
		})
		b.Run(fmt.Sprintf("lookup/%d", n), func(b *testing.B) {
			// Fresh candidates every iteration, or the branch predictor
			// learns the search paths and a step reads five times cheaper
			// than the engine ever sees it.
			x := uint32(2463534242)
			s.touched = s.touched[:64]
			for b.Loop() {
				for i := range s.touched {
					x ^= x << 13
					x ^= x >> 17
					x ^= x << 5
					s.touched[i] = int32(x % universe)
				}
				s.finishByLookup(t)
			}
			per(b, 64*(bits.Len(uint(n))+1))
		})
		s.Release()
	}
}
