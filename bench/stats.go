package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"

	"repro/internal/core"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending-sorted sample; 0 for an empty one.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// beyond is the number of samples strictly above the nearest-rank
// p-quantile position. A percentile is trustworthy only with at least
// minBeyond samples beyond it; the report says so when it has fewer.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(p*float64(n)))
}

const minBeyond = 10

func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func medianNS(xs []int64) float64 {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return medianF(fs)
}

// medianGapUS is the median of the per-operation differences a[i]-b[i], in
// µs: a layer's self time from two rungs that timed the same operations.
// Pairing cancels what makes one operation slower than the next.
func medianGapUS(a, b []int64) float64 {
	d := make([]int64, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return medianNS(d) / 1e3
}

// clientSamples is one closed-loop client's timed operations in issue
// order: start offsets from the phase start and latencies, nanoseconds.
type clientSamples struct {
	start []int64
	lat   []int64
}

// windowStat is one statistic over the timed phase: the value reported
// (the median window, or the whole run when windows == 1), the extreme
// windows as the printed spread, and the total sample count.
type windowStat struct {
	value, min, max float64
	n               int
}

// windowed cuts every client's samples into `windows` consecutive
// equal-count slices, evaluates f on the union of the clients' w-th slices,
// and reports the median window. Cutting per client keeps a window
// contiguous in time for each client of the closed loop.
func windowed(clients []clientSamples, windows int, f func(w []clientSamples) float64) windowStat {
	vals := make([]float64, 0, windows)
	total := 0
	for _, c := range clients {
		total += len(c.lat)
	}
	for w := 0; w < windows; w++ {
		part := make([]clientSamples, 0, len(clients))
		for _, c := range clients {
			lo, hi := len(c.lat)*w/windows, len(c.lat)*(w+1)/windows
			if hi > lo {
				part = append(part, clientSamples{start: c.start[lo:hi], lat: c.lat[lo:hi]})
			}
		}
		if len(part) > 0 {
			vals = append(vals, f(part))
		}
	}
	st := windowStat{n: total}
	if len(vals) == 0 {
		return st
	}
	st.value, st.min, st.max = medianF(vals), vals[0], vals[0]
	for _, v := range vals {
		st.min, st.max = math.Min(st.min, v), math.Max(st.max, v)
	}
	return st
}

// latencyUS returns the window function of the p-quantile latency in µs.
func latencyUS(p float64) func([]clientSamples) float64 {
	return func(w []clientSamples) float64 {
		var all []int64
		for _, c := range w {
			all = append(all, c.lat...)
		}
		return float64(percentile(sortedCopy(all), p)) / 1e3
	}
}

// throughput is the window function of completed operations per second:
// each client's count over the wall time its slice spans, summed over the
// clients (they run concurrently).
func throughput(w []clientSamples) float64 {
	qps := 0.0
	for _, c := range w {
		last := len(c.lat) - 1
		span := c.start[last] + c.lat[last] - c.start[0]
		if span > 0 {
			qps += float64(len(c.lat)) / (float64(span) / 1e9)
		}
	}
	return qps
}

// digest accumulates a workload's result digest: every checked result is
// folded in as (predicate, query, TIDs, score bits) in a fixed order, so
// two runs of the same seed on two commits can be compared by one string.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) str(s string) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
	d.h.Write(n[:])
	d.h.Write([]byte(s))
}

func (d *digest) u64(v uint64) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], v)
	d.h.Write(n[:])
}

func (d *digest) matches(predicate, query string, ms []core.Match) {
	d.str(predicate)
	d.str(query)
	d.u64(uint64(len(ms)))
	for _, m := range ms {
		d.u64(uint64(int64(m.TID)))
		d.u64(math.Float64bits(m.Score))
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// sameMatches reports bit-identity: same TIDs, same score bits, same order.
func sameMatches(a, b []core.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].TID != b[i].TID || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}
