package main

import (
	"context"
	"fmt"
	"math"
	"runtime"

	approxsel "repro"
)

// mapFloors are the mean-average-precision floors per check and predicate
// at the reference sizes: the lowest value seen over seeds 1–12 at the
// baseline, minus 0.10 (bench/README.md lists the observations). Over 25
// queries the measure moves by ±0.1 from seed to seed, and the floor must
// hold on seeds nobody has run yet, so it catches a predicate that stopped
// ranking its cluster first, not a small drift; bit-identity with the
// library answers catches the small ones.
var mapFloors = map[string]map[string]float64{
	"decl-sql/declarative": {"BM25": 0.69, "EditDistance": 0.08, "GESJaccard": 0.53, "Jaccard": 0.68, "LM": 0.72, "SoftTFIDF": 0.52},
	"decl-sql/native":      {"BM25": 0.69, "EditDistance": 0.13, "GESJaccard": 0.57, "Jaccard": 0.68, "LM": 0.70, "SoftTFIDF": 0.52},
	"lib-combo":            {"EditDistance": 0.09, "GES": 0.53, "GESJaccard": 0.53, "GESapx": 0.45, "SoftTFIDF": 0.37},
	"serve":                {"BM25": 0.46, "Cosine": 0.33, "HMM": 0.55, "IntersectSize": 0.40, "Jaccard": 0.50, "LM": 0.54, "WeightedJaccard": 0.40, "WeightedMatch": 0.42},
}

// accuracy is the mean average precision of every named predicate over the
// queries, ranking the whole relation (no limit) and counting a query's own
// cluster as relevant.
func accuracy(ds *approxsel.DirtyDataset, queries []approxsel.Record, names []string, attach func(name string) (approxsel.Predicate, error)) (map[string]float64, error) {
	ctx := context.Background()
	out := make(map[string]float64, len(names))
	for _, name := range names {
		p, err := attach(name)
		if err != nil {
			return nil, err
		}
		sum := 0.0
		for _, q := range queries {
			ms, err := approxsel.SelectCtx(ctx, p, q.Text)
			if err != nil {
				return nil, fmt.Errorf("bench: accuracy select %s: %w", name, err)
			}
			relevant := make(map[int]bool)
			for _, tid := range ds.Clusters[ds.Cluster[q.TID]] {
				relevant[tid] = true
			}
			sum += approxsel.AveragePrecision(approxsel.RankedTIDs(ms), relevant)
		}
		out[name] = sum / float64(len(queries))
	}
	return out, nil
}

// checkAccuracy reports eval.map_mean / eval.map_min and fails the run for
// every predicate below its floor. Floors are recorded for the reference
// sizes only; a scaled or test-sized run reports without gating.
func checkAccuracy(r *result, cfg config, label string, maps map[string]float64) {
	if r.Accuracy == nil {
		r.Accuracy = map[string]map[string]float64{}
	}
	r.Accuracy[label] = maps
	mean, min := 0.0, math.Inf(1)
	for name, v := range maps {
		mean += v
		min = math.Min(min, v)
		r.Attempted++
		if floor, ok := mapFloors[label][name]; ok && cfg.reference() && v < floor {
			r.fail(1, "%s: MAP of %s is %.4f, below the floor %.4f", label, name, v, floor)
		}
	}
	mean /= float64(len(maps))
	if prev, ok := r.Metrics["eval.map_min"]; ok {
		// Second realization of the same workload: keep the overall view.
		mean = (mean + r.value("eval.map_mean")) / 2
		min = math.Min(min, prev.Value)
	}
	r.set("eval.map_mean", mean)
	r.set("eval.map_min", min)
}

// heapMiB is the live heap after a forced collection.
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// setupTimes is what one set-up reports: everything before the first timed
// operation, and the share spent inside the system's own build calls.
type setupTimes struct{ total, preprocess float64 }

// repeatSetup sets the workload up n times, tearing down every instance but
// the last, and returns the last instance with the median times. One
// set-up is a single sample of a seconds-long build; the median of a few
// is what repeats across runs.
func repeatSetup[T any](n int, setup func() (T, setupTimes, error), teardown func(T) error) (T, setupTimes, error) {
	var (
		inst          T
		totals, preps []float64
	)
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := teardown(inst); err != nil {
				return inst, setupTimes{}, err
			}
			var zero T
			inst = zero
			runtime.GC()
		}
		var (
			st  setupTimes
			err error
		)
		inst, st, err = setup()
		if err != nil {
			return inst, setupTimes{}, err
		}
		totals, preps = append(totals, st.total), append(preps, st.preprocess)
	}
	return inst, setupTimes{total: medianF(totals), preprocess: medianF(preps)}, nil
}
