package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/native"
	"repro/internal/tokenize"
	"repro/internal/weights"
)

// Figure55Result reproduces Figure 5.5(a): the effect of IDF pruning on
// MAP.
type Figure55Result struct {
	Rates      []float64
	Predicates []string
	// MAP[rateIndex][predIndex]
	MAP [][]float64
}

// Figure55 sweeps the pruning rate over a dirty company dataset.
func Figure55(o Options) (Figure55Result, error) {
	r := Figure55Result{
		Rates:      []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5},
		Predicates: []string{"IntersectSize", "Jaccard", "Cosine", "BM25", "HMM", "LM"},
	}
	spec := specsByName(o, "CU1")[0]
	ds, err := buildDataset(spec, o)
	if err != nil {
		return r, err
	}
	texts, relevant := sampleQueries(ds, o.Queries, o.Seed+spec.P.Seed)
	for _, rate := range r.Rates {
		cfg := o.Config
		cfg.PruneRate = rate
		maps := make([]float64, len(r.Predicates))
		for i, name := range r.Predicates {
			p, err := native.Build(name, ds.Records, cfg)
			if err != nil {
				return r, err
			}
			s, err := measureAccuracy(p, texts, relevant)
			if err != nil {
				return r, err
			}
			maps[i] = s.MAP
		}
		r.MAP = append(r.MAP, maps)
	}
	return r, nil
}

// Print writes the Figure 5.5 reproduction.
func (r Figure55Result) Print(w io.Writer) {
	t := &table{header: append([]string{"rate"}, r.Predicates...)}
	for i, rate := range r.Rates {
		row := []string{fmt.Sprintf("%.1f", rate)}
		for _, v := range r.MAP[i] {
			row = append(row, f3(v))
		}
		t.add(row...)
	}
	t.write(w, "Figure 5.5(a) — MAP vs pruning rate (paper: unweighted predicates gain; weighted stable up to ≈0.3)")
}

// Figure56Result reproduces Figure 5.6: the IDF distribution of 3-grams in
// the CU1 dataset, as a fixed-width histogram.
type Figure56Result struct {
	// BinUpper[i] is the inclusive upper idf bound of bin i.
	BinUpper []float64
	// Count[i] is the number of token occurrences whose gram idf falls in
	// bin i.
	Count []int
	Total int
}

// Figure56 histograms 3-gram IDFs over the CU1 dataset.
func Figure56(o Options) (Figure56Result, error) {
	r := Figure56Result{}
	spec := specsByName(o, "CU1")[0]
	ds, err := buildDataset(spec, o)
	if err != nil {
		return r, err
	}
	docs := make([][]string, len(ds.Records))
	for i, rec := range ds.Records {
		docs[i] = tokenize.QGrams(rec.Text, 3)
	}
	c := weights.Build(docs)
	minIDF, maxIDF := math.Inf(1), math.Inf(-1)
	idfOf := map[string]float64{}
	for _, doc := range docs {
		for _, t := range doc {
			if _, ok := idfOf[t]; !ok {
				v := c.IDF(t)
				idfOf[t] = v
				if v < minIDF {
					minIDF = v
				}
				if v > maxIDF {
					maxIDF = v
				}
			}
		}
	}
	const bins = 10
	width := (maxIDF - minIDF) / bins
	if width == 0 {
		width = 1
	}
	r.BinUpper = make([]float64, bins)
	r.Count = make([]int, bins)
	for i := 0; i < bins; i++ {
		r.BinUpper[i] = minIDF + width*float64(i+1)
	}
	for _, doc := range docs {
		for _, t := range doc {
			bin := int((idfOf[t] - minIDF) / width)
			if bin >= bins {
				bin = bins - 1
			}
			r.Count[bin]++
			r.Total++
		}
	}
	return r, nil
}

// Print writes the Figure 5.6 reproduction with a text bar chart.
func (r Figure56Result) Print(w io.Writer) {
	t := &table{header: []string{"idf ≤", "tokens", ""}}
	maxCount := 1
	for _, c := range r.Count {
		if c > maxCount {
			maxCount = c
		}
	}
	for i, up := range r.BinUpper {
		bar := strings.Repeat("#", r.Count[i]*40/maxCount)
		t.add(fmt.Sprintf("%.2f", up), fmt.Sprint(r.Count[i]), bar)
	}
	t.write(w, fmt.Sprintf("Figure 5.6 — IDF distribution of 3-grams on CU1 (%d token occurrences; paper: heavy low-IDF mass)", r.Total))
}
