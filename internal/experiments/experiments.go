// Package experiments regenerates the accuracy tables and figures of the
// paper's evaluation chapter (Ch. 5) and the statistics of Figure 5.6. Each
// experiment has a typed result so tests and the approxbench binary can
// assert on the reproduced shape, plus a printer producing a paper-style
// ASCII table.
//
// Every experiment runs the native realization. Its agreement with the
// declarative one is checked by TestDifferentialNativeVsDeclarative in
// internal/declarative, and only that far: 60 records × 7 queries, plain
// Select, one Config. The GES normaliser is the known exception:
// GESJaccard and GESapx disagree between the realizations on any query
// that repeats a word, so their MAP here is the native realization's.
//
// The timing figures (5.2–5.4) are not here. They are Go benchmarks in the
// repository root: go test -run '^$' -bench 'Figure5' .
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/dirty"
	"repro/internal/eval"
	"repro/internal/native"
)

// Options configure an experiment run.
type Options struct {
	// Size is the number of tuples per accuracy dataset (paper: 5000).
	Size int
	// NumClean is the number of clean source tuples (paper: 500).
	NumClean int
	// Queries is the number of random selection queries per accuracy
	// measurement (paper: 500).
	Queries int
	// Seed drives all data generation and query sampling.
	Seed int64
	// Config holds predicate parameters; zero-value means DefaultConfig.
	Config core.Config
}

// Defaults returns the paper-scale options.
func Defaults() Options {
	return Options{
		Size:     5000,
		NumClean: 500,
		Queries:  500,
		Seed:     1,
		Config:   core.DefaultConfig(),
	}
}

// Scaled returns options shrunk by the given divisor, for quick runs and
// benchmarks (the accuracy trend is stable under scaling, §5.1).
func Scaled(div int) Options {
	o := Defaults()
	if div <= 1 {
		return o
	}
	o.Size /= div
	o.NumClean /= div
	o.Queries /= div
	if o.NumClean < 10 {
		o.NumClean = 10
	}
	if o.Size < 10*o.NumClean {
		o.Size = 10 * o.NumClean
	}
	if o.Queries < 20 {
		o.Queries = 20
	}
	return o
}

// DatasetSpec names one benchmark dataset of Table 5.3.
type DatasetSpec struct {
	Name  string
	Class string // Dirty, Medium, Low, or "-" for the F datasets
	P     dirty.Params
}

// CompanySpecs returns the thirteen Table 5.3 configurations (CU1–CU8 and
// F1–F5) at the requested scale. Every CU dataset uses 20% token swap and
// 50% abbreviation error.
func CompanySpecs(o Options) []DatasetSpec {
	cu := func(name, class string, erroneous, extent float64, seedOff int64) DatasetSpec {
		return DatasetSpec{Name: name, Class: class, P: dirty.Params{
			Size: o.Size, NumClean: o.NumClean, Dist: dirty.Uniform,
			ErroneousPct: erroneous, ErrorExtent: extent,
			TokenSwapPct: 0.20, AbbrPct: 0.50, Seed: o.Seed + seedOff,
		}}
	}
	f := func(name string, erroneous, extent, swap, abbr float64, seedOff int64) DatasetSpec {
		return DatasetSpec{Name: name, Class: "-", P: dirty.Params{
			Size: o.Size, NumClean: o.NumClean, Dist: dirty.Uniform,
			ErroneousPct: erroneous, ErrorExtent: extent,
			TokenSwapPct: swap, AbbrPct: abbr, Seed: o.Seed + seedOff,
		}}
	}
	return []DatasetSpec{
		cu("CU1", "Dirty", 0.90, 0.30, 101),
		cu("CU2", "Dirty", 0.50, 0.30, 102),
		cu("CU3", "Medium", 0.30, 0.30, 103),
		cu("CU4", "Medium", 0.10, 0.30, 104),
		cu("CU5", "Medium", 0.90, 0.10, 105),
		cu("CU6", "Medium", 0.50, 0.10, 106),
		cu("CU7", "Low", 0.30, 0.10, 107),
		cu("CU8", "Low", 0.10, 0.10, 108),
		f("F1", 0.50, 0, 0, 0.50, 111),
		f("F2", 0.50, 0, 0.20, 0, 112),
		f("F3", 0.50, 0.10, 0, 0, 113),
		f("F4", 0.50, 0.20, 0, 0, 114),
		f("F5", 0.50, 0.30, 0, 0, 115),
	}
}

// buildDataset generates one benchmark dataset from the company source.
func buildDataset(spec DatasetSpec, o Options) (*dirty.Dataset, error) {
	clean := datasets.CompanyNames(maxInt(o.NumClean*2, 400), o.Seed)
	return dirty.Generate(clean, datasets.Abbreviations(), spec.P)
}

// sampleQueries draws n random records (clean and erroneous alike, §5.2)
// from the dataset, returning their texts and relevant TID sets.
func sampleQueries(ds *dirty.Dataset, n int, seed int64) ([]string, []map[int]bool) {
	rng := rand.New(rand.NewSource(seed))
	texts := make([]string, 0, n)
	relevant := make([]map[int]bool, 0, n)
	for i := 0; i < n; i++ {
		rec := ds.Records[rng.Intn(len(ds.Records))]
		texts = append(texts, rec.Text)
		rel := make(map[int]bool)
		for _, tid := range ds.Clusters[ds.Cluster[rec.TID]] {
			rel[tid] = true
		}
		relevant = append(relevant, rel)
	}
	return texts, relevant
}

// measureAccuracy runs one predicate over a query workload.
func measureAccuracy(p core.Predicate, texts []string, relevant []map[int]bool) (eval.Summary, error) {
	var acc eval.Accumulator
	for i, q := range texts {
		ms, err := p.Select(q)
		if err != nil {
			return eval.Summary{}, fmt.Errorf("%s.Select: %w", p.Name(), err)
		}
		ranked := make([]int, len(ms))
		for j, m := range ms {
			ranked[j] = m.TID
		}
		acc.Add(ranked, relevant[i])
	}
	return acc.Summary(), nil
}

// datasetAccuracy evaluates a set of predicates on one dataset.
func datasetAccuracy(spec DatasetSpec, names []string, o Options) (map[string]eval.Summary, error) {
	ds, err := buildDataset(spec, o)
	if err != nil {
		return nil, err
	}
	texts, relevant := sampleQueries(ds, o.Queries, o.Seed+spec.P.Seed)
	// One shared corpus per dataset: the predicate suite attaches to a
	// single tokenization/statistics pass instead of re-preprocessing the
	// relation once per predicate.
	corpus, err := core.NewCorpus(ds.Records, o.Config, core.AllLayers)
	if err != nil {
		return nil, err
	}
	out := make(map[string]eval.Summary, len(names))
	for _, name := range names {
		p, err := native.Attach(name, corpus, o.Config)
		if err != nil {
			return nil, err
		}
		s, err := measureAccuracy(p, texts, relevant)
		if err != nil {
			return nil, err
		}
		out[name] = s
	}
	return out, nil
}

// ---- small ASCII table writer ----

type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer, title string) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	fmt.Fprintf(w, "\n%s\n", title)
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
