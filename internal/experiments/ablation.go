package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/declarative"
	"repro/internal/dirty"
	"repro/internal/native"
)

// Ablation experiments for the design choices of this reproduction. These go
// beyond the paper's tables but quantify claims it makes in prose.

// MinHashKResult sweeps the GESapx signature size. §5.4.1: "A small number
// of min hash signatures results in significant accuracy loss" while
// "increasing the number ... takes more time without having a significant
// impact on accuracy".
type MinHashKResult struct {
	Ks         []int
	MAP        []float64
	Preprocess []time.Duration
	GESJaccard float64 // the K→∞ reference: exact Jaccard filtering
}

// AblationMinHashK measures GESapx accuracy and preprocessing cost as the
// signature size grows, on the CU1 dataset.
func AblationMinHashK(o Options) (MinHashKResult, error) {
	r := MinHashKResult{Ks: []int{1, 2, 5, 10, 20}}
	spec := specsByName(o, "CU1")[0]
	ds, err := buildDataset(spec, o)
	if err != nil {
		return r, err
	}
	texts, relevant := sampleQueries(ds, o.Queries, o.Seed+spec.P.Seed)

	jac, err := native.Build("GESJaccard", ds.Records, o.Config)
	if err != nil {
		return r, err
	}
	s, err := measureAccuracy(jac, texts, relevant)
	if err != nil {
		return r, err
	}
	r.GESJaccard = s.MAP

	for _, k := range r.Ks {
		cfg := o.Config
		cfg.MinHashK = k
		start := time.Now()
		p, err := native.Build("GESapx", ds.Records, cfg)
		if err != nil {
			return r, err
		}
		r.Preprocess = append(r.Preprocess, time.Since(start))
		s, err := measureAccuracy(p, texts, relevant)
		if err != nil {
			return r, err
		}
		r.MAP = append(r.MAP, s.MAP)
	}
	return r, nil
}

// Print writes the min-hash ablation table.
func (r MinHashKResult) Print(w io.Writer) {
	t := &table{header: []string{"K", "MAP", "preprocess"}}
	for i, k := range r.Ks {
		t.add(fmt.Sprint(k), f3(r.MAP[i]), r.Preprocess[i].Round(time.Millisecond).String())
	}
	t.add("GESJaccard (exact)", f3(r.GESJaccard), "")
	t.write(w, "Ablation — GESapx min-hash signature size on CU1 (§5.4.1: small K loses accuracy, large K only costs time)")
}

// ImplOverheadResult compares the declarative (SQL) realization with the
// native one: the cost of declarativity the paper's introduction frames as
// the price of ease of deployment.
type ImplOverheadResult struct {
	Predicates  []string
	Native      []time.Duration
	Declarative []time.Duration
	Size        int
}

// AblationImplOverhead times both realizations on identical workloads.
func AblationImplOverhead(o PerfOptions) (ImplOverheadResult, error) {
	names := []string{"IntersectSize", "Jaccard", "Cosine", "BM25", "HMM", "LM"}
	r := ImplOverheadResult{Predicates: names, Size: o.Size}
	ds, err := dblpDataset(o.Size, o.Seed)
	if err != nil {
		return r, err
	}
	texts, _ := sampleQueries(ds, o.Queries, o.Seed+3)
	src, err := newPredicateSource("native", ds.Records, o.Config)
	if err != nil {
		return r, err
	}
	for _, name := range names {
		np, err := src.build(name, o.Config)
		if err != nil {
			return r, err
		}
		nd, err := timeQueries(np, texts)
		if err != nil {
			return r, err
		}
		r.Native = append(r.Native, nd)

		dp, err := declarative.Build(name, ds.Records, o.Config)
		if err != nil {
			return r, err
		}
		dd, err := timeQueries(dp, texts)
		if err != nil {
			return r, err
		}
		r.Declarative = append(r.Declarative, dd)
	}
	return r, nil
}

// Print writes the realization-overhead table.
func (r ImplOverheadResult) Print(w io.Writer) {
	t := &table{header: []string{"predicate", "native", "declarative", "ratio"}}
	for i, name := range r.Predicates {
		ratio := float64(r.Declarative[i]) / float64(maxDuration(r.Native[i], 1))
		t.add(name, r.Native[i].Round(time.Microsecond).String(),
			r.Declarative[i].Round(time.Microsecond).String(),
			fmt.Sprintf("%.1fx", ratio))
	}
	t.write(w, fmt.Sprintf("Ablation — query time: declarative (SQL) vs native realization, %d records", r.Size))
}

func maxDuration(d time.Duration, floor time.Duration) time.Duration {
	if d > floor {
		return d
	}
	return floor
}

// QSweepResult extends the §5.3.3 study to a wider q range, an extension
// the paper hints at ("the accuracy further drops for higher values of q").
type QSweepResult struct {
	Qs         []int
	Predicates []string
	MAP        [][]float64
}

// AblationQSweep measures MAP for q ∈ {1,2,3,4} on the dirty class.
func AblationQSweep(o Options) (QSweepResult, error) {
	r := QSweepResult{Qs: []int{1, 2, 3, 4}, Predicates: []string{"Jaccard", "Cosine", "HMM", "BM25"}}
	specs := specsByName(o, "CU1", "CU2")
	for _, q := range r.Qs {
		opt := o
		opt.Config.Q = q
		sums := make([]float64, len(r.Predicates))
		for _, spec := range specs {
			res, err := datasetAccuracy(spec, r.Predicates, opt)
			if err != nil {
				return r, err
			}
			for i, name := range r.Predicates {
				sums[i] += res[name].MAP
			}
		}
		row := make([]float64, len(sums))
		for i := range sums {
			row[i] = sums[i] / float64(len(specs))
		}
		r.MAP = append(r.MAP, row)
	}
	return r, nil
}

// Print writes the q sweep table.
func (r QSweepResult) Print(w io.Writer) {
	t := &table{header: append([]string{"q"}, r.Predicates...)}
	for i, q := range r.Qs {
		row := []string{fmt.Sprint(q)}
		for _, v := range r.MAP[i] {
			row = append(row, f3(v))
		}
		t.add(row...)
	}
	t.write(w, "Ablation — MAP vs q over {1,2,3,4} on the dirty class (paper: accuracy drops beyond q=2)")
}

// DistributionResult checks §5.1's claim that the accuracy trend is stable
// across duplicate distributions: the same error configuration is generated
// with uniform, Zipfian and Poisson duplicate allocation.
type DistributionResult struct {
	Distributions []string
	Predicates    []string
	MAP           [][]float64 // [distIndex][predIndex]
}

// AblationDistributions measures MAP under each duplicate distribution.
func AblationDistributions(o Options) (DistributionResult, error) {
	r := DistributionResult{
		Distributions: []string{"uniform", "zipfian", "poisson"},
		Predicates:    []string{"Jaccard", "BM25", "HMM", "SoftTFIDF"},
	}
	dists := []dirty.Distribution{dirty.Uniform, dirty.Zipfian, dirty.Poisson}
	for di, dist := range dists {
		spec := specsByName(o, "CU5")[0]
		spec.P.Dist = dist
		spec.P.Seed += int64(1000 * (di + 1))
		res, err := datasetAccuracy(spec, r.Predicates, o)
		if err != nil {
			return r, err
		}
		row := make([]float64, len(r.Predicates))
		for i, name := range r.Predicates {
			row[i] = res[name].MAP
		}
		r.MAP = append(r.MAP, row)
	}
	return r, nil
}

// Print writes the distribution ablation table.
func (r DistributionResult) Print(w io.Writer) {
	t := &table{header: append([]string{"distribution"}, r.Predicates...)}
	for i, d := range r.Distributions {
		row := []string{d}
		for _, v := range r.MAP[i] {
			row = append(row, f3(v))
		}
		t.add(row...)
	}
	t.write(w, "Ablation — MAP per duplicate distribution on the CU5 configuration (§5.1: trends are distribution-stable)")
}
