// Command approxbench regenerates the paper's evaluation artifacts: every
// table and figure of Chapter 5, printed as ASCII tables with the paper's
// reference values noted in each title.
//
// Usage:
//
//	approxbench                  # reduced scale (minutes)
//	approxbench -scale 1         # paper scale (5000-tuple datasets, 500 queries)
//	approxbench -exp figure5.3   # a single experiment
//	approxbench -impl native     # measure the in-memory realization instead
//
// The system's performance and correctness benchmark is a separate program:
// go run ./bench (see bench/README.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	approxsel "repro"
	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the tool with explicit arguments and streams, so tests can
// drive it end to end.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("approxbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Int("scale", 5, "accuracy scale divisor (1 = paper scale: 5000 tuples, 500 queries)")
	perfSize := fs.Int("perfsize", 2000, "relation size for Figures 5.2/5.3 (paper: 10000)")
	perfSizes := fs.String("perfsizes", "1000,2000,4000", "comma-separated sizes for Figure 5.4 (paper: 10000..100000)")
	perfQueries := fs.Int("perfqueries", 20, "timed queries per performance point (paper: 100)")
	impl := fs.String("impl", "declarative", "realization measured by performance experiments: declarative|native")
	exp := fs.String("exp", "all", "experiment: all, table5.1, table5.3, qgram, table5.5, table5.6, figure5.1, table5.7, figure5.2, figure5.3, figure5.4, figure5.5, figure5.6, ablation.minhash, ablation.impl, ablation.q, ablation.dist")
	seed := fs.Int64("seed", 1, "generation seed")
	list := fs.Bool("list", false, "list the registered predicates and realizations, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *impl != "declarative" && *impl != "native" {
		fmt.Fprintf(stderr, "approxbench: bad -impl %q (want declarative or native)\n", *impl)
		return 2
	}

	if *list {
		fmt.Fprint(stdout, "realizations:")
		for _, r := range approxsel.Realizations() {
			fmt.Fprintf(stdout, " %s", r)
		}
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "predicates:")
		for _, name := range approxsel.PredicateNames() {
			fmt.Fprintf(stdout, "  %s\n", name)
		}
		return 0
	}

	ao := experiments.Scaled(*scale)
	ao.Seed = *seed
	po := experiments.PerfDefaults()
	po.Size = *perfSize
	po.Queries = *perfQueries
	po.Seed = *seed
	po.Impl = *impl
	po.Sizes = nil
	for _, s := range strings.Split(*perfSizes, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &n); err != nil {
			fmt.Fprintf(stderr, "approxbench: bad -perfsizes entry %q\n", s)
			return 2
		}
		po.Sizes = append(po.Sizes, n)
	}

	w := stdout
	var err error
	switch strings.ToLower(*exp) {
	case "all":
		err = experiments.RunAll(w, ao, po)
	case "table5.1":
		experiments.Table51(ao).Print(w)
	case "table5.3":
		var r experiments.Table53Result
		if r, err = experiments.Table53(ao); err == nil {
			r.Print(w)
		}
	case "qgram":
		var r experiments.QGramSizeResult
		if r, err = experiments.QGramSize(ao); err == nil {
			r.Print(w)
		}
	case "table5.5":
		var r experiments.AccuracyByDataset
		if r, err = experiments.Table55(ao); err == nil {
			experiments.PrintTable55(r, w)
		}
	case "table5.6":
		var r experiments.AccuracyByDataset
		if r, err = experiments.Table56(ao); err == nil {
			experiments.PrintTable56(r, w)
		}
	case "figure5.1":
		var r experiments.Figure51Result
		if r, err = experiments.Figure51(ao); err == nil {
			r.Print(w)
		}
	case "table5.7":
		var r experiments.Table57Result
		if r, err = experiments.Table57(ao); err == nil {
			r.Print(w)
		}
	case "figure5.2":
		var r experiments.Figure52Result
		if r, err = experiments.Figure52(po); err == nil {
			r.Print(w)
		}
	case "figure5.3":
		var r experiments.Figure53Result
		if r, err = experiments.Figure53(po); err == nil {
			r.Print(w)
		}
	case "figure5.4":
		var r experiments.Figure54Result
		if r, err = experiments.Figure54(po); err == nil {
			r.Print(w)
		}
	case "figure5.5":
		var r experiments.Figure55Result
		if r, err = experiments.Figure55(ao, po); err == nil {
			r.Print(w)
		}
	case "figure5.6":
		var r experiments.Figure56Result
		if r, err = experiments.Figure56(ao); err == nil {
			r.Print(w)
		}
	case "ablation.minhash":
		var r experiments.MinHashKResult
		if r, err = experiments.AblationMinHashK(ao); err == nil {
			r.Print(w)
		}
	case "ablation.impl":
		var r experiments.ImplOverheadResult
		if r, err = experiments.AblationImplOverhead(po); err == nil {
			r.Print(w)
		}
	case "ablation.q":
		var r experiments.QSweepResult
		if r, err = experiments.AblationQSweep(ao); err == nil {
			r.Print(w)
		}
	case "ablation.dist":
		var r experiments.DistributionResult
		if r, err = experiments.AblationDistributions(ao); err == nil {
			r.Print(w)
		}
	default:
		fmt.Fprintf(stderr, "approxbench: unknown experiment %q\n", *exp)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "approxbench: %v\n", err)
		return 1
	}
	return 0
}
