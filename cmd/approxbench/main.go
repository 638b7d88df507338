// Command approxbench regenerates the paper's accuracy artifacts: the
// tables and figures of Chapter 5 that report MAP or dataset statistics,
// printed as ASCII tables with the paper's reference values noted in each
// title.
//
// Usage:
//
//	approxbench                  # reduced scale (minutes)
//	approxbench -scale 1         # paper scale (5000-tuple datasets, 500 queries)
//	approxbench -exp figure5.1   # a single experiment
//	approxbench -exp list        # the registered realizations and predicates
//
// The timing figures 5.2–5.4 are Go benchmarks in the repository root
// (go test -run '^$' -bench 'Figure5' .). The system's performance and
// correctness benchmark is a separate program: go run ./bench (see
// bench/README.md).
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
	scale := fs.Int("scale", 5, "accuracy scale divisor, at least 1 (1 = paper scale: 5000 tuples, 500 queries)")
	exp := fs.String("exp", "all", "experiment: all, table5.1, table5.3, qgram, table5.5, table5.6, figure5.1, table5.7, figure5.5, figure5.6, ablation.minhash, ablation.q, ablation.dist; or list, which prints the registered realizations and predicates")
	seed := fs.Int64("seed", 1, "generation seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *scale < 1 {
		fmt.Fprintf(stderr, "approxbench: bad -scale %d (want a divisor of at least 1)\n", *scale)
		return 2
	}

	ao := experiments.Scaled(*scale)
	ao.Seed = *seed

	w := stdout
	var err error
	switch strings.ToLower(*exp) {
	case "list":
		fmt.Fprint(w, "realizations:")
		for _, r := range approxsel.Realizations() {
			fmt.Fprintf(w, " %s", r)
		}
		fmt.Fprintln(w)
		fmt.Fprintln(w, "predicates:")
		for _, name := range approxsel.PredicateNames() {
			fmt.Fprintf(w, "  %s\n", name)
		}
	case "all":
		err = experiments.RunAll(w, ao)
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
	case "figure5.5":
		var r experiments.Figure55Result
		if r, err = experiments.Figure55(ao); err == nil {
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
