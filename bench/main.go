// Command bench is the repository's reference benchmark: five closed-loop
// workloads over the paper's dirty DBLP relation, each reporting the
// end-to-end metrics a user sees, per-layer metrics measured from outside
// by timing calls into each layer's public functions, and the correctness
// of every answer it timed. bench/README.md describes the workloads and
// which layer should move which number; BENCHMARK.json is the contract a
// driver runs it by:
//
//	go run ./bench -workload serve-cold -seed 1 -seconds 8 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// sizes are the record and operation counts of the workloads. The
// reference values are fixed; tests shrink them, -scale multiplies the
// record counts for exploratory sweeps.
type sizes struct {
	serveRecords int // serve-hot and serve-cold relation
	hotQueries   int // distinct queries of serve-hot, times eight predicates
	zipfOps      int // length of each client's zipf list (cycled if outrun)
	libRecords   int // lib-combo relation
	libQueries   int // distinct queries of lib-combo, times five predicates
	writeRecords int // write-durable relation
	writePool    int // records held back for inserts and upsert texts
	snapshotAt   int // write-durable checkpoints after this many mutations
	declRecords  int // decl-sql relation
	declQueries  int // distinct queries of decl-sql, times six predicates
	sampleOps    int // counted pass / ladder sample of the serve workloads
	libSample    int // counted pass / ladder sample of lib-combo
	declSample   int // cross-realization sample of decl-sql
	ladderWrites int // mutations of the write ladder
	probeQueries int // write-durable state probe
	mapQueries   int // accuracy queries per predicate
	declMapQuery int // accuracy queries per declarative predicate
	setups       int // set-ups per run (median reported)
	quickSetups  int // the same for workloads that set up in well under a second
}

var referenceSizes = sizes{
	serveRecords: 20000, hotQueries: 400, zipfOps: 1 << 18,
	libRecords: 5000, libQueries: 200,
	writeRecords: 5000, writePool: 4000, snapshotAt: 60,
	declRecords: 2000, declQueries: 40,
	sampleOps: 400, libSample: 100, declSample: 60, ladderWrites: 20, probeQueries: 64,
	mapQueries: 25, declMapQuery: 12,
	setups: 3, quickSetups: 15,
}

type config struct {
	seed    int64
	seconds float64
	trace   bool
	scale   float64
	sizes   sizes
	// workDir holds what a run writes: durable data directories (removed
	// when the run ends) and the span files of traced runs.
	workDir string
	out     io.Writer
}

// reference reports whether the run uses the reference sizes, the only
// ones baseline numbers and accuracy floors are recorded for.
func (c config) reference() bool { return c.scale == 1 && c.sizes == referenceSizes }

func (c config) scaled(n int) int { return int(float64(n) * c.scale) }

// setups is how many times a run sets its workload up; one for a traced
// run, which reports no set-up time.
func (c config) setups(quick bool) int {
	switch {
	case c.trace:
		return 1
	case quick:
		return c.sizes.quickSetups
	}
	return c.sizes.setups
}

// timedDuration is the length of the untraced timed phase. A traced run
// splits its seconds between an untraced and a traced phase; the ratio of
// the two medians is the tracing overhead.
func (c config) timedDuration() time.Duration {
	d := time.Duration(c.seconds * float64(time.Second))
	if c.trace {
		d /= 2
	}
	return d
}

func (c config) tracePath(workload string) string {
	return filepath.Join(c.workDir, "trace-"+workload+".json")
}

type workload struct {
	name string
	why  string
	run  func(config) (*result, error)
}

var workloads = []workload{
	{"serve-hot", "working set fits the result cache: HTTP/JSON, admission, cache key and LRU do all the work, the engine none",
		func(c config) (*result, error) { return runServe(c, true) }},
	{"serve-cold", "every request distinct, LRU churning at capacity: fan-out, native predicates, core engine and merge dominate",
		func(c config) (*result, error) { return runServe(c, false) }},
	{"lib-combo", "library path over the five predicates the max-score engine does not help (edit, GES family, SoftTFIDF)", runLib},
	{"write-durable", "single-record writes beside reads on a durable corpus: tokenize, assemble, WAL, epoch advance, view rebuild, reopen", runWrite},
	{"decl-sql", "the paper's subject: declarative realization over sqldb, timed preprocessing then selects, one predicate per class", runDecl},
}

func main() {
	os.Exit(run(os.Args[1:], referenceSizes, "bench-out", os.Stdout, os.Stderr))
}

// run is the whole command; sz and workDir are parameters so tests can run
// it small and somewhere disposable.
func run(args []string, sz sizes, workDir string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload `name`, or all")
		seed    = fs.Int64("seed", 1, "seed of every generated input")
		seconds = fs.Float64("seconds", 8, "length of the timed phase of each workload")
		trace   = fs.Int("trace", 0, "1 runs the traced variant: spans, ladders and per-layer metrics")
		outFile = fs.String("out", "", "append the run set to this results `file` (JSON)")
		compare = fs.Bool("compare", false, "compare two results files: -compare A.json B.json")
		scale   = fs.Float64("scale", 1, "multiplier on record counts, for exploratory sweeps only")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 || *outFile != "" || *scale != 1 {
			fmt.Fprintln(stderr, "bench: -compare takes exactly two results files and neither -out nor -scale")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds <= 0 || *scale <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: unexpected arguments, or -seconds/-scale not positive, or -trace not 0|1")
		return 2
	}
	if *scale != 1 && *outFile != "" {
		fmt.Fprintln(stderr, "bench: -scale other than 1 is refused with -out: swept numbers are not reference numbers")
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s, all)\n", *name, strings.Join(names, ", "))
		return 2
	}

	// Go before 1.25 ignores a container's CPU quota; pin so hosts compare.
	runtime.GOMAXPROCS(min(maxClients, runtime.NumCPU()))

	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, scale: *scale, sizes: sz, workDir: workDir, out: stdout}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	var results []*result
	for _, w := range selected {
		fmt.Fprintf(stdout, "== %s (seed %d, %gs, trace %v): %s\n", w.name, cfg.seed, cfg.seconds, cfg.trace, w.why)
		start := time.Now()
		r, err := w.run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintf(stdout, " ran %.1f s in all\n", time.Since(start).Seconds())
		printResult(stdout, r)
		results = append(results, r)
		if !r.Correct {
			code = 1
		}
	}
	if *outFile != "" {
		if err := appendRunSet(*outFile, cfg, results); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return code
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printResult writes the human-readable report of one run, then the
// contract line: one JSON object carrying the end-to-end metrics every
// workload reports (-trace 0) or the per-layer metrics (-trace 1).
func printResult(w io.Writer, r *result) {
	row := func(d metricDef) {
		m, ok := r.Metrics[d.name]
		if !ok {
			return
		}
		fmt.Fprintf(w, "  %-40s %14.4f %-6s", d.name, m.Value, d.unit)
		if m.N > 0 {
			fmt.Fprintf(w, "  n=%d", m.N)
		}
		if m.Max > m.Min {
			fmt.Fprintf(w, "  windows %.4f..%.4f", m.Min, m.Max)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, " end-to-end:")
	for _, d := range endToEnd {
		row(d)
	}
	fmt.Fprintln(w, " per-layer:")
	for _, d := range perLayer {
		row(d)
	}
	for _, label := range sortedKeys(r.Accuracy) {
		fmt.Fprintf(w, " accuracy %s:", label)
		for _, name := range sortedKeys(r.Accuracy[label]) {
			fmt.Fprintf(w, " %s %.4f", name, r.Accuracy[label][name])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, " attempted %d, failed %d, digest %s\n", r.Attempted, r.Failed, r.Digest)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}

	defs := contractEndToEnd()
	if r.Trace {
		defs = contractPerLayer()
	}
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]wire{}}
	for _, d := range defs {
		line.Metrics[d.name] = wire{Value: r.value(d.name), Unit: d.unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", data)
}
