package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runSet is one invocation's results with where they were measured.
type runSet struct {
	Commit     string    `json:"commit"`
	Go         string    `json:"go"`
	NProc      int       `json:"nproc"`
	GoMaxProcs int       `json:"gomaxprocs"`
	When       string    `json:"when"`
	Results    []*result `json:"results"`
}

// resultsFile is what -out writes and -compare reads: run sets appended
// one invocation after another.
type resultsFile struct {
	RunSets []runSet `json:"run_sets"`
}

func readResults(path string) (resultsFile, error) {
	var f resultsFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// appendRunSet adds this invocation's results to the file, creating it if
// it is missing.
func appendRunSet(path string, cfg config, results []*result) error {
	f, err := readResults(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	f.RunSets = append(f.RunSets, runSet{
		Commit: gitCommit(), Go: runtime.Version(), NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		When: time.Now().UTC().Format(time.RFC3339), Results: results,
	})
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// gitCommit names the checked-out commit when the run happens inside a git
// work tree; results files are compared by content, the commit is a label.
func gitCommit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// cell is the runs of one workload under one (seed, seconds, trace)
// setting: only like is compared with like.
type cell struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func (c cell) String() string {
	return fmt.Sprintf("%s seed=%d seconds=%g trace=%v", c.workload, c.seed, c.seconds, c.trace)
}

func cells(f resultsFile) map[cell][]*result {
	out := map[cell][]*result{}
	for _, rs := range f.RunSets {
		for _, r := range rs.Results {
			k := cell{r.Workload, r.Seed, r.Seconds, r.Trace}
			out[k] = append(out[k], r)
		}
	}
	return out
}

// spread is the run-to-run spread of a sample as a share of its median:
// the distance between the quartiles (Python's statistics.quantiles, n=4)
// from four values up, the whole range below that.
func spread(xs []float64) float64 {
	med := medianF(xs)
	if len(xs) < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / math.Abs(med)
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		j = max(1, min(j, len(s)-1))
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// verdict compares one metric of one cell: A is the baseline, B the change.
func verdict(d metricDef, a, b []float64) (worse float64, status string) {
	ma, mb := medianF(a), medianF(b)
	if ma != 0 {
		worse = (mb - ma) / math.Abs(ma)
		if d.better == "higher" {
			worse = -worse
		}
	}
	if d.name == "fail_ratio" {
		if mb > ma {
			return worse, "worse"
		}
		return worse, "ok"
	}
	if math.Max(spread(a), spread(b)) > d.bound {
		// Too noisy to call, unless every run of B beats every run of A.
		sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
		sort.Float64s(sa)
		sort.Float64s(sb)
		if (d.better == "lower" && sb[len(sb)-1] < sa[0]) || (d.better == "higher" && sb[0] > sa[len(sa)-1]) {
			return worse, "ok"
		}
		return worse, "unresolved"
	}
	if worse > d.bound {
		return worse, "worse"
	}
	return worse, "ok"
}

// compareFiles prints, per cell and end-to-end metric, both medians, the
// relative difference and the bound, and requires the exact program counts
// and the result digests to be equal. It returns 0 only when every row is
// ok.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	fa, err := readResults(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	fb, err := readResults(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	ca, cb := cells(fa), cells(fb)
	var keys []cell
	for k := range ca {
		if _, ok := cb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	if len(keys) == 0 {
		fmt.Fprintln(stderr, "bench: the two files share no (workload, seed, seconds, trace) cell")
		return 2
	}
	values := func(rs []*result, name string) []float64 {
		var out []float64
		for _, r := range rs {
			if m, ok := r.Metrics[name]; ok {
				out = append(out, m.Value)
			}
		}
		return out
	}
	breaches := 0
	for _, k := range keys {
		fmt.Fprintf(stdout, "== %s (%d vs %d runs)\n", k, len(ca[k]), len(cb[k]))
		for _, d := range endToEnd {
			a, b := values(ca[k], d.name), values(cb[k], d.name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			worse, status := verdict(d, a, b)
			if status != "ok" {
				breaches++
			}
			fmt.Fprintf(stdout, "  %-16s %14.4f -> %14.4f %-6s %+7.2f%% worse (bound %.0f%%, spread %.1f%%/%.1f%%)  %s\n",
				d.name, medianF(a), medianF(b), d.unit, 100*worse, 100*d.bound, 100*spread(a), 100*spread(b), status)
		}
		for _, name := range exactCountNames() {
			a, b := values(ca[k], name), values(cb[k], name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			for _, v := range append(append([]float64(nil), a...), b...) {
				if v != a[0] {
					breaches++
					fmt.Fprintf(stdout, "  %-32s differs: %v vs %v  count-mismatch\n", name, a, b)
					break
				}
			}
		}
		digests := map[string]bool{}
		for _, r := range append(append([]*result(nil), ca[k]...), cb[k]...) {
			digests[r.Digest] = true
		}
		if len(digests) != 1 {
			breaches++
			fmt.Fprintf(stdout, "  result digests differ: %d distinct  digest-mismatch\n", len(digests))
		} else {
			fmt.Fprintf(stdout, "  program counts and result digest equal\n")
		}
	}
	if breaches > 0 {
		fmt.Fprintf(stdout, "%d rows not ok\n", breaches)
		return 1
	}
	fmt.Fprintln(stdout, "all rows ok")
	return 0
}
