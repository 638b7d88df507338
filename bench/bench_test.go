package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// tinySizes shrink every workload to a few hundred records and tens of
// operations: every code path and every correctness check, in well under a
// second each.
var tinySizes = sizes{
	serveRecords: 600, hotQueries: 20, zipfOps: 2000,
	libRecords: 200, libQueries: 10,
	writeRecords: 300, writePool: 200, snapshotAt: 3,
	declRecords: 150, declQueries: 5,
	sampleOps: 40, libSample: 20, declSample: 12, ladderWrites: 5, probeQueries: 8,
	mapQueries: 5, declMapQuery: 3,
	setups: 2, quickSetups: 2,
}

func tinyConfig(t *testing.T, trace bool) config {
	return config{seed: 1, seconds: 0.2, trace: trace, scale: 1, sizes: tinySizes, workDir: t.TempDir(), out: &bytes.Buffer{}}
}

func TestPercentileAndBeyond(t *testing.T) {
	xs := make([]int64, 100)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0.50, 50}, {0.95, 95}, {0.99, 99}, {1, 100}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}
	// "At least ten samples beyond": p95 needs 200 samples, p99 1000.
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{199, 0.95, 9}, {200, 0.95, 10}, {999, 0.99, 9}, {1000, 0.99, 10}, {0, 0.5, 0}} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	r := newResult("write-durable", config{})
	r.setPercentile("write_p95_us", 0.95, windowStat{value: 1, n: 120}, 120)
	r.setPercentile("select_p95_us", 0.95, windowStat{value: 1, n: 480}, 480)
	if len(r.Notes) != 1 || !strings.Contains(r.Notes[0], "write_p95_us") {
		t.Errorf("thin percentile notes = %v, want one about write_p95_us", r.Notes)
	}
}

func TestWindowedReportsMedianWindow(t *testing.T) {
	// One client, ten samples, five windows of two: latencies 1,1 2,2 ... in
	// µs, back to back.
	var c clientSamples
	at := int64(0)
	for w := 1; w <= 5; w++ {
		for k := 0; k < 2; k++ {
			c.start = append(c.start, at)
			c.lat = append(c.lat, int64(w)*1000)
			at += int64(w) * 1000
		}
	}
	st := windowed([]clientSamples{c}, 5, latencyUS(0.5))
	if st.value != 3 || st.min != 1 || st.max != 5 || st.n != 10 {
		t.Errorf("windowed p50 = %+v, want median window 3 within 1..5 over 10 samples", st)
	}
	qps := windowed([]clientSamples{c}, 5, throughput)
	if want := 2 / 6e-6; qps.value < want*0.999 || qps.value > want*1.001 {
		t.Errorf("median window throughput = %v, want %v", qps.value, want)
	}
	whole := windowed([]clientSamples{c}, 1, throughput)
	if want := 10 / 30e-6; whole.value < want*0.999 || whole.value > want*1.001 {
		t.Errorf("whole-run throughput = %v, want %v", whole.value, want)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{10, 11}); got != 1/10.5 {
		t.Errorf("spread of two = %v", got)
	}
}

func TestOpListsFollowTheSeed(t *testing.T) {
	ds, err := dataset(400, 7)
	if err != nil {
		t.Fatal(err)
	}
	base, pool := ds.Records[:300], ds.Records[300:]
	build := func(seed int64) (any, any, any) {
		return zipfIndexes(50, 500, 1.3, seed), crossOps(engineEight, pickQueries(base, 20, seed), seed), mutationList(base, pool, 60, seed)
	}
	z1, c1, m1 := build(1)
	z2, c2, m2 := build(1)
	if !reflect.DeepEqual(z1, z2) || !reflect.DeepEqual(c1, c2) || !reflect.DeepEqual(m1, m2) {
		t.Error("the same seed gave different operation lists")
	}
	z3, c3, m3 := build(2)
	if reflect.DeepEqual(z1, z3) || reflect.DeepEqual(c1, c3) || reflect.DeepEqual(m1, m3) {
		t.Error("different seeds gave the same operation list")
	}

	// Zipf: index 0 is the most popular key.
	counts := make([]int, 50)
	for _, i := range z1.([]int32) {
		counts[i]++
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] > counts[0] {
			t.Errorf("zipf index %d drawn %d times, index 0 only %d", i, counts[i], counts[0])
		}
	}

	// The mutation list is valid in order and keeps its 60/20/20 mix.
	muts := m1.([]mutation)
	kinds := map[string]int{}
	live := map[int]bool{}
	for _, r := range base {
		live[r.TID] = true
	}
	for i, m := range muts {
		kinds[m.kind]++
		switch m.kind {
		case "insert":
			if live[m.rec.TID] {
				t.Fatalf("mutation %d inserts live TID %d", i, m.rec.TID)
			}
			live[m.rec.TID] = true
		case "upsert":
			if !live[m.rec.TID] {
				t.Fatalf("mutation %d upserts absent TID %d", i, m.rec.TID)
			}
		case "delete":
			if !live[m.rec.TID] {
				t.Fatalf("mutation %d deletes absent TID %d", i, m.rec.TID)
			}
			delete(live, m.rec.TID)
		}
	}
	if kinds["insert"] != 36 || kinds["upsert"] != 12 || kinds["delete"] != 12 {
		t.Errorf("mutation mix %v, want 36/12/12", kinds)
	}
	if got := applyMutations(base, muts); len(got) != len(live) {
		t.Errorf("applyMutations left %d records, want %d", len(got), len(live))
	}
	// Query texts are distinct: a repeated text would be a repeated key.
	seen := map[string]bool{}
	for _, q := range pickQueries(ds.Records, 200, 3) {
		if seen[q.Text] {
			t.Fatalf("pickQueries repeated %q", q.Text)
		}
		seen[q.Text] = true
	}
}

// TestWorkloadsEndToEnd runs every workload small, untraced and traced,
// with all its correctness checks.
func TestWorkloadsEndToEnd(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, trace)
			r, err := w.run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v", w.name, trace, r.Correct, r.Attempted, r.Failed, r.Failures)
			}
			if r.Digest == "" {
				t.Errorf("%s trace=%v: no result digest", w.name, trace)
			}
			for _, d := range contractEndToEnd() {
				if v := r.value(d.name); !(v > 0) {
					t.Errorf("%s trace=%v: end-to-end metric %s = %v, want > 0", w.name, trace, d.name, v)
				}
			}
			if trace {
				data, err := os.ReadFile(cfg.tracePath(w.name))
				if err != nil {
					t.Fatalf("%s: no span file: %v", w.name, err)
				}
				var spans []span
				if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
					t.Errorf("%s: span file holds %d spans, err %v", w.name, len(spans), err)
				}
				for _, s := range spans {
					if s.EndNS < s.StartNS || s.Name == "" {
						t.Fatalf("%s: malformed span %+v", w.name, s)
					}
				}
			}
			left, err := filepath.Glob(filepath.Join(cfg.workDir, "write-durable-*"))
			if err != nil || len(left) != 0 {
				t.Errorf("%s: data directories left behind: %v %v", w.name, left, err)
			}
		}
	}
}

// TestDigestsRepeatAndLayersAreBypassed runs every workload twice on one
// seed and once on another: the result digest follows the seed and nothing
// else, and each workload stays off the layer it exists to bypass (at the
// small scale where that still holds: short enough that serve-cold's small
// list is not outrun).
func TestDigestsRepeatAndLayersAreBypassed(t *testing.T) {
	for _, w := range workloads {
		var runs []*result
		for _, seed := range []int64{1, 1, 2} {
			cfg := tinyConfig(t, false)
			cfg.seed, cfg.seconds, cfg.sizes.setups, cfg.sizes.quickSetups = seed, 0.1, 1, 1
			r, err := w.run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			runs = append(runs, r)
		}
		if runs[0].Digest != runs[1].Digest {
			t.Errorf("%s: two runs of seed 1 gave digests %s and %s", w.name, runs[0].Digest, runs[1].Digest)
		}
		if runs[0].Digest == runs[2].Digest {
			t.Errorf("%s: seeds 1 and 2 gave the same digest", w.name)
		}
		r := runs[0]
		hits, engine := r.value("cache.hit_ratio"), r.value("core.hotpath_queries")
		switch w.name {
		case "serve-hot":
			if hits < 0.99 || engine != 0 {
				t.Errorf("serve-hot: hit ratio %v, engine queries %v", hits, engine)
			}
		case "serve-cold":
			if hits > 0.05 || engine == 0 {
				t.Errorf("serve-cold: hit ratio %v, engine queries %v", hits, engine)
			}
		case "lib-combo", "decl-sql":
			if engine != 0 {
				t.Errorf("%s reached the max-score engine %v times", w.name, engine)
			}
		}
	}
}

// TestContractLine drives the command the way the driver does.
func TestContractLine(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "lib-combo", "--seed", "3", "--seconds", "0.2", "--trace", trace}
		if code := run(args, tinySizes, t.TempDir(), &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("last line is not the contract object: %v\n%s", err, lines[len(lines)-1])
		}
		if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || *line.Failed != 0 {
			t.Errorf("trace %s: verdict fields %s", trace, lines[len(lines)-1])
		}
		want := contractEndToEnd()
		if trace == "1" {
			want = contractPerLayer()
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics on the line, want %d", trace, len(line.Metrics), len(want))
		}
		for _, d := range want {
			m, ok := line.Metrics[d.name]
			if !ok || m.Value == nil || m.Unit != d.unit {
				t.Errorf("trace %s: metric %s missing or unit %q != %q", trace, d.name, m.Unit, d.unit)
			}
		}
	}
}

func TestFlagsRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-scale", "2", "-out", "x.json"},
		{"-compare", "only-one.json"},
		{"-compare", "-scale", "2", "a.json", "b.json"},
		{"-trace", "2"},
		{"-seconds", "0"},
		{"stray"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, tinySizes, t.TempDir(), &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2 (%s)", args, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed a result: %s", args, stdout.String())
		}
	}
}

// TestScaleSweepsButNeverRecords: -scale runs, and its result is not a
// reference result.
func TestScaleSweepsButNeverRecords(t *testing.T) {
	cfg := tinyConfig(t, false)
	cfg.scale = 2
	if cfg.reference() {
		t.Error("a scaled run counts as a reference run")
	}
	r, err := runLib(cfg)
	if err != nil || !r.Correct {
		t.Fatalf("scaled lib-combo: %v %+v", err, r)
	}
}

func TestOutAndCompare(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	for _, path := range []string{a, a, b} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-workload", "lib-combo", "-seconds", "0.2", "-out", path}, tinySizes, t.TempDir(), &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
	}
	fa, err := readResults(a)
	if err != nil || len(fa.RunSets) != 2 || len(fa.RunSets[0].Results) != 1 {
		t.Fatalf("-out twice gave %d run sets, err %v", len(fa.RunSets), err)
	}

	// Rewrite both files with known values and check every verdict.
	write := func(path string, qps []float64, evictions float64, digest string) {
		var f resultsFile
		for _, v := range qps {
			r := newResult("serve-cold", config{seed: 1, seconds: 10})
			r.set("select_qps", v)
			r.set("cache.evictions", evictions)
			r.Digest = digest
			r.finish()
			f.RunSets = append(f.RunSets, runSet{Results: []*result{r}})
		}
		data, _ := json.Marshal(f)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bound := 0.0
	for _, d := range endToEnd {
		if d.name == "select_qps" {
			bound = d.bound
		}
	}
	for _, c := range []struct {
		name      string
		qpsB      []float64
		evictions float64
		digest    string
		code      int
		want      string
	}{
		{"same", []float64{1000, 1001, 999}, 400, "d", 0, "ok"},
		{"better", []float64{1500, 1501, 1499}, 400, "d", 0, "ok"},
		{"worse", []float64{1000 * (1 - bound - 0.05), 1000 * (1 - bound - 0.05), 1000 * (1 - bound - 0.05)}, 400, "d", 1, "worse"},
		{"noisy", []float64{1000, 1000 * (1 + 2*bound), 1000 * (1 - 2*bound)}, 400, "d", 1, "unresolved"},
		{"noisy but every run better", []float64{2000, 2000 * (1 + 2*bound), 2000 * (1 - 2*bound/2)}, 400, "d", 0, "ok"},
		{"count differs", []float64{1000, 1001, 999}, 401, "d", 1, "count-mismatch"},
		{"digest differs", []float64{1000, 1001, 999}, 400, "e", 1, "digest-mismatch"},
	} {
		write(a, []float64{1000, 1001, 999}, 400, "d")
		write(b, c.qpsB, c.evictions, c.digest)
		var stdout, stderr bytes.Buffer
		code := run([]string{"-compare", a, b}, tinySizes, dir, &stdout, &stderr)
		if code != c.code || !strings.Contains(stdout.String(), c.want) {
			t.Errorf("%s: exit %d (want %d), output lacks %q:\n%s%s", c.name, code, c.code, c.want, stdout.String(), stderr.String())
		}
	}
}

// TestBenchmarkJSONMatchesCatalog keeps the driver's contract file and the
// program's own catalog from drifting apart.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
		Why    string  `json:"why"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v against %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.name, len(w.why))
		}
	}
	e2e := contractEndToEnd()
	if len(spec.EndToEnd) != len(e2e) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in the program", len(spec.EndToEnd), len(e2e))
	}
	for i, d := range e2e {
		got := spec.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end_to_end %d: %+v against %+v", i, got, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	layers := contractPerLayer()
	if len(spec.PerLayer) != len(layers) || len(layers) > 128 {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the program (limit 128)", len(spec.PerLayer), len(layers))
	}
	seen := map[string]bool{}
	for i, d := range layers {
		got := spec.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per_layer %d: %+v against %+v", i, got, d)
		}
		if seen[d.name] || len(d.name) > 64 || len(d.unit) > 16 {
			t.Errorf("per_layer %s: repeated, or name/unit too long", d.name)
		}
		seen[d.name] = true
	}
}
