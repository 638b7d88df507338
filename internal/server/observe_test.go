package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// postLocal drives one request through the handler chain without a
// listener, so tests can assert on the server's side effects directly.
func postLocal(t *testing.T, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func TestRequestIDEcho(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceSample: -1}, 40)
	body := `{"predicate":"BM25","query":"general electric","limit":3}`

	// A client-supplied ID is echoed verbatim.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/select", strings.NewReader(body))
	req.Header.Set("X-Request-Id", "client-id-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "client-id-42" {
		t.Fatalf("client ID not echoed: got %q", got)
	}

	// Without one, the server assigns a non-empty ID.
	resp, err = http.Post(ts.URL+"/v1/select", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got == "" {
		t.Fatal("server did not assign a request ID")
	}
}

func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	s := New(Config{TraceSample: -1, AccessLog: &buf})
	if err := s.AddCorpus("main", testRecords(40)); err != nil {
		t.Fatal(err)
	}
	w := postLocal(t, s, "/v1/select", `{"predicate":"BM25","query":"general electric","limit":3}`)
	if w.Code != http.StatusOK {
		t.Fatalf("select: status %d: %s", w.Code, w.Body)
	}
	line := buf.String()
	if n := strings.Count(line, "\n"); n != 1 {
		t.Fatalf("want exactly one access-log line, got %d: %q", n, line)
	}
	for _, want := range []string{"route=select", "status=200", "corpus=main", "predicate=BM25", "shards=", "cache=miss", "dur_us=", "id="} {
		if !strings.Contains(line, want) {
			t.Errorf("access log line missing %q: %q", want, line)
		}
	}
	buf.Reset()
	postLocal(t, s, "/v1/select", `{"predicate":"BM25","query":"general electric","limit":3}`)
	if !strings.Contains(buf.String(), "cache=hit") {
		t.Errorf("repeat select should log cache=hit: %q", buf.String())
	}
}

// expositionLine matches one Prometheus text-format sample line.
var expositionLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.e+-]+|\+Inf|NaN)$`)

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceSample: -1}, 40)
	post[map[string]any](t, ts, "/v1/select", map[string]any{"predicate": "BM25", "query": "general electric", "limit": 3})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	// Every line is either a comment or a well-formed sample.
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Errorf("unparseable exposition line: %q", line)
		}
	}
	for _, want := range []string{
		"# TYPE approx_requests_total counter",
		"approx_select_total 1",
		`approx_http_requests_total{endpoint="select"} 1`,
		"# TYPE approx_request_duration_us histogram",
		`approx_request_duration_us_count{endpoint="select"} 1`,
		"approx_cache_misses_total 1",
		"approx_corpora 1",
		"approx_hotpath_queries_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestMetricsRuntimeGauges scrapes the Go runtime figures: a heap and a
// goroutine count that cannot be zero in a serving process, and a GC pause
// total that is positive after a forced collection and never falls.
func TestMetricsRuntimeGauges(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceSample: -1}, 40)
	scrape := func() map[string]float64 {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		buf := new(bytes.Buffer)
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for _, line := range strings.Split(buf.String(), "\n") {
			name, v, ok := strings.Cut(line, " ")
			if !ok || !strings.HasPrefix(name, "approx_go_") {
				continue
			}
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("unparseable sample %q", line)
			}
			out[name] = f
		}
		return out
	}
	before := scrape()
	runtime.GC()
	after := scrape()
	for _, name := range []string{"approx_go_heap_alloc_bytes", "approx_go_goroutines"} {
		if after[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, after[name])
		}
	}
	pause, ok := after["approx_go_gc_pause_us_total"]
	if !ok || pause <= 0 || pause < before["approx_go_gc_pause_us_total"] {
		t.Errorf("approx_go_gc_pause_us_total %v -> %v across runtime.GC", before["approx_go_gc_pause_us_total"], pause)
	}
}

// TestPredicateDurationSplitsCacheOutcome asserts that a selection served
// from the result cache and one that ran the predicate land in different
// approx_predicate_duration_us series — a microsecond lookup must not read
// as engine latency — on /v1/select and, per query, on /v1/batch.
func TestPredicateDurationSplitsCacheOutcome(t *testing.T) {
	srv, ts := newTestServer(t, Config{TraceSample: -1}, 40)
	sel := map[string]any{"predicate": "BM25", "query": "general electric", "limit": 3}
	post[map[string]any](t, ts, "/v1/select", sel) // miss
	post[map[string]any](t, ts, "/v1/select", sel) // hit
	post[map[string]any](t, ts, "/v1/batch", map[string]any{
		"predicate": "BM25", "queries": []string{"general electric", "international business"}, "limit": 3,
	}) // one hit, one miss

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`approx_predicate_duration_us_count{predicate="BM25",cache="miss"} 2`,
		`approx_predicate_duration_us_count{predicate="BM25",cache="hit"} 2`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if got := srv.stats().Predicates["BM25"].Count; got != 2 {
		t.Errorf("/v1/stats predicates count the selections that ran: got %d, want 2", got)
	}
}

// TestSlowlogSpanTree asserts the acceptance shape: with sampling on, a
// /v1/select trace retained in the slow log shows admission → cache lookup
// → shard fan-out → merge.
func TestSlowlogSpanTree(t *testing.T) {
	defer obs.SetTraceSampling(0)
	_, ts := newTestServer(t, Config{TraceSample: 1}, 60)
	post[map[string]any](t, ts, "/v1/select", map[string]any{"predicate": "BM25", "query": "general electric", "limit": 3})

	slow, code := get[SlowLogResponse](t, ts, "/v1/slowlog")
	if code != http.StatusOK {
		t.Fatalf("/v1/slowlog: status %d", code)
	}
	var sel *obs.TraceSnapshot
	for i := range slow.Entries {
		if slow.Entries[i].Name == "select" {
			sel = &slow.Entries[i]
			break
		}
	}
	if sel == nil {
		t.Fatalf("no select trace retained; entries: %+v", slow.Entries)
	}
	if sel.ID == "" || sel.DurUS < 0 {
		t.Fatalf("malformed trace: %+v", sel)
	}
	names := map[string]bool{}
	var walk func(sp obs.SpanSnapshot)
	walk = func(sp obs.SpanSnapshot) {
		names[sp.Name] = true
		for _, c := range sp.Children {
			walk(c)
		}
	}
	walk(sel.Spans)
	for _, want := range []string{"select", "admit", "cache.lookup", "fanout", "shard.select", "merge"} {
		if !names[want] {
			t.Errorf("span tree missing %q; have %v", want, names)
		}
	}

	// The stage aggregates saw the same stages.
	st, _ := get[Stats](t, ts, "/v1/stats")
	if st.Trace.SampleEvery != 1 || st.Trace.Sampled == 0 {
		t.Fatalf("trace stats not reporting: %+v", st.Trace)
	}
	if _, ok := st.Trace.Stages["shard.select"]; !ok {
		t.Errorf("stage aggregates missing shard.select: %v", st.Trace.Stages)
	}
}

// TestMutatePathObservable: a write's time is attributed — tokenizing the
// delta, splicing the next snapshot, the write-ahead hook — in the stage
// aggregates, and the wait for the mutation lock is a /metrics histogram.
func TestMutatePathObservable(t *testing.T) {
	defer obs.SetTraceSampling(0)
	_, ts := newTestServer(t, Config{TraceSample: 1, DataDir: t.TempDir()}, 40)
	before := core.MutationLockWaitUS.Snapshot().Count
	if _, code := post[MutateResponse](t, ts, "/v1/insert", MutateRequest{Records: []RecordJSON{{TID: 9001, Text: "general electric co"}}}); code != http.StatusOK {
		t.Fatalf("insert: status %d", code)
	}
	st, _ := get[Stats](t, ts, "/v1/stats")
	for _, stage := range []string{"mutate.tokenize", "mutate.splice", "mutate.wal"} {
		if agg, ok := st.Trace.Stages[stage]; !ok || agg.Count == 0 {
			t.Errorf("stage aggregates missing %s: %v", stage, st.Trace.Stages)
		}
	}
	if core.MutationLockWaitUS.Snapshot().Count == before {
		t.Error("mutation lock wait not observed")
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# TYPE approx_mutation_lock_wait_us histogram") {
		t.Error("/metrics missing approx_mutation_lock_wait_us")
	}
}

func TestInstrumentStatusRecorded(t *testing.T) {
	var buf bytes.Buffer
	s := New(Config{TraceSample: -1, AccessLog: &buf})
	// No corpus loaded: select resolves to 404.
	w := postLocal(t, s, "/v1/select", `{"predicate":"BM25","query":"x"}`)
	if w.Code != http.StatusNotFound {
		t.Fatalf("want 404, got %d", w.Code)
	}
	if !strings.Contains(buf.String(), "status=404") {
		t.Errorf("access log did not record status: %q", buf.String())
	}
}
