package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	approxsel "repro"
)

// ---- SSE client helper ----

type sseClient struct {
	resp *http.Response
	br   *bufio.Reader
}

func openSSE(t *testing.T, ts *httptest.Server, req WatchRequest) *sseClient {
	t.Helper()
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/watch", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("watch register: code=%d error=%q", resp.StatusCode, e["error"])
	}
	c := &sseClient{resp: resp, br: bufio.NewReader(resp.Body)}
	t.Cleanup(func() { resp.Body.Close() })
	return c
}

// next reads one SSE frame: its event name and decoded data payload.
func (c *sseClient) next(t *testing.T, v any) string {
	t.Helper()
	var event, data string
	for {
		line, err := c.br.ReadString('\n')
		if err != nil {
			t.Fatalf("sse read: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && event != "":
			if err := json.Unmarshal([]byte(data), v); err != nil {
				t.Fatalf("sse frame %q: decode %q: %v", event, data, err)
			}
			return event
		}
	}
}

func corpusEpochs(t *testing.T, ts *httptest.Server) []uint64 {
	t.Helper()
	out, code := get[struct {
		Corpora []CorpusInfo `json:"corpora"`
	}](t, ts, "/v1/corpora")
	if code != http.StatusOK || len(out.Corpora) != 1 {
		t.Fatalf("corpora: code=%d %+v", code, out)
	}
	return out.Corpora[0].Epochs
}

// TestServeWatchSSE is the tentpole's serving contract end to end: an SSE
// watch receives the initial epoch frame, then a mutation's match events
// tagged with exactly the epoch the mutation response reported, and a
// graceful drain ends the stream with a final epoch frame — leaving no
// handler goroutines behind.
func TestServeWatchSSE(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 2}, 40)
	// Baseline after the server and a warm keep-alive connection exist, so
	// the post-drain check isolates the SSE stream's own goroutines.
	get[Stats](t, ts, "/v1/stats")
	base := runtime.NumGoroutine()

	c := openSSE(t, ts, WatchRequest{Corpus: "main", Predicate: "Jaccard", Theta: 0.6})
	var hello WatchEpochFrame
	if ev := c.next(t, &hello); ev != "epoch" || len(hello.Epochs) != 2 || hello.Final {
		t.Fatalf("initial frame: event=%q %+v", ev, hello)
	}

	// Insert an exact duplicate of record 5: the self watch must assert the
	// (new, 5) pair at the epoch the insert moved its shard to.
	dup := approxsel.Record{TID: 1000, Text: testRecords(40)[4].Text}
	ins, code := post[MutateResponse](t, ts, "/v1/insert", MutateRequest{Corpus: "main", Records: []RecordJSON{{TID: dup.TID, Text: dup.Text}}})
	if code != http.StatusOK {
		t.Fatalf("insert: code=%d", code)
	}
	var got approxsel.WatchEvent
	found := false
	for !found {
		if ev := c.next(t, &got); ev != "match" {
			t.Fatalf("unexpected frame %q (%+v) before the match", ev, got)
		}
		found = got.ProbeTID == dup.TID && got.BaseTID == 5
	}
	if got.Score != 1 {
		t.Fatalf("duplicate pair score = %v, want 1", got.Score)
	}
	if got.Epoch != ins.Epochs[got.Shard] {
		t.Fatalf("event epoch %d on shard %d, insert reported %v", got.Epoch, got.Shard, ins.Epochs)
	}

	// While the stream is live, /v1/stats reports it.
	st, _ := get[Stats](t, ts, "/v1/stats")
	if st.Watch.Active != 1 || st.Watch.EventsEmitted == 0 {
		t.Fatalf("stats watch block: %+v", st.Watch)
	}

	// Graceful drain: a final epoch frame at the corpus's current vector,
	// then the stream ends and new registrations are refused.
	s.DrainWatches()
	var final WatchEpochFrame
	for {
		var raw json.RawMessage
		ev := c.next(t, &raw)
		if ev == "epoch" {
			if err := json.Unmarshal(raw, &final); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if !final.Final || len(final.Epochs) != 2 {
		t.Fatalf("final frame: %+v", final)
	}
	_, code = post[map[string]string](t, ts, "/v1/watch", WatchRequest{Corpus: "main", Predicate: "Jaccard", Theta: 0.6})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("watch during drain: code=%d, want 503", code)
	}
	c.resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+4 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base+4 {
		t.Fatalf("goroutines after drain: %d, started with %d", n, base)
	}
	if st, _ := get[Stats](t, ts, "/v1/stats"); st.Watch.Active != 0 {
		t.Fatalf("watches still active after drain: %+v", st.Watch)
	}
}

// TestServeWatchEmptyProbes: "probes": [] is a join against no probes, so
// a duplicate insert replays no event; only an absent list is a self watch.
func TestServeWatchEmptyProbes(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2}, 40)
	before, err := json.Marshal(corpusEpochs(t, ts))
	if err != nil {
		t.Fatal(err)
	}
	dup := RecordJSON{TID: 1000, Text: testRecords(40)[6].Text}
	if _, code := post[MutateResponse](t, ts, "/v1/insert", MutateRequest{Corpus: "main", Records: []RecordJSON{dup}}); code != http.StatusOK {
		t.Fatalf("insert: code=%d", code)
	}
	poll := func(probes string) WatchPollResponse {
		t.Helper()
		body := json.RawMessage(`{"corpus":"main","predicate":"Jaccard","theta":0.6,"mode":"poll","resume":` + string(before) + probes + `}`)
		page, code := post[WatchPollResponse](t, ts, "/v1/watch", body)
		if code != http.StatusOK {
			t.Fatalf("poll%s: code=%d", probes, code)
		}
		return page
	}
	if page := poll(""); len(page.Events) == 0 {
		t.Fatal("test vacuous: the self watch replayed no event for a duplicate insert")
	}
	if page := poll(`,"probes":[]`); len(page.Events) != 0 {
		t.Fatalf("an empty probe list replayed %d events: %+v", len(page.Events), page.Events)
	}
}

// TestServeWatchPoll: the stateless long-poll page resumes exactly once —
// a poll with a pre-mutation vector returns the missed events and the
// vector to continue from; polling again there returns nothing.
func TestServeWatchPoll(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2}, 40)
	before := corpusEpochs(t, ts)

	dup := approxsel.Record{TID: 1000, Text: testRecords(40)[6].Text}
	if _, code := post[MutateResponse](t, ts, "/v1/insert", MutateRequest{Corpus: "main", Records: []RecordJSON{{TID: dup.TID, Text: dup.Text}}}); code != http.StatusOK {
		t.Fatalf("insert: code=%d", code)
	}

	page, code := post[WatchPollResponse](t, ts, "/v1/watch", WatchRequest{
		Corpus: "main", Predicate: "Jaccard", Theta: 0.6, Mode: "poll", Resume: before,
	})
	if code != http.StatusOK {
		t.Fatalf("poll: code=%d", code)
	}
	found := false
	for _, e := range page.Events {
		if e.ProbeTID == dup.TID && e.BaseTID == 7 && e.Score == 1 {
			found = true
		}
	}
	if !found || page.More {
		t.Fatalf("poll page missed the duplicate pair: %+v", page)
	}

	again, code := post[WatchPollResponse](t, ts, "/v1/watch", WatchRequest{
		Corpus: "main", Predicate: "Jaccard", Theta: 0.6, Mode: "poll", Resume: page.Resume,
	})
	if code != http.StatusOK || len(again.Events) != 0 {
		t.Fatalf("poll at the returned resume vector: code=%d events=%d", code, len(again.Events))
	}

	// A waiting poll parks until a live event arrives.
	done := make(chan WatchPollResponse, 1)
	go func() {
		p, _ := post[WatchPollResponse](t, ts, "/v1/watch", WatchRequest{
			Corpus: "main", Predicate: "Jaccard", Theta: 0.6, Mode: "poll", Resume: again.Resume, WaitMS: 10000,
		})
		done <- p
	}()
	time.Sleep(100 * time.Millisecond)
	dup2 := approxsel.Record{TID: 1001, Text: testRecords(40)[7].Text}
	if _, code := post[MutateResponse](t, ts, "/v1/insert", MutateRequest{Corpus: "main", Records: []RecordJSON{{TID: dup2.TID, Text: dup2.Text}}}); code != http.StatusOK {
		t.Fatalf("insert: code=%d", code)
	}
	select {
	case p := <-done:
		found = false
		for _, e := range p.Events {
			if e.ProbeTID == dup2.TID && e.BaseTID == 8 {
				found = true
			}
		}
		if !found {
			t.Fatalf("waiting poll returned without the live event: %+v", p)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiting poll never returned")
	}
}

// TestServeWatchRejections: the registration guards surface as the right
// status codes, and the watch cap admits independently of MaxInFlight.
func TestServeWatchRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2, MaxWatches: 1}, 20)
	if _, code := post[map[string]string](t, ts, "/v1/watch", WatchRequest{Corpus: "main", Predicate: "TFIDF", Theta: 0.5, Mode: "poll"}); code != http.StatusBadRequest {
		t.Fatalf("stats-dependent predicate: code=%d, want 400", code)
	}
	if _, code := post[map[string]string](t, ts, "/v1/watch", WatchRequest{Corpus: "main", Predicate: "Jaccard", Theta: 0.5, Mode: "carrier-pigeon"}); code != http.StatusBadRequest {
		t.Fatalf("unknown mode: code=%d, want 400", code)
	}
	if _, code := post[map[string]string](t, ts, "/v1/watch", WatchRequest{Corpus: "nope", Predicate: "Jaccard", Theta: 0.5, Mode: "poll"}); code != http.StatusNotFound {
		t.Fatalf("unknown corpus: code=%d, want 404", code)
	}
	c := openSSE(t, ts, WatchRequest{Corpus: "main", Predicate: "Jaccard", Theta: 0.6})
	var hello WatchEpochFrame
	c.next(t, &hello)
	if _, code := post[map[string]string](t, ts, "/v1/watch", WatchRequest{Corpus: "main", Predicate: "Jaccard", Theta: 0.6, Mode: "poll"}); code != http.StatusTooManyRequests {
		t.Fatalf("second watch past the cap: code=%d, want 429", code)
	}
}

// TestServeWatchConcurrentSelect races an SSE stream against selection and
// mutation traffic (run under -race) and checks every emitted event is
// tagged with a then-current epoch.
func TestServeWatchConcurrentSelect(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2}, 40)
	c := openSSE(t, ts, WatchRequest{Corpus: "main", Predicate: "Jaccard", Theta: 0.6})
	var hello WatchEpochFrame
	c.next(t, &hello)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	recs := testRecords(40)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, code := post[SelectResponse](t, ts, "/v1/select", SelectRequest{
					Corpus: "main", Predicate: "Jaccard", Query: recs[(g*13+i)%40].Text, Limit: 5,
				})
				if code != http.StatusOK {
					t.Errorf("select: code=%d", code)
					return
				}
			}
		}(g)
	}
	want := 0
	for i := 0; i < 10; i++ {
		dup := RecordJSON{TID: 2000 + i, Text: recs[i].Text}
		if _, code := post[MutateResponse](t, ts, "/v1/insert", MutateRequest{Corpus: "main", Records: []RecordJSON{dup}}); code != http.StatusOK {
			t.Fatalf("insert %d: code=%d", i, code)
		}
		want++
	}
	seen := 0
	for seen < want {
		var e approxsel.WatchEvent
		if ev := c.next(t, &e); ev != "match" {
			t.Fatalf("unexpected frame %q", ev)
		}
		if e.ProbeTID >= 2000 && e.BaseTID == e.ProbeTID-2000+1 {
			seen++
		}
	}
	close(stop)
	wg.Wait()
}

// TestWatchPollPageResume pins the poll page cut and its resume vector. The
// vector starts from the client's resume vector, or else from the vector
// the watch registered at — never the corpus's current epochs, which may
// already be past events the page does not carry.
func TestWatchPollPageResume(t *testing.T) {
	ev := func(shard int, epoch uint64) approxsel.WatchEvent {
		return approxsel.WatchEvent{Kind: "match", Shard: shard, Epoch: epoch}
	}
	burst := []approxsel.WatchEvent{ev(0, 5), ev(0, 5), ev(0, 5), ev(1, 3), ev(1, 3), ev(0, 6)}
	cases := []struct {
		name       string
		evs        []approxsel.WatchEvent
		max        int
		from       []uint64
		wantN      int
		wantMore   bool
		wantResume []uint64
	}{
		// Registered at [4 2] while the corpus has since moved on: an empty
		// page resumes at the registration vector, so a write that landed
		// after the drain is not skipped.
		{"empty page keeps the registration vector", nil, 10, []uint64{4, 2}, 0, false, []uint64{4, 2}},
		{"whole page", burst, 10, []uint64{4, 2}, 6, false, []uint64{6, 3}},
		// No resume in the request, truncated at max_events: the cut grows
		// to the end of shard 0's epoch 5, and the vector covers only that.
		{"truncated page without resume", burst, 2, []uint64{4, 2}, 3, true, []uint64{5, 2}},
		{"cut at a boundary", burst, 3, []uint64{4, 2}, 3, true, []uint64{5, 2}},
		{"cut inside the second mutation", burst, 4, []uint64{4, 2}, 5, true, []uint64{5, 3}},
		// A resumed client's vector is behind the registration vector:
		// the truncated replay resumes from where the client stood.
		{"truncated replay from a resume vector", burst, 2, []uint64{1, 0}, 3, true, []uint64{5, 0}},
		{"page of exactly max events", burst, 6, []uint64{4, 2}, 6, false, []uint64{6, 3}},
	}
	for _, tc := range cases {
		from := append([]uint64(nil), tc.from...)
		page, resume, more := pollPage(tc.evs, tc.max, from)
		if len(page) != tc.wantN || more != tc.wantMore {
			t.Errorf("%s: %d events more=%v, want %d more=%v", tc.name, len(page), more, tc.wantN, tc.wantMore)
		}
		if fmt.Sprint(resume) != fmt.Sprint(tc.wantResume) {
			t.Errorf("%s: resume %v, want %v", tc.name, resume, tc.wantResume)
		}
		if fmt.Sprint(from) != fmt.Sprint(tc.from) {
			t.Errorf("%s: pollPage wrote through its from vector: %v", tc.name, from)
		}
	}
}
