package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	approxsel "repro"
)

func testRecords(n int) []approxsel.Record {
	names := approxsel.CompanyNames(n, 3)
	records := make([]approxsel.Record, len(names))
	for i, name := range names {
		records[i] = approxsel.Record{TID: i + 1, Text: name}
	}
	return records
}

func newTestServer(t *testing.T, cfg Config, n int) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	if err := s.AddCorpus("main", testRecords(n)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post[T any](t *testing.T, ts *httptest.Server, path string, body any) (T, int) {
	t.Helper()
	var out T
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s: decode: %v", path, err)
	}
	return out, resp.StatusCode
}

// postOK is the goroutine-safe request helper: it returns an error for a
// failed request or a status other than 200, so workers report failures
// with t.Error instead of calling Fatal off the test goroutine.
func postOK(ts *httptest.Server, path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func get[T any](t *testing.T, ts *httptest.Server, path string) (T, int) {
	t.Helper()
	var out T
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s: decode: %v", path, err)
	}
	return out, resp.StatusCode
}

// TestServeSelectCacheLifecycle walks the core serving loop: a cold select
// misses, a warm one hits with bit-identical results, a mutation advances
// the epoch vector and invalidates, and /v1/stats reports it all.
func TestServeSelectCacheLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 2}, 40)
	query := testRecords(40)[5].Text
	req := SelectRequest{Corpus: "main", Predicate: "BM25", Query: query, Limit: 10}

	cold, code := post[SelectResponse](t, ts, "/v1/select", req)
	if code != http.StatusOK || cold.Cached || len(cold.Epochs) != 2 || cold.Count == 0 {
		t.Fatalf("cold select: code=%d %+v", code, cold)
	}
	warm, _ := post[SelectResponse](t, ts, "/v1/select", req)
	if !warm.Cached {
		t.Fatalf("second select must hit the cache: %+v", warm)
	}
	if !reflect.DeepEqual(warm.Matches, cold.Matches) || !reflect.DeepEqual(warm.Epochs, cold.Epochs) {
		t.Fatal("cached result must be bit-identical to the uncached one")
	}

	ins, code := post[MutateResponse](t, ts, "/v1/insert", MutateRequest{
		Corpus:  "main",
		Records: []RecordJSON{{TID: 9001, Text: query}},
	})
	if code != http.StatusOK || ins.Len != 41 {
		t.Fatalf("insert: code=%d %+v", code, ins)
	}
	if reflect.DeepEqual(ins.Epochs, cold.Epochs) {
		t.Fatal("insert must advance the epoch vector")
	}
	after, _ := post[SelectResponse](t, ts, "/v1/select", req)
	if after.Cached {
		t.Fatal("select after mutation must miss (epoch-keyed invalidation)")
	}
	found := false
	for _, m := range after.Matches {
		if m.TID == 9001 {
			found = true
		}
	}
	if !found {
		t.Fatalf("select after insert must see the new record: %+v", after.Matches)
	}
	again, _ := post[SelectResponse](t, ts, "/v1/select", req)
	if !again.Cached || !reflect.DeepEqual(again.Matches, after.Matches) {
		t.Fatal("post-mutation result must be cached and bit-identical")
	}

	st := s.stats()
	if st.Cache.Hits < 2 || st.Cache.HitRate <= 0 {
		t.Fatalf("stats must report cache hits: %+v", st.Cache)
	}
	if st.Requests == 0 || st.Predicates["BM25"].Count == 0 {
		t.Fatalf("stats must report request and predicate counts: %+v", st)
	}
	if st.HotPath.Queries == 0 || st.HotPath.Lists == 0 {
		t.Fatalf("stats must surface the hot-path pruning counters: %+v", st.HotPath)
	}

	// Upsert and delete round out the mutation endpoints.
	up, code := post[MutateResponse](t, ts, "/v1/upsert", MutateRequest{
		Corpus:  "main",
		Records: []RecordJSON{{TID: 9001, Text: "replaced text"}},
	})
	if code != http.StatusOK || up.Len != 41 {
		t.Fatalf("upsert: code=%d %+v", code, up)
	}
	del, code := post[MutateResponse](t, ts, "/v1/delete", DeleteRequest{Corpus: "main", TIDs: []int{9001}})
	if code != http.StatusOK || del.Len != 40 {
		t.Fatalf("delete: code=%d %+v", code, del)
	}
}

// TestServeBatchAndJoin exercises /v1/batch (with partial cache hits) and
// /v1/join.
func TestServeBatchAndJoin(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2}, 30)
	records := testRecords(30)
	q0 := records[0].Text

	// Prime the cache with one of the batch's queries.
	post[SelectResponse](t, ts, "/v1/select", SelectRequest{Predicate: "Jaccard", Query: q0, Limit: 5})
	batch, code := post[BatchResponse](t, ts, "/v1/batch", BatchRequest{
		Predicate: "Jaccard",
		Queries:   []string{q0, records[1].Text, "zzzz unmatched query"},
		Limit:     5,
	})
	if code != http.StatusOK || len(batch.Results) != 3 {
		t.Fatalf("batch: code=%d %+v", code, batch)
	}
	if batch.CacheHits != 1 {
		t.Fatalf("batch should reuse the primed entry: %+v", batch)
	}
	if len(batch.Epochs) != 2 {
		t.Fatalf("quiescent batch must report its epoch vector: %+v", batch)
	}
	if len(batch.Results[0]) == 0 || batch.Results[0][0].TID != records[0].TID {
		t.Fatalf("batch self-query missed: %+v", batch.Results[0])
	}
	// A repeated batch is now fully cached and identical.
	batch2, _ := post[BatchResponse](t, ts, "/v1/batch", BatchRequest{
		Predicate: "Jaccard",
		Queries:   []string{q0, records[1].Text, "zzzz unmatched query"},
		Limit:     5,
	})
	if batch2.CacheHits != 3 || !reflect.DeepEqual(batch2.Results, batch.Results) {
		t.Fatalf("warm batch must be fully cached and bit-identical: hits=%d", batch2.CacheHits)
	}

	join, code := post[JoinResponse](t, ts, "/v1/join", JoinRequest{
		Predicate: "Jaccard",
		Theta:     0.99,
		Probe:     []RecordJSON{{TID: 1, Text: records[0].Text}},
	})
	if code != http.StatusOK || join.Count == 0 {
		t.Fatalf("join: code=%d %+v", code, join)
	}
}

// TestServeCorporaAndErrors covers runtime corpus creation and the error
// statuses.
func TestServeCorporaAndErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1}, 10)

	info, code := post[CorpusInfo](t, ts, "/v1/corpora", CreateCorpusRequest{
		Name:    "extra",
		Shards:  2,
		Records: []RecordJSON{{TID: 1, Text: "alpha beta"}, {TID: 2, Text: "gamma delta"}},
	})
	if code != http.StatusCreated || info.Len != 2 || info.Shards != 2 {
		t.Fatalf("create corpus: code=%d %+v", code, info)
	}
	list, code := get[map[string][]CorpusInfo](t, ts, "/v1/corpora")
	if code != http.StatusOK || len(list["corpora"]) != 2 {
		t.Fatalf("list corpora: code=%d %+v", code, list)
	}
	// With two corpora loaded, an empty corpus name is ambiguous.
	if _, code := post[map[string]string](t, ts, "/v1/select", SelectRequest{Predicate: "BM25", Query: "x"}); code != http.StatusNotFound {
		t.Fatalf("ambiguous corpus must 404, got %d", code)
	}
	cases := []struct {
		path string
		body any
		want int
	}{
		{"/v1/corpora", CreateCorpusRequest{Name: "extra"}, http.StatusConflict},
		{"/v1/corpora", CreateCorpusRequest{Name: "bad\x1fname"}, http.StatusBadRequest},
		{"/v1/select", SelectRequest{Corpus: "nope", Predicate: "BM25", Query: "x"}, http.StatusNotFound},
		{"/v1/select", SelectRequest{Corpus: "main", Predicate: "NoSuch", Query: "x"}, http.StatusBadRequest},
		{"/v1/select", SelectRequest{Corpus: "main", Query: "x"}, http.StatusBadRequest},
		{"/v1/select", SelectRequest{Corpus: "main", Predicate: "BM25", Query: "x", Limit: -1}, http.StatusBadRequest},
		{"/v1/insert", MutateRequest{Corpus: "main", Records: []RecordJSON{{TID: 1, Text: "dup"}}}, http.StatusBadRequest},
		{"/v1/delete", DeleteRequest{Corpus: "main", TIDs: []int{424242}}, http.StatusBadRequest},
	}
	for _, c := range cases {
		body, code := post[map[string]string](t, ts, c.path, c.body)
		if code != c.want {
			t.Fatalf("%s %+v: code=%d (%v), want %d", c.path, c.body, code, body, c.want)
		}
		if body["error"] == "" {
			t.Fatalf("%s: error body missing", c.path)
		}
	}
	if _, code := get[map[string]string](t, ts, "/healthz"); code != http.StatusOK {
		t.Fatal("healthz")
	}
}

// TestServeAdmission fills the in-flight semaphore and checks immediate
// 429 rejection, plus the per-request deadline mapping to 504.
func TestServeAdmission(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 1, MaxInFlight: 2}, 10)
	s.sem <- struct{}{}
	s.sem <- struct{}{}
	body, code := post[map[string]string](t, ts, "/v1/select", SelectRequest{Predicate: "BM25", Query: "x"})
	if code != http.StatusTooManyRequests || body["error"] == "" {
		t.Fatalf("full server must 429: code=%d %v", code, body)
	}
	<-s.sem
	<-s.sem
	if st := s.stats(); st.Rejected != 1 {
		t.Fatalf("rejected counter: %+v", st)
	}
	// Stats and health stay reachable regardless of admission.
	if _, code := get[Stats](t, ts, "/v1/stats"); code != http.StatusOK {
		t.Fatal("stats must bypass admission")
	}

	slow := New(Config{Shards: 1, RequestTimeout: time.Nanosecond})
	if err := slow.AddCorpus("main", testRecords(10)); err != nil {
		t.Fatal(err)
	}
	tss := httptest.NewServer(slow.Handler())
	defer tss.Close()
	resp, err := http.Post(tss.URL+"/v1/select", "application/json",
		bytes.NewReader([]byte(`{"predicate":"BM25","query":"x"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline must 504, got %d", resp.StatusCode)
	}
}

// TestServeConcurrentMutationFreshness is the serving-under-mutation race
// test: clients hammer /v1/select while a mutator flips a marker record in
// and out of the corpus. Every response reporting a shard-epoch vector must
// be consistent with the relation state at exactly that version — the
// cache must never serve a result from a stale epoch under a fresh vector.
// Run under -race this also shakes out data races across the handler, the
// sharded views and the cache.
func TestServeConcurrentMutationFreshness(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 2, CacheEntries: 512}, 30)
	const markerTID = 77777
	const markerText = "zzyzx flibber quux corporation"

	// expected maps an epoch-vector fingerprint to whether the marker
	// record exists at that version. Only the mutator writes it, keyed by
	// the vectors returned from its own mutations.
	var (
		expected sync.Map // string -> bool
		wg       sync.WaitGroup
		checked  atomic.Int64
		hits     atomic.Int64
	)
	fingerprint := func(epochs []uint64) string { return fmt.Sprint(epochs) }

	// Seed: marker absent at the initial vector.
	expected.Store(fingerprint(s.stats().Corpora[0].Epochs), false)

	wg.Add(1)
	go func() { // mutator
		defer wg.Done()
		present := false
		for i := 0; i < 60; i++ {
			var mr MutateResponse
			var err error
			if !present {
				err = postOK(ts, "/v1/insert", MutateRequest{
					Records: []RecordJSON{{TID: markerTID, Text: markerText}},
				}, &mr)
			} else {
				err = postOK(ts, "/v1/delete", DeleteRequest{TIDs: []int{markerTID}}, &mr)
			}
			if err != nil {
				t.Error(err)
				return
			}
			present = !present
			expected.Store(fingerprint(mr.Epochs), present)
			time.Sleep(time.Millisecond)
		}
	}()

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() { // selectors
			defer wg.Done()
			for i := 0; i < 150; i++ {
				var resp SelectResponse
				if err := postOK(ts, "/v1/select", SelectRequest{
					Predicate: "BM25",
					Query:     markerText,
				}, &resp); err != nil {
					t.Error(err)
					return
				}
				if resp.Cached {
					hits.Add(1)
				}
				if resp.Epochs == nil {
					continue // raced a mutation; correctly unversioned and uncached
				}
				want, ok := expected.Load(fingerprint(resp.Epochs))
				if !ok {
					continue // vector not yet recorded by the mutator
				}
				got := false
				for _, m := range resp.Matches {
					if m.TID == markerTID {
						got = true
					}
				}
				if got != want.(bool) {
					t.Errorf("epoch %v: marker present=%v, want %v (cached=%v)",
						resp.Epochs, got, want, resp.Cached)
					return
				}
				checked.Add(1)
			}
		}()
	}
	wg.Wait()
	if checked.Load() == 0 {
		t.Fatal("no epoch-consistent responses were checked; test is vacuous")
	}
	if hits.Load() == 0 {
		t.Fatal("no cache hits under load; test did not exercise the cache")
	}
	t.Logf("checked %d versioned responses, %d cache hits", checked.Load(), hits.Load())
}

// TestServeConcurrentDeclarative serves the declarative realization on two
// shards to concurrent /v1/select, /v1/batch and /v1/join clients, with the
// result cache off so that every request probes the predicates. Each answer
// must equal the library's serial answer over the same sharded corpus.
func TestServeConcurrentDeclarative(t *testing.T) {
	const n, limit, theta = 40, 10, 0.5
	_, ts := newTestServer(t, Config{Shards: 2, CacheEntries: -1, Workers: 4}, n)
	records := testRecords(n)
	queries := []string{records[3].Text, records[17].Text, records[30].Text, "pacific hotel group"}
	probe := []RecordJSON{{TID: 1, Text: records[5].Text}, {TID: 2, Text: records[22].Text}}

	lib, err := approxsel.OpenShardedCorpus(records, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"BM25", "GESJaccard"} {
		p, err := lib.Predicate(name, approxsel.WithRealization(approxsel.Declarative))
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]Match, len(queries))
		for i, q := range queries {
			ms, err := approxsel.TopK(p, q, limit)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = toWire(ms)
		}
		pairs, err := approxsel.ApproximateJoinCtx(context.Background(), p, toRecords(probe), theta, approxsel.Workers(1))
		if err != nil {
			t.Fatal(err)
		}
		wantJoin := make([]JoinPair, len(pairs))
		for i, jp := range pairs {
			wantJoin[i] = JoinPair{ProbeTID: jp.ProbeTID, BaseTID: jp.BaseTID, Score: jp.Score}
		}
		if len(wantJoin) == 0 || len(want[0]) == 0 {
			t.Fatalf("%s: empty serial answers leave nothing to compare", name)
		}

		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				i := g % len(queries)
				var sel SelectResponse
				if err := postOK(ts, "/v1/select", SelectRequest{Predicate: name, Realization: "declarative", Query: queries[i], Limit: limit}, &sel); err != nil {
					t.Error(err)
				} else if !reflect.DeepEqual(sel.Matches, want[i]) {
					t.Errorf("%s select %q: %v, want %v", name, queries[i], sel.Matches, want[i])
				}
				var batch BatchResponse
				if err := postOK(ts, "/v1/batch", BatchRequest{Predicate: name, Realization: "declarative", Queries: queries, Limit: limit}, &batch); err != nil {
					t.Error(err)
				} else if !reflect.DeepEqual(batch.Results, want) {
					t.Errorf("%s batch differs from the serial answers", name)
				}
				var join JoinResponse
				if err := postOK(ts, "/v1/join", JoinRequest{Predicate: name, Realization: "declarative", Theta: theta, Probe: probe}, &join); err != nil {
					t.Error(err)
				} else if !reflect.DeepEqual(join.Pairs, wantJoin) {
					t.Errorf("%s join: %v, want %v", name, join.Pairs, wantJoin)
				}
			}()
		}
		wg.Wait()
	}
}
