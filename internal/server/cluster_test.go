package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	approxsel "repro"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
)

// The served-cluster suite: three full approxserved stacks (server +
// cluster node + durable store) wired over loopback HTTP. It proves the
// acceptance contract end to end — a randomized Insert/Delete/Upsert
// history driven through the HTTP mutation endpoints (landing on random
// nodes, hence exercising leader forwarding), with every replica's
// /v1/hash response at every checkpoint epoch vector bit-identical to a
// single-node corpus replaying the same history; then a leader kill with
// re-election, no acked-write loss, and epoch-consistent reads at the
// pre-failover vector.

type clusterServer struct {
	id    string
	s     *Server
	node  *cluster.Node
	hs    *httptest.Server
	proxy *lateHandler
}

// lateHandler lets the httptest server exist before the Server it fronts.
type lateHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (p *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	h := p.h
	p.mu.Unlock()
	if h == nil {
		http.Error(w, "starting", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// startServerCluster boots count full stacks. A non-nil injector sits on
// every peer link (transport and inbound middleware), so a test can cut a
// member off with a chaos rule.
func startServerCluster(t *testing.T, count, shards int, inj *chaos.Injector) []*clusterServer {
	t.Helper()
	root := t.TempDir()
	nodes := make([]*clusterServer, count)
	peers := make(map[string]string, count)
	for i := range nodes {
		proxy := &lateHandler{}
		hs := httptest.NewServer(proxy)
		t.Cleanup(hs.Close)
		id := fmt.Sprintf("n%d", i)
		nodes[i] = &clusterServer{id: id, hs: hs, proxy: proxy}
		peers[id] = hs.URL
	}
	if inj != nil {
		inj.SetPeers(peers)
	}
	for i, cs := range nodes {
		dir := filepath.Join(root, cs.id)
		srv := New(Config{Shards: shards, DataDir: dir, RequestTimeout: 30 * time.Second})
		var client *http.Client
		if inj != nil {
			client = &http.Client{Transport: inj.Transport(cs.id, &http.Transport{MaxIdleConnsPerHost: 4})}
		}
		node, err := cluster.NewNode(cluster.Config{
			Client:            client,
			ID:                cs.id,
			Peers:             peers,
			DataDir:           dir,
			Backend:           srv.ClusterBackend(),
			HeartbeatInterval: 25 * time.Millisecond,
			ElectionTimeout:   150 * time.Millisecond,
			PullWait:          100 * time.Millisecond,
			Seed:              int64(i + 1),
			Logf:              t.Logf,
		})
		if err != nil {
			t.Fatalf("NewNode %s: %v", cs.id, err)
		}
		srv.AttachCluster(node)
		cs.s, cs.node = srv, node
		cs.proxy.mu.Lock()
		cs.proxy.h = srv.Handler()
		if inj != nil {
			cs.proxy.h = inj.Inbound(cs.id, cs.proxy.h)
		}
		cs.proxy.mu.Unlock()
	}
	for _, cs := range nodes {
		cs.node.Start()
		t.Cleanup(cs.node.Stop)
	}
	return nodes
}

func waitServedLeader(t *testing.T, nodes []*clusterServer, dead map[string]bool) *clusterServer {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		var leader *clusterServer
		ok := true
		for _, cs := range nodes {
			if dead[cs.id] {
				continue
			}
			role, _, lid := cs.node.Role()
			if role == cluster.RoleLeader {
				if leader != nil {
					ok = false
					break
				}
				leader = cs
			}
			if lid == "" || dead[lid] {
				ok = false
			}
		}
		if ok && leader != nil {
			return leader
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("no stable leader")
	return nil
}

// postJSON posts v and decodes the response into out (when non-nil),
// returning the HTTP status.
func postJSON(t *testing.T, baseURL, path string, v, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding: %v", path, err)
		}
	}
	return resp.StatusCode
}

// postJSONRetry retries 503s (leaderless windows) up to the deadline.
func postJSONRetry(t *testing.T, baseURL, path string, v, out any) int {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		code := postJSON(t, baseURL, path, v, out)
		if code != http.StatusServiceUnavailable && code != http.StatusGatewayTimeout || time.Now().After(deadline) {
			return code
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func serverClusterData(t *testing.T) []approxsel.Record {
	t.Helper()
	ds, err := approxsel.GenerateDirty(approxsel.CompanyNames(60, 7), approxsel.Abbreviations(), approxsel.DirtyParams{
		Size: 150, NumClean: 30, Dist: approxsel.Uniform,
		ErroneousPct: 0.9, ErrorExtent: 0.08,
		TokenSwapPct: 0.20, AbbrPct: 0.40, Seed: 31,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return ds.Records
}

func toWireRecords(rs []approxsel.Record) []RecordJSON {
	out := make([]RecordJSON, len(rs))
	for i, r := range rs {
		out[i] = RecordJSON{TID: r.TID, Text: r.Text}
	}
	return out
}

// hashEverywhere asserts every live replica answers the (query, vector)
// request with the same hash, and that it matches want.
func hashEverywhere(t *testing.T, nodes []*clusterServer, dead map[string]bool, query string, vec []uint64, want string) {
	t.Helper()
	for _, cs := range nodes {
		if dead[cs.id] {
			continue
		}
		var hr HashResponse
		code := postJSONRetry(t, cs.hs.URL, "/v1/hash", HashRequest{
			Corpus: "c", Predicate: "Jaccard", Query: query, MinEpochs: vec,
		}, &hr)
		if code != http.StatusOK {
			t.Fatalf("hash on %s: HTTP %d", cs.id, code)
		}
		if hr.Hash != want {
			t.Fatalf("hash on %s for %q at %v = %s, want %s", cs.id, query, vec, hr.Hash, want)
		}
	}
}

func refHash(t *testing.T, ref *approxsel.ShardedCorpus, query string, vec []uint64) string {
	t.Helper()
	p, err := ref.Predicate("Jaccard")
	if err != nil {
		t.Fatal(err)
	}
	ms, err := p.Select(query)
	if err != nil {
		t.Fatal(err)
	}
	return resultHash(ms, vec)
}

func TestServedClusterDifferentialAndFailover(t *testing.T) {
	recs := serverClusterData(t)
	const shards = 3
	nodes := startServerCluster(t, 3, shards, nil)
	leader := waitServedLeader(t, nodes, nil)

	// Create the corpus at the cluster (landing on a random node: corpus
	// creation forwards like any mutation).
	initial := recs[:50]
	code := postJSONRetry(t, nodes[1].hs.URL, "/v1/corpora", CreateCorpusRequest{
		Name: "c", Shards: shards, Records: toWireRecords(initial),
	}, nil)
	if code != http.StatusCreated && code != http.StatusOK {
		t.Fatalf("create corpus: HTTP %d", code)
	}

	// The single-node reference replays the identical history locally.
	ref, err := approxsel.OpenShardedCorpus(initial, shards)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(41))
	live := make([]int, 0, len(initial))
	for _, r := range initial {
		live = append(live, r.TID)
	}
	next := 50
	queries := []string{recs[3].Text, recs[17].Text, recs[90].Text}
	var lastVec []uint64

	checkpoint := func() {
		if lastVec == nil {
			return
		}
		for _, q := range queries {
			hashEverywhere(t, nodes, nil, q, lastVec, refHash(t, ref, q, lastVec))
		}
	}

	for step := 0; step < 18; step++ {
		target := nodes[rng.Intn(len(nodes))].hs.URL
		var mr MutateResponse
		switch k := rng.Intn(3); {
		case k == 0 && next+2 <= len(recs):
			batch := recs[next : next+2]
			if code := postJSONRetry(t, target, "/v1/insert", MutateRequest{Corpus: "c", Records: toWireRecords(batch)}, &mr); code != http.StatusOK {
				t.Fatalf("insert: HTTP %d", code)
			}
			if err := ref.Insert(batch...); err != nil {
				t.Fatal(err)
			}
			live = append(live, batch[0].TID, batch[1].TID)
			next += 2
		case k == 1 && len(live) > 4:
			i := rng.Intn(len(live))
			if code := postJSONRetry(t, target, "/v1/delete", DeleteRequest{Corpus: "c", TIDs: []int{live[i]}}, &mr); code != http.StatusOK {
				t.Fatalf("delete: HTTP %d", code)
			}
			if err := ref.Delete(live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		default:
			i := rng.Intn(len(live))
			rec := approxsel.Record{TID: live[i], Text: recs[rng.Intn(len(recs))].Text}
			if code := postJSONRetry(t, target, "/v1/upsert", MutateRequest{Corpus: "c", Records: []RecordJSON{{TID: rec.TID, Text: rec.Text}}}, &mr); code != http.StatusOK {
				t.Fatalf("upsert: HTTP %d", code)
			}
			if err := ref.Upsert(rec); err != nil {
				t.Fatal(err)
			}
		}
		lastVec = mr.Epochs
		refVec := ref.Epochs()
		for i := range refVec {
			if refVec[i] != lastVec[i] {
				t.Fatalf("step %d: cluster acked %v, reference at %v", step, lastVec, refVec)
			}
		}
		if step%6 == 5 {
			checkpoint()
		}
	}
	checkpoint()

	// Kill the leader without ceremony — the SIGKILL analogue: its loops
	// stop and its socket drops mid-stream. Every mutation above was acked
	// (HTTP 200 ⇒ majority holds it), so nothing may be lost.
	dead := map[string]bool{leader.id: true}
	leader.node.Stop()
	leader.hs.CloseClientConnections()
	leader.hs.Close()

	next2 := waitServedLeader(t, nodes, dead)
	if next2.id == leader.id {
		t.Fatal("dead leader re-elected")
	}
	// Post-failover reads at the pre-failover vector stay bit-identical.
	for _, q := range queries {
		hashEverywhere(t, nodes, dead, q, lastVec, refHash(t, ref, q, lastVec))
	}
	// And the survivors keep accepting acked writes.
	var mr MutateResponse
	if code := postJSONRetry(t, next2.hs.URL, "/v1/insert", MutateRequest{Corpus: "c", Records: toWireRecords(recs[120:121])}, &mr); code != http.StatusOK {
		t.Fatalf("post-failover insert: HTTP %d", code)
	}
	if err := ref.Insert(recs[120]); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		hashEverywhere(t, nodes, dead, q, mr.Epochs, refHash(t, ref, q, mr.Epochs))
	}

	// The stats cluster block and /healthz role are live on every node.
	for _, cs := range nodes {
		if dead[cs.id] {
			continue
		}
		resp, err := http.Get(cs.hs.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st Stats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.Cluster == nil {
			t.Fatalf("stats on %s: no cluster block", cs.id)
		}
		if st.Cluster.NodeID != cs.id {
			t.Fatalf("stats on %s: node_id %s", cs.id, st.Cluster.NodeID)
		}
		if _, ok := st.Cluster.Applied["c"]; !ok {
			t.Fatalf("stats on %s: no applied position for corpus", cs.id)
		}
		hresp, err := http.Get(cs.hs.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var hz map[string]string
		if err := json.NewDecoder(hresp.Body).Decode(&hz); err != nil {
			t.Fatal(err)
		}
		hresp.Body.Close()
		if hz["role"] != "leader" && hz["role"] != "follower" && hz["role"] != "candidate" {
			t.Fatalf("healthz on %s: role %q", cs.id, hz["role"])
		}
		wantLeader := cs.node.IsLeader()
		if wantLeader != (hz["role"] == "leader") {
			t.Fatalf("healthz on %s: role %q, IsLeader %v", cs.id, hz["role"], wantLeader)
		}
	}
}

// TestEpochConsistentReadWaits: a read carrying a min_epochs vector ahead
// of the replica blocks until the replica catches up (here: forever, so it
// must time out 504 — the stale-replica contract) while a satisfied vector
// answers immediately.
func TestEpochConsistentReadWaits(t *testing.T) {
	recs := serverClusterData(t)
	s := New(Config{Shards: 2, RequestTimeout: 300 * time.Millisecond})
	if err := s.AddCorpus("c", recs[:30]); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	var sr SelectResponse
	code := postJSON(t, hs.URL, "/v1/select", SelectRequest{
		Corpus: "c", Predicate: "Jaccard", Query: recs[0].Text, MinEpochs: []uint64{0, 0},
	}, &sr)
	if code != http.StatusOK {
		t.Fatalf("satisfied min_epochs: HTTP %d", code)
	}
	// A vector the replica will never reach times out with 504.
	code = postJSON(t, hs.URL, "/v1/select", SelectRequest{
		Corpus: "c", Predicate: "Jaccard", Query: recs[0].Text, MinEpochs: []uint64{99, 99},
	}, nil)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("unreachable min_epochs: HTTP %d, want 504", code)
	}
	// A malformed vector (wrong shard count) is the caller's fault.
	code = postJSON(t, hs.URL, "/v1/select", SelectRequest{
		Corpus: "c", Predicate: "Jaccard", Query: recs[0].Text, MinEpochs: []uint64{1, 1, 1},
	}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("malformed min_epochs: HTTP %d, want 400", code)
	}
}

// TestResultHashCanonical pins the hash to content: same ranking and
// vector agree, any perturbation disagrees.
func TestResultHashCanonical(t *testing.T) {
	ms := []core.Match{{TID: 3, Score: 0.75}, {TID: 9, Score: 0.5}}
	vec := []uint64{4, 2}
	h1 := resultHash(ms, vec)
	if h2 := resultHash([]core.Match{{TID: 3, Score: 0.75}, {TID: 9, Score: 0.5}}, []uint64{4, 2}); h2 != h1 {
		t.Fatal("equal inputs, different hash")
	}
	if resultHash(ms[:1], vec) == h1 {
		t.Fatal("truncated ranking, same hash")
	}
	if resultHash([]core.Match{{TID: 3, Score: 0.75}, {TID: 9, Score: 0.5000001}}, vec) == h1 {
		t.Fatal("perturbed score, same hash")
	}
	if resultHash([]core.Match{{TID: 9, Score: 0.5}, {TID: 3, Score: 0.75}}, vec) == h1 {
		t.Fatal("reordered ranking, same hash")
	}
	if resultHash(ms, []uint64{4, 3}) == h1 {
		t.Fatal("different vector, same hash")
	}
}

// TestMinEpochsReadWaitsForUnknownCorpus is the read-your-writes
// regression: corpus creation is acknowledged by a majority, so the third
// replica may legitimately not know the corpus when a client presents the
// epoch vector of an acked write. Such a read must wait for the replica to
// catch up — it used to 404 in resolve before awaitEpochs ever ran. The
// follower is held back with a chaos partition, so the lag is certain, not
// a race.
func TestMinEpochsReadWaitsForUnknownCorpus(t *testing.T) {
	recs := serverClusterData(t)
	const shards = 2
	inj := chaos.New(1)
	nodes := startServerCluster(t, 3, shards, inj)
	leader := waitServedLeader(t, nodes, nil)
	var held *clusterServer
	for _, cs := range nodes {
		if cs != leader {
			held = cs
			break
		}
	}
	inj.SetRules([]chaos.Rule{{From: held.id, To: "*", Kind: chaos.KindPartition}})

	code := postJSONRetry(t, leader.hs.URL, "/v1/corpora", CreateCorpusRequest{
		Name: "c", Shards: shards, Records: toWireRecords(recs[:20]),
	}, nil)
	if code != http.StatusCreated && code != http.StatusOK {
		t.Fatalf("create corpus: HTTP %d", code)
	}
	var mr MutateResponse
	if code := postJSONRetry(t, leader.hs.URL, "/v1/insert", MutateRequest{Corpus: "c", Records: toWireRecords(recs[20:21])}, &mr); code != http.StatusOK {
		t.Fatalf("insert: HTTP %d", code)
	}
	query := recs[20].Text
	var want HashResponse
	if code := postJSON(t, leader.hs.URL, "/v1/hash", HashRequest{Corpus: "c", Predicate: "Jaccard", Query: query, MinEpochs: mr.Epochs}, &want); code != http.StatusOK {
		t.Fatalf("hash on leader: HTTP %d", code)
	}

	// Without a vector the held follower answers for what it has: nothing.
	if code := postJSON(t, held.hs.URL, "/v1/select", SelectRequest{Corpus: "c", Predicate: "Jaccard", Query: query}, nil); code != http.StatusNotFound {
		t.Fatalf("plain read of a corpus the replica lacks: HTTP %d, want 404", code)
	}
	// With the acked vector it must block until the replica has caught up.
	before := held.s.met.requests.Value()
	type reply struct {
		code int
		hr   HashResponse
	}
	done := make(chan reply, 1)
	go func() {
		var r reply
		r.code = postJSON(t, held.hs.URL, "/v1/hash", HashRequest{Corpus: "c", Predicate: "Jaccard", Query: query, MinEpochs: mr.Epochs}, &r.hr)
		done <- r
	}()
	for held.s.met.requests.Value() == before {
		time.Sleep(time.Millisecond)
	}
	select {
	case r := <-done:
		t.Fatalf("epoch-consistent read answered HTTP %d while the replica was still partitioned", r.code)
	default:
	}
	inj.SetRules(nil)
	r := <-done
	if r.code != http.StatusOK {
		t.Fatalf("epoch-consistent read on the healed replica: HTTP %d", r.code)
	}
	if r.hr.Hash != want.Hash {
		t.Fatalf("held replica hash %s at %v, leader %s at %v", r.hr.Hash, r.hr.Epochs, want.Hash, want.Epochs)
	}
}

// TestMinEpochsUnknownCorpusTimesOut: the wait is bounded by the request
// deadline and ends in 504 (retry elsewhere), never in a hang or a 404.
func TestMinEpochsUnknownCorpusTimesOut(t *testing.T) {
	s := New(Config{RequestTimeout: 40 * time.Millisecond})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	for path, req := range map[string]any{
		"/v1/select": SelectRequest{Corpus: "nope", Predicate: "Jaccard", Query: "q", MinEpochs: []uint64{1}},
		"/v1/batch":  BatchRequest{Corpus: "nope", Predicate: "Jaccard", Queries: []string{"q"}, MinEpochs: []uint64{1}},
		"/v1/hash":   HashRequest{Corpus: "nope", Predicate: "Jaccard", Query: "q", MinEpochs: []uint64{1}},
		"/v1/join":   JoinRequest{Corpus: "nope", Predicate: "Jaccard", Theta: 0.5, MinEpochs: []uint64{1}},
	} {
		if code := postJSON(t, hs.URL, path, req, nil); code != http.StatusGatewayTimeout {
			t.Errorf("%s with min_epochs on an unknown corpus: HTTP %d, want 504", path, code)
		}
	}
	if code := postJSON(t, hs.URL, "/v1/select", SelectRequest{Corpus: "nope", Predicate: "Jaccard", Query: "q"}, nil); code != http.StatusNotFound {
		t.Errorf("plain select on an unknown corpus: HTTP %d, want 404", code)
	}
}
