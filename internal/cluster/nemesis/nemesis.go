// Package nemesis is the approxchaos drill harness: it drives an
// in-process replicated cluster through randomized fault schedules —
// partitions (full, asymmetric, majority-severing), lossy and slow links,
// duplicated deliveries, crash+rejoin, clock-skew-style lease expiry and a
// final rolling restart — while a concurrent client keeps writing and
// reading. After every heal it asserts the paper's replicated contract:
// identical /v1/hash on every replica at a pinned epoch vector, no
// acknowledged write lost, and watch resume delivering every event exactly
// once on every node. Run returns the tallies as a Report.
package nemesis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	approxsel "repro"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/server"
)

// Cluster timings: fast enough for a drill, slow enough for -race CI.
// RPCTimeout defaults to 2×ElectionTimeout = 300ms, so a follower's
// degraded budget (RetryBudget × RPCTimeout) is 900ms.
const (
	heartbeatInterval = 25 * time.Millisecond
	electionTimeout   = 150 * time.Millisecond
	pullWait          = 100 * time.Millisecond
	retryBudget       = 3
)

// Catalog names every scheduled step; a randomized schedule shuffles all
// of them (so every fault kind fires) and always ends in rolling_restart.
var Catalog = []string{
	"partition_leader",
	"partition_follower",
	"asym_partition",
	"flaky_network",
	"dup_deliver",
	"skewed_lease",
	"crash_rejoin",
}

// Options configure one drill.
type Options struct {
	// Nodes is the cluster size (default 3).
	Nodes int
	// Records is the initial corpus size (default 400).
	Records int
	// Shards is the per-corpus shard count (default 2).
	Shards int
	// Seed drives data generation, chaos rolls and the schedule shuffle.
	Seed int64
	// Steps, when set, runs exactly this schedule (names from Catalog plus
	// "rolling_restart"); empty runs the shuffled full catalog ending in a
	// rolling restart.
	Steps []string
	// Logf, when set, receives one line per step.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Nodes <= 0 {
		o.Nodes = 3
	}
	if o.Records <= 0 {
		o.Records = 400
	}
	if o.Shards <= 0 {
		o.Shards = 2
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// mutableHandler lets the httptest listener outlive the server instance it
// fronts (restarts swap the handler under the same URL).
type mutableHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (p *mutableHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	h := p.h
	p.mu.Unlock()
	if h == nil {
		http.Error(w, "down", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

func (p *mutableHandler) set(h http.Handler) {
	p.mu.Lock()
	p.h = h
	p.mu.Unlock()
}

// nmNode is one cluster member: a fixed identity and listener, with the
// server+node pair behind it replaceable across crashes and restarts.
type nmNode struct {
	id    string
	idx   int
	hs    *httptest.Server
	proxy *mutableHandler

	mu   sync.Mutex
	srv  *server.Server
	node *cluster.Node
	up   bool
}

func (n *nmNode) isUp() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.up
}

func (n *nmNode) clusterNode() *cluster.Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.node
}

type harness struct {
	o      Options
	inj    *chaos.Injector
	rng    *rand.Rand
	nodes  []*nmNode
	peers  map[string]string
	client *http.Client
	logf   func(string, ...any)

	// pauseMu serializes client writes against convergence checks: the
	// client holds it per write, a checkpoint holds it for the whole check
	// so the pinned vector stays the cluster's final vector.
	pauseMu    sync.Mutex
	clientStop chan struct{}
	clientDone chan struct{}

	mu        sync.Mutex
	acked     map[int]string // TID -> text, for every acknowledged write
	requests  int
	retries   int
	failures  int
	staleSeen int
	nextTID   int
	sentinel  int

	queries    []string
	hashChecks int
	hashOK     bool
}

// Run executes one nemesis drill and returns its report.
func Run(o Options) (Report, error) {
	o = o.withDefaults()
	h := &harness{
		o:          o,
		inj:        chaos.New(o.Seed),
		rng:        rand.New(rand.NewSource(o.Seed + 77)),
		peers:      make(map[string]string, o.Nodes),
		client:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
		clientStop: make(chan struct{}),
		clientDone: make(chan struct{}),
		acked:      make(map[int]string),
		nextTID:    100000,
		hashOK:     true,
		logf:       func(string, ...any) {},
	}
	if o.Logf != nil {
		h.logf = o.Logf
	}
	rep := Report{Nodes: o.Nodes, Records: o.Records, Seed: o.Seed, HashOK: true, WatchExactlyOnce: true}
	faultsBefore := chaos.FaultCounts()

	if err := h.setup(); err != nil {
		return rep, err
	}
	defer h.teardown()

	schedule := o.Steps
	if len(schedule) == 0 {
		schedule = append([]string(nil), Catalog...)
		h.rng.Shuffle(len(schedule), func(i, j int) { schedule[i], schedule[j] = schedule[j], schedule[i] })
		schedule = append(schedule, "rolling_restart")
	}

	go h.clientLoop()
	var reelections, convergences []int64
	for _, step := range schedule {
		h.logf("nemesis: step %s", step)
		res, err := h.runStep(step, &rep)
		if err != nil {
			close(h.clientStop)
			<-h.clientDone
			return rep, fmt.Errorf("nemesis: step %s: %w", step, err)
		}
		rep.Steps = append(rep.Steps, res)
		if res.ReelectionMS > 0 {
			reelections = append(reelections, res.ReelectionMS)
		}
		convergences = append(convergences, res.ConvergenceMS)
	}
	close(h.clientStop)
	<-h.clientDone

	// Final convergence, then the acked-write and watch-resume audits.
	if _, ok, err := h.converge(time.Now()); err != nil {
		return rep, err
	} else if !ok {
		h.hashOK = false
	}
	loss, err := h.auditAckedWrites()
	if err != nil {
		return rep, err
	}
	events, exactlyOnce, err := h.watchCheck()
	if err != nil {
		return rep, err
	}

	h.mu.Lock()
	rep.AckedWrites = len(h.acked)
	rep.AckedWriteLoss = loss
	rep.ClientRequests = h.requests
	rep.ClientRetries = h.retries
	rep.ClientFailures = h.failures
	rep.StaleReadsObserved = h.staleSeen
	rep.HashChecks = h.hashChecks
	rep.HashOK = h.hashOK
	h.mu.Unlock()
	rep.WatchEvents = events
	rep.WatchExactlyOnce = exactlyOnce
	rep.MedianReelectionMS = median(reelections)
	rep.MedianConvergenceMS = median(convergences)

	rep.FaultsInjected = make(map[string]uint64)
	for k, v := range chaos.FaultCounts() {
		if d := v - faultsBefore[k]; d > 0 {
			rep.FaultsInjected[string(k)] = d
			rep.TotalFaults += d
		}
	}
	rep.DistinctFaultKinds = len(rep.FaultsInjected)
	rep.MetricsFaultsTotal = h.scrapeFaultMetrics()
	return rep, nil
}

// setup builds the cluster, elects a leader and loads the corpus through
// the replicated write path.
func (h *harness) setup() error {
	h.nodes = make([]*nmNode, h.o.Nodes)
	for i := range h.nodes {
		proxy := &mutableHandler{}
		hs := httptest.NewServer(proxy)
		id := fmt.Sprintf("n%d", i)
		h.nodes[i] = &nmNode{id: id, idx: i, hs: hs, proxy: proxy}
		h.peers[id] = hs.URL
	}
	h.inj.SetPeers(h.peers)
	for i := range h.nodes {
		if err := h.startNode(i); err != nil {
			return err
		}
	}
	if _, err := h.awaitLeader("", 15*time.Second); err != nil {
		return err
	}

	ds, err := approxsel.GenerateDirty(approxsel.CompanyNames(h.o.Records/4+20, 7), approxsel.Abbreviations(), approxsel.DirtyParams{
		Size: h.o.Records, NumClean: h.o.Records / 4, Dist: approxsel.Uniform,
		ErroneousPct: 0.8, ErrorExtent: 0.10, TokenSwapPct: 0.2, AbbrPct: 0.3, Seed: h.o.Seed,
	})
	if err != nil {
		return err
	}
	wire := make([]server.RecordJSON, len(ds.Records))
	for i, rec := range ds.Records {
		wire[i] = server.RecordJSON{TID: rec.TID, Text: rec.Text}
	}
	for i := 0; i < 3 && i < len(ds.Records); i++ {
		h.queries = append(h.queries, ds.Records[i*7%len(ds.Records)].Text)
	}
	body, _ := json.Marshal(server.CreateCorpusRequest{Name: "main", Shards: h.o.Shards, Records: wire})
	if err := h.postRetry("/v1/corpora", body, 20*time.Second, nil); err != nil {
		return fmt.Errorf("creating corpus: %w", err)
	}
	return nil
}

func (h *harness) teardown() {
	h.inj.SetRules(nil)
	for _, n := range h.nodes {
		if nd := n.clusterNode(); nd != nil && n.isUp() {
			nd.Stop()
		}
		n.hs.Close()
	}
}

// startNode builds a fresh server + cluster node behind the member's fixed
// listener: the cold-join path (state replicates back via snapshot join).
func (h *harness) startNode(idx int) error {
	n := h.nodes[idx]
	srv := server.New(server.Config{Shards: h.o.Shards, CacheEntries: 64, MaxInFlight: 64})
	node, err := cluster.NewNode(cluster.Config{
		ID:                n.id,
		Peers:             h.peers,
		Backend:           srv.ClusterBackend(),
		HeartbeatInterval: heartbeatInterval,
		ElectionTimeout:   electionTimeout,
		PullWait:          pullWait,
		RetryBudget:       retryBudget,
		Seed:              h.o.Seed + int64(idx) + 1,
		Client:            &http.Client{Transport: h.inj.Transport(n.id, &http.Transport{MaxIdleConnsPerHost: 4})},
	})
	if err != nil {
		return err
	}
	srv.AttachCluster(node)
	n.mu.Lock()
	n.srv, n.node, n.up = srv, node, true
	n.mu.Unlock()
	n.proxy.set(h.inj.Inbound(n.id, srv.Handler()))
	node.Start()
	return nil
}

// stopNode crashes (or gracefully retires) the member: its node loops
// stop, its listener answers 503.
func (h *harness) stopNode(idx int) {
	n := h.nodes[idx]
	n.mu.Lock()
	node := n.node
	n.up = false
	n.mu.Unlock()
	n.proxy.set(nil)
	if node != nil {
		node.Stop()
	}
}

func (h *harness) upNodes() []*nmNode {
	var out []*nmNode
	for _, n := range h.nodes {
		if n.isUp() {
			out = append(out, n)
		}
	}
	return out
}

// leaderNode returns the current leader among up members, or nil.
func (h *harness) leaderNode() *nmNode {
	for _, n := range h.upNodes() {
		if nd := n.clusterNode(); nd != nil && nd.IsLeader() {
			return n
		}
	}
	return nil
}

// awaitLeader waits for a leader among up members, excluding one id.
func (h *harness) awaitLeader(exclude string, timeout time.Duration) (*nmNode, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if l := h.leaderNode(); l != nil && l.id != exclude {
			return l, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil, fmt.Errorf("no leader (excluding %q) within %v", exclude, timeout)
}

// follower picks an up non-leader, preferring a deterministic rotation.
func (h *harness) follower() *nmNode {
	leader := h.leaderNode()
	ups := h.upNodes()
	for _, n := range ups {
		if leader == nil || n.id != leader.id {
			return n
		}
	}
	return nil
}

// ---- client traffic ----

// clientLoop is the concurrent workload: unique-text inserts with
// multi-node retry, plus unpinned reads that watch for the degraded-mode
// stale marker.
func (h *harness) clientLoop() {
	defer close(h.clientDone)
	i := 0
	for {
		select {
		case <-h.clientStop:
			return
		default:
		}
		h.pauseMu.Lock()
		h.mu.Lock()
		tid := h.nextTID
		h.nextTID++
		h.mu.Unlock()
		text := fmt.Sprintf("nemesis record w%d x%d y%d", tid, tid*7%9973, tid*13%9967)
		h.write(tid, text, 30*time.Second)
		h.pauseMu.Unlock()
		if i%5 == 4 {
			h.probeStale(h.nodes[i%len(h.nodes)])
		}
		i++
		select {
		case <-h.clientStop:
			return
		case <-time.After(25 * time.Millisecond):
		}
	}
}

// write inserts one record, rotating across up nodes and honoring
// Retry-After, until acknowledged or the deadline passes. Only a deadline
// exhaustion counts as a failed client request.
func (h *harness) write(tid int, text string, timeout time.Duration) bool {
	body, _ := json.Marshal(server.MutateRequest{Corpus: "main", Records: []server.RecordJSON{{TID: tid, Text: text}}})
	h.mu.Lock()
	h.requests++
	h.mu.Unlock()
	deadline := time.Now().Add(timeout)
	attempt := 0
	for time.Now().Before(deadline) {
		ups := h.upNodes()
		if len(ups) == 0 {
			time.Sleep(50 * time.Millisecond)
			continue
		}
		n := ups[attempt%len(ups)]
		attempt++
		resp, err := h.client.Post(n.hs.URL+"/v1/insert", "application/json", bytes.NewReader(body))
		if err != nil {
			h.countRetry()
			time.Sleep(25 * time.Millisecond)
			continue
		}
		if resp.StatusCode == http.StatusOK {
			var mr server.MutateResponse
			derr := json.NewDecoder(resp.Body).Decode(&mr)
			resp.Body.Close()
			if derr == nil {
				h.mu.Lock()
				h.acked[tid] = text
				h.mu.Unlock()
				return true
			}
			h.countRetry()
			continue
		}
		wait := 25 * time.Millisecond
		if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs > 0 {
			if d := time.Duration(secs) * time.Second; d < 500*time.Millisecond {
				wait = d
			} else {
				wait = 500 * time.Millisecond
			}
		}
		rb, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		// At-least-once anomaly: under duplicate delivery a retried (or
		// chaos-duplicated) forwarded insert can apply before the attempt
		// whose response we see. The TID is this client's unique key, so
		// "existing TID" means an earlier delivery was applied and
		// majority-acked — the write succeeded.
		if resp.StatusCode == http.StatusBadRequest && strings.Contains(string(rb), "insert of existing TID") {
			h.mu.Lock()
			h.acked[tid] = text
			h.mu.Unlock()
			return true
		}
		h.countRetry()
		time.Sleep(wait)
	}
	h.mu.Lock()
	h.failures++
	h.mu.Unlock()
	return false
}

func (h *harness) countRetry() {
	h.mu.Lock()
	h.retries++
	h.mu.Unlock()
}

// probeStale issues one unpinned read and records an X-Approx-Stale
// sighting — the degraded follower's graceful answer.
func (h *harness) probeStale(n *nmNode) {
	if !n.isUp() || len(h.queries) == 0 {
		return
	}
	body, _ := json.Marshal(server.SelectRequest{Corpus: "main", Predicate: "Jaccard", Query: h.queries[0], Limit: 3})
	resp, err := h.client.Post(n.hs.URL+"/v1/select", "application/json", bytes.NewReader(body))
	if err != nil {
		return
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.Header.Get("X-Approx-Stale") != "" {
		h.mu.Lock()
		h.staleSeen++
		h.mu.Unlock()
	}
}

// postRetry POSTs to up nodes in rotation, retrying transient statuses
// (503 leaderless, 504 catching up) until the deadline.
func (h *harness) postRetry(path string, body []byte, timeout time.Duration, out any) error {
	deadline := time.Now().Add(timeout)
	attempt := 0
	var lastErr error
	for time.Now().Before(deadline) {
		ups := h.upNodes()
		if len(ups) == 0 {
			time.Sleep(50 * time.Millisecond)
			continue
		}
		n := ups[attempt%len(ups)]
		attempt++
		resp, err := h.client.Post(n.hs.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			lastErr = err
			time.Sleep(25 * time.Millisecond)
			continue
		}
		if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusCreated {
			defer resp.Body.Close()
			if out != nil {
				return json.NewDecoder(resp.Body).Decode(out)
			}
			_, err := io.Copy(io.Discard, resp.Body)
			return err
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusGatewayTimeout {
			lastErr = fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, b)
			time.Sleep(25 * time.Millisecond)
			continue
		}
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, b)
	}
	return fmt.Errorf("POST %s: deadline exhausted: %w", path, lastErr)
}

// pinSentinel inserts one unique sentinel record through the replicated
// write path and returns the acked epoch vector — the version every
// replica must reach for a convergence check.
func (h *harness) pinSentinel() ([]uint64, error) {
	h.mu.Lock()
	h.sentinel++
	sn := h.sentinel
	h.mu.Unlock()
	tid := (1 << 30) + sn
	text := fmt.Sprintf("nemesis sentinel s%d t%d", sn, sn*3+1)
	body, _ := json.Marshal(server.MutateRequest{Corpus: "main", Records: []server.RecordJSON{{TID: tid, Text: text}}})
	var mr server.MutateResponse
	if err := h.postRetry("/v1/insert", body, 20*time.Second, &mr); err != nil {
		return nil, err
	}
	h.mu.Lock()
	h.acked[tid] = text
	h.mu.Unlock()
	return mr.Epochs, nil
}

// converge pauses the client, pins the cluster's final vector with a
// sentinel write, and requires every up replica to answer every probe
// query with the identical /v1/hash at that vector. Returns the time from
// healedAt to full agreement.
func (h *harness) converge(healedAt time.Time) (int64, bool, error) {
	h.pauseMu.Lock()
	defer h.pauseMu.Unlock()
	if _, err := h.awaitLeader("", 15*time.Second); err != nil {
		return 0, false, err
	}
	pin, err := h.pinSentinel()
	if err != nil {
		return 0, false, err
	}
	ok := true
	for _, q := range h.queries {
		want := ""
		for _, n := range h.upNodes() {
			hb, _ := json.Marshal(server.HashRequest{Corpus: "main", Predicate: "Jaccard", Query: q, Limit: 5, MinEpochs: pin})
			var hr server.HashResponse
			if err := h.nodeRetry(n, "/v1/hash", hb, 20*time.Second, &hr); err != nil {
				return 0, false, fmt.Errorf("hash on %s: %w", n.id, err)
			}
			h.mu.Lock()
			h.hashChecks++
			h.mu.Unlock()
			if want == "" {
				want = hr.Hash
			} else if hr.Hash != want {
				ok = false
				h.logf("nemesis: hash divergence on %s for %q", n.id, q)
			}
		}
	}
	if !ok {
		h.mu.Lock()
		h.hashOK = false
		h.mu.Unlock()
	}
	return time.Since(healedAt).Milliseconds(), ok, nil
}

// nodeRetry POSTs to one specific node, retrying 503/504 (the node may
// still be catching up past the pinned vector).
func (h *harness) nodeRetry(n *nmNode, path string, body []byte, timeout time.Duration, out any) error {
	deadline := time.Now().Add(timeout)
	var lastErr error
	for time.Now().Before(deadline) {
		resp, err := h.client.Post(n.hs.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			lastErr = err
			time.Sleep(25 * time.Millisecond)
			continue
		}
		if resp.StatusCode == http.StatusOK {
			defer resp.Body.Close()
			return json.NewDecoder(resp.Body).Decode(out)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		lastErr = fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, b)
		if resp.StatusCode != http.StatusServiceUnavailable && resp.StatusCode != http.StatusGatewayTimeout {
			return lastErr
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("node %s: deadline exhausted: %w", n.id, lastErr)
}

// ---- steps ----

func (h *harness) runStep(step string, rep *Report) (StepResult, error) {
	switch step {
	case "partition_leader":
		return h.stepPartitionLeader()
	case "partition_follower":
		return h.stepPartitionFollower()
	case "asym_partition":
		return h.stepAsymPartition()
	case "flaky_network":
		return h.stepRules(step, []chaos.Rule{
			{Kind: chaos.KindDrop, P: 0.25},
			{Kind: chaos.KindLatency, P: 0.5, LatencyMS: 15},
		}, time.Second)
	case "dup_deliver":
		return h.stepRules(step, []chaos.Rule{
			{Kind: chaos.KindDuplicate, P: 0.5},
			{Kind: chaos.KindSlowClose, P: 0.3, LatencyMS: 2},
		}, 800*time.Millisecond)
	case "skewed_lease":
		return h.stepSkewedLease()
	case "crash_rejoin":
		return h.stepCrashRejoin()
	case "rolling_restart":
		return h.stepRollingRestart(rep)
	default:
		return StepResult{}, fmt.Errorf("unknown step %q", step)
	}
}

// stepPartitionLeader isolates the leader until the rest elect a
// replacement, measures re-election, heals and converges.
func (h *harness) stepPartitionLeader() (StepResult, error) {
	res := StepResult{Step: "partition_leader", FaultKinds: []string{"partition"}}
	leader, err := h.awaitLeader("", 15*time.Second)
	if err != nil {
		return res, err
	}
	start := time.Now()
	h.inj.SetRules([]chaos.Rule{{From: leader.id, To: "*", Kind: chaos.KindPartition}})
	next, err := h.awaitLeader(leader.id, 15*time.Second)
	if err != nil {
		return res, err
	}
	res.ReelectionMS = time.Since(start).Milliseconds()
	h.logf("nemesis: leader moved %s -> %s in %dms", leader.id, next.id, res.ReelectionMS)
	time.Sleep(300 * time.Millisecond)
	healed := time.Now()
	h.inj.SetRules(nil)
	res.ConvergenceMS, res.HashOK, err = h.converge(healed)
	return res, err
}

// stepPartitionFollower severs one follower past its degraded budget and
// observes the stale-marked reads it serves meanwhile.
func (h *harness) stepPartitionFollower() (StepResult, error) {
	res := StepResult{Step: "partition_follower", FaultKinds: []string{"partition"}}
	if _, err := h.awaitLeader("", 15*time.Second); err != nil {
		return res, err
	}
	f := h.follower()
	if f == nil {
		return res, fmt.Errorf("no follower available")
	}
	h.inj.SetRules([]chaos.Rule{{From: f.id, To: "*", Kind: chaos.KindPartition}})
	// Degraded budget is RetryBudget × RPCTimeout = 900ms; probe after it.
	time.Sleep(1100 * time.Millisecond)
	for i := 0; i < 5; i++ {
		h.probeStale(f)
		time.Sleep(50 * time.Millisecond)
	}
	healed := time.Now()
	h.inj.SetRules(nil)
	var err error
	res.ConvergenceMS, res.HashOK, err = h.converge(healed)
	return res, err
}

// stepAsymPartition replays the pre-vote regression shape: full isolation
// (term must not inflate) then a one-way partition where the follower
// hears the leader but the leader never hears the follower.
func (h *harness) stepAsymPartition() (StepResult, error) {
	res := StepResult{Step: "asym_partition", FaultKinds: []string{"partition", "oneway", "replydrop"}}
	if _, err := h.awaitLeader("", 15*time.Second); err != nil {
		return res, err
	}
	f := h.follower()
	if f == nil {
		return res, fmt.Errorf("no follower available")
	}
	h.inj.SetRules([]chaos.Rule{{From: f.id, To: "*", Kind: chaos.KindPartition}})
	time.Sleep(450 * time.Millisecond)
	h.inj.SetRules([]chaos.Rule{
		{From: f.id, To: "*", Kind: chaos.KindOneWay},
		{From: "*", To: f.id, Kind: chaos.KindReplyDrop},
	})
	time.Sleep(600 * time.Millisecond)
	healed := time.Now()
	h.inj.SetRules(nil)
	var err error
	res.ConvergenceMS, res.HashOK, err = h.converge(healed)
	return res, err
}

// stepRules applies a static rule set to the whole mesh for a hold, then
// heals and converges — the lossy/slow/duplicating link steps.
func (h *harness) stepRules(name string, rules []chaos.Rule, hold time.Duration) (StepResult, error) {
	res := StepResult{Step: name}
	for _, r := range rules {
		res.FaultKinds = append(res.FaultKinds, string(r.Kind))
	}
	h.inj.SetRules(rules)
	time.Sleep(hold)
	healed := time.Now()
	h.inj.SetRules(nil)
	var err error
	res.ConvergenceMS, res.HashOK, err = h.converge(healed)
	return res, err
}

// stepSkewedLease delays every message the leader sends past its own lease
// timeout — the observable effect of a skewed clock under lease-based
// leadership: the cluster must re-elect and the stale leader must yield.
func (h *harness) stepSkewedLease() (StepResult, error) {
	res := StepResult{Step: "skewed_lease", FaultKinds: []string{"latency"}}
	leader, err := h.awaitLeader("", 15*time.Second)
	if err != nil {
		return res, err
	}
	start := time.Now()
	h.inj.SetRules([]chaos.Rule{{From: leader.id, To: "*", Kind: chaos.KindLatency, LatencyMS: 400}})
	next, err := h.awaitLeader(leader.id, 15*time.Second)
	if err != nil {
		return res, err
	}
	res.ReelectionMS = time.Since(start).Milliseconds()
	h.logf("nemesis: skewed lease moved leadership %s -> %s in %dms", leader.id, next.id, res.ReelectionMS)
	time.Sleep(300 * time.Millisecond)
	healed := time.Now()
	h.inj.SetRules(nil)
	res.ConvergenceMS, res.HashOK, err = h.converge(healed)
	return res, err
}

// stepCrashRejoin hard-crashes a follower (no graceful drain), holds the
// outage, then brings a blank member back under the same identity — the
// snapshot-join rejoin path.
func (h *harness) stepCrashRejoin() (StepResult, error) {
	res := StepResult{Step: "crash_rejoin", FaultKinds: []string{"crash"}}
	if _, err := h.awaitLeader("", 15*time.Second); err != nil {
		return res, err
	}
	f := h.follower()
	if f == nil {
		return res, fmt.Errorf("no follower available")
	}
	h.stopNode(f.idx)
	time.Sleep(500 * time.Millisecond)
	healed := time.Now()
	if err := h.startNode(f.idx); err != nil {
		return res, err
	}
	if err := h.awaitHealthy(f.idx, 20*time.Second); err != nil {
		return res, err
	}
	var err error
	res.ConvergenceMS, res.HashOK, err = h.converge(healed)
	return res, err
}

// stepRollingRestart retires and restarts every member in turn — the
// staggered-version upgrade drill. Each member must be healthy (serving
// the corpus) before the next goes down, and no client request may fail.
func (h *harness) stepRollingRestart(rep *Report) (StepResult, error) {
	res := StepResult{Step: "rolling_restart", FaultKinds: []string{"restart"}}
	h.mu.Lock()
	reqBefore, failBefore := h.requests, h.failures
	h.mu.Unlock()
	for idx := range h.nodes {
		if _, err := h.awaitLeader("", 15*time.Second); err != nil {
			return res, err
		}
		h.stopNode(idx)
		time.Sleep(200 * time.Millisecond)
		if err := h.startNode(idx); err != nil {
			return res, err
		}
		if err := h.awaitHealthy(idx, 20*time.Second); err != nil {
			return res, err
		}
	}
	healed := time.Now()
	var err error
	res.ConvergenceMS, res.HashOK, err = h.converge(healed)
	h.mu.Lock()
	rep.RollingRestartRequests = h.requests - reqBefore
	rep.RollingRestartFailures = h.failures - failBefore
	h.mu.Unlock()
	return res, err
}

// awaitHealthy waits until the member serves the corpus again (its
// snapshot join completed).
func (h *harness) awaitHealthy(idx int, timeout time.Duration) error {
	n := h.nodes[idx]
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := h.client.Get(n.hs.URL + "/v1/corpora")
		if err == nil {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && strings.Contains(string(b), `"main"`) {
				return nil
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("node %s did not become healthy within %v", n.id, timeout)
}

// ---- audits ----

// auditAckedWrites verifies every acknowledged write is present on every
// replica at the final converged vector: a pinned top-3 self-probe with
// the record's own (unique) text must rank it.
func (h *harness) auditAckedWrites() (int, error) {
	h.pauseMu.Lock()
	defer h.pauseMu.Unlock()
	pin, err := h.pinSentinel()
	if err != nil {
		return 0, err
	}
	h.mu.Lock()
	acked := make(map[int]string, len(h.acked))
	for tid, text := range h.acked {
		acked[tid] = text
	}
	h.mu.Unlock()
	loss := 0
	for tid, text := range acked {
		for _, n := range h.upNodes() {
			body, _ := json.Marshal(server.SelectRequest{
				Corpus: "main", Predicate: "Jaccard", Query: text, Limit: 3, MinEpochs: pin,
			})
			var sr server.SelectResponse
			if err := h.nodeRetry(n, "/v1/select", body, 20*time.Second, &sr); err != nil {
				return loss, fmt.Errorf("audit select on %s: %w", n.id, err)
			}
			found := false
			for _, m := range sr.Matches {
				if m.TID == tid {
					found = true
					break
				}
			}
			if !found {
				loss++
				h.logf("nemesis: ACKED WRITE LOST: tid %d missing on %s", tid, n.id)
			}
		}
	}
	return loss, nil
}

// watchCheck is the exactly-once resume audit: from a vector captured
// after the final heal, insert near-duplicate pairs, then poll-resume the
// watch on every replica — each must replay the identical event list with
// no duplicates.
func (h *harness) watchCheck() (int, bool, error) {
	h.pauseMu.Lock()
	defer h.pauseMu.Unlock()
	vecA, err := h.pinSentinel()
	if err != nil {
		return 0, false, err
	}
	for i := 0; i < 4; i++ {
		base := 500000 + i*2
		t1 := fmt.Sprintf("watchpair alpha beta gamma delta p%d", i)
		t2 := fmt.Sprintf("watchpair alpha beta gamma delta q%d", i)
		b1, _ := json.Marshal(server.MutateRequest{Corpus: "main", Records: []server.RecordJSON{{TID: base, Text: t1}}})
		b2, _ := json.Marshal(server.MutateRequest{Corpus: "main", Records: []server.RecordJSON{{TID: base + 1, Text: t2}}})
		if err := h.postRetry("/v1/insert", b1, 20*time.Second, nil); err != nil {
			return 0, false, err
		}
		if err := h.postRetry("/v1/insert", b2, 20*time.Second, nil); err != nil {
			return 0, false, err
		}
	}
	pin, err := h.pinSentinel()
	if err != nil {
		return 0, false, err
	}
	// Wait for every replica to reach the pinned vector before resuming.
	for _, n := range h.upNodes() {
		hb, _ := json.Marshal(server.HashRequest{Corpus: "main", Predicate: "Jaccard", Query: "watchpair", Limit: 1, MinEpochs: pin})
		var hr server.HashResponse
		if err := h.nodeRetry(n, "/v1/hash", hb, 20*time.Second, &hr); err != nil {
			return 0, false, err
		}
	}

	want := ""
	events := 0
	exactlyOnce := true
	for _, n := range h.upNodes() {
		evs, dup, err := h.pollWatch(n, vecA)
		if err != nil {
			return events, false, err
		}
		if dup {
			exactlyOnce = false
			h.logf("nemesis: duplicate watch event on %s", n.id)
		}
		canon := canonicalEvents(evs)
		if want == "" {
			want = canon
			events = len(evs)
		} else if canon != want {
			exactlyOnce = false
			h.logf("nemesis: watch replay differs on %s", n.id)
		}
	}
	if events == 0 {
		// The near-dup pairs must have produced match events somewhere.
		exactlyOnce = false
	}
	return events, exactlyOnce, nil
}

// pollWatch drains one node's watch pages from the resume vector and
// reports intra-node duplicates.
func (h *harness) pollWatch(n *nmNode, resume []uint64) ([]approxsel.WatchEvent, bool, error) {
	var all []approxsel.WatchEvent
	seen := make(map[string]bool)
	dup := false
	vec := resume
	for page := 0; page < 32; page++ {
		body, _ := json.Marshal(server.WatchRequest{Corpus: "main", Predicate: "Jaccard", Theta: 0.6, Mode: "poll", Resume: vec})
		var pr server.WatchPollResponse
		if err := h.nodeRetry(n, "/v1/watch", body, 20*time.Second, &pr); err != nil {
			return all, dup, err
		}
		for _, ev := range pr.Events {
			key := fmt.Sprintf("%s/%d/%d/%d/%d/%d", ev.Kind, ev.ProbeTID, ev.BaseTID, ev.Shard, ev.Epoch, ev.Seq)
			if seen[key] {
				dup = true
			}
			seen[key] = true
			all = append(all, ev)
		}
		if !pr.More {
			break
		}
		vec = pr.Resume
	}
	return all, dup, nil
}

// canonicalEvents renders an event list order-independently for
// cross-replica comparison.
func canonicalEvents(evs []approxsel.WatchEvent) string {
	lines := make([]string, len(evs))
	for i, ev := range evs {
		lines[i] = fmt.Sprintf("%s/%d/%d/%d/%d/%d/%.9f", ev.Kind, ev.ProbeTID, ev.BaseTID, ev.Shard, ev.Epoch, ev.Seq, ev.Score)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// scrapeFaultMetrics sums approx_chaos_faults_total across kinds from the
// first up node's /metrics export.
func (h *harness) scrapeFaultMetrics() uint64 {
	ups := h.upNodes()
	if len(ups) == 0 {
		return 0
	}
	resp, err := h.client.Get(ups[0].hs.URL + "/metrics")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0
	}
	var total uint64
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "approx_chaos_faults_total{") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		if v, err := strconv.ParseUint(fields[1], 10, 64); err == nil {
			total += v
		}
	}
	return total
}
