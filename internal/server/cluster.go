package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	approxsel "repro"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server/cache"
)

// This file is the server's face of approxcluster: it implements the
// replication Backend over the served corpora, mounts the node's RPC
// surface under /cluster/, forwards mutations arriving at followers to
// the leader, holds leader acknowledgements for a majority, and serves
// epoch-consistent reads — a client passes the epoch vector it last saw
// (min_epochs) and any replica at-or-past it may answer; a stale follower
// waits up to the request deadline.

// AttachCluster joins the server to a replication cluster: the node's RPC
// surface becomes reachable under /cluster/, every loaded corpus's
// replication observer feeds the node's re-ship history, mutations are
// leader-only (followers forward) and acknowledged only after a majority
// holds them. Call before serving traffic and before node.Start.
func (s *Server) AttachCluster(n *cluster.Node) {
	s.mu.Lock()
	s.cluster = n
	handles := make([]*corpusHandle, 0, len(s.corpora))
	for _, h := range s.corpora {
		handles = append(handles, h)
	}
	s.mu.Unlock()
	for _, h := range handles {
		s.wireReplication(h)
	}
	s.registerClusterMetrics()
}

// registerClusterMetrics adds the replication layer to the registry:
// the process-wide election/replication counters owned by the cluster
// package, plus live role/term/lag gauges read from the attached node.
func (s *Server) registerClusterMetrics() {
	reg := s.met.reg
	reg.RegisterCounter("approx_cluster_elections_total", "elections started by this node", cluster.MetricElections)
	reg.RegisterCounter("approx_cluster_leader_wins_total", "elections this node won", cluster.MetricLeaderWins)
	reg.RegisterCounter("approx_cluster_pulls_served_total", "replication pull RPCs served", cluster.MetricPullsServed)
	reg.RegisterCounter("approx_cluster_acks_recorded_total", "follower acknowledgements recorded", cluster.MetricAcksRecorded)
	reg.RegisterCounter("approx_cluster_heartbeats_sent_total", "leader heartbeats sent", cluster.MetricHeartbeatsSent)
	reg.RegisterCounter("approx_cluster_prevotes_total", "pre-vote rounds run before standing for election", cluster.MetricPreVotes)
	reg.RegisterCounter("approx_rpc_retries_total", "peer RPC retry attempts (forwards and pulls)", cluster.MetricRPCRetries)
	reg.RegisterHistogram("approx_rpc_backoff_ms", "jittered backoff sleeps between RPC retries (ms)", cluster.RPCBackoffMS)
	for _, k := range chaos.FaultKinds() {
		reg.RegisterCounter("approx_chaos_faults_total", "faults injected by the chaos layer",
			chaos.FaultCounter(k), obs.Label{Key: "kind", Value: string(k)})
	}
	reg.RegisterCounter("approx_chaos_store_faults_total", "store faults (fsync/torn append) injected by the chaos layer", chaos.MetricStoreFaults)
	reg.GaugeFunc("approx_chaos_active_rules", "chaos rules currently active in this process", func() float64 {
		return float64(chaos.ActiveRuleCount())
	})
	reg.GaugeFunc("approx_cluster_is_leader", "1 when this node is the leader", func() float64 {
		n := s.clusterNode()
		if n == nil {
			return 0
		}
		if role, _, _ := n.Role(); role == cluster.RoleLeader {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("approx_cluster_term", "current election term", func() float64 {
		n := s.clusterNode()
		if n == nil {
			return 0
		}
		_, term, _ := n.Role()
		return float64(term)
	})
	reg.GaugeFunc("approx_replication_lag_epochs", "widest follower lag in epochs, from the leader's vantage", func() float64 {
		n := s.clusterNode()
		if n == nil {
			return 0
		}
		if role, _, _ := n.Role(); role != cluster.RoleLeader {
			return 0
		}
		var max uint64
		for _, lag := range n.ReplicationLag() {
			if lag.MaxEpochs > max {
				max = lag.MaxEpochs
			}
		}
		return float64(max)
	})
}

// ClusterBackend returns the server's replication backend, the Backend a
// cluster.Node is constructed over.
func (s *Server) ClusterBackend() cluster.Backend { return &clusterBackend{s: s} }

func (s *Server) clusterNode() *cluster.Node {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cluster
}

// wireReplication points the corpus's replication observer at the cluster
// node's history; a no-op until AttachCluster.
func (s *Server) wireReplication(h *corpusHandle) {
	n := s.clusterNode()
	if n == nil {
		return
	}
	name := h.name
	h.sc.SetReplicationObserver(func(b approxsel.ReplicationBatch) {
		n.Record(name, b)
	})
}

// clusterBackend adapts the server's corpus map to cluster.Backend.
type clusterBackend struct{ s *Server }

func (b *clusterBackend) Corpora() []string { return b.s.corpusNames() }

func (b *clusterBackend) Position(name string) (cluster.Position, bool) {
	h, err := b.s.corpus(name)
	if err != nil {
		return cluster.Position{}, false
	}
	return cluster.Position{Shards: h.sc.Shards(), Seq: h.sc.Seq(), Epochs: h.sc.Epochs()}, true
}

// Apply routes a replicated batch through the same mutation serialization
// as client mutations, so replication and local writes can never interleave
// mid-batch.
func (b *clusterBackend) Apply(name string, batch cluster.ReplicationBatch) error {
	h, err := b.s.corpus(name)
	if err != nil {
		return err
	}
	h.mmu.Lock()
	defer h.mmu.Unlock()
	return h.sc.ApplyReplicated(batch)
}

func (b *clusterBackend) WriteSnapshot(name string, w io.Writer) error {
	h, err := b.s.corpus(name)
	if err != nil {
		return err
	}
	return h.sc.WriteReplicaSnapshot(w)
}

// InstallSnapshot creates or replaces a corpus from a leader's snapshot
// stream — the join path for new and diverged followers. A replaced
// corpus's watches are closed (clients re-register against the installed
// state) and its store directory is re-materialized at the shipped
// version.
func (b *clusterBackend) InstallSnapshot(name string, r io.Reader) error {
	s := b.s
	s.mu.Lock()
	if s.creating[name] {
		s.mu.Unlock()
		return fmt.Errorf("server: corpus %q is being created", name)
	}
	s.creating[name] = true
	old := s.corpora[name]
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.creating, name)
		s.mu.Unlock()
	}()
	if old != nil {
		old.sc.CloseWatches()
		_ = old.sc.CloseStore()
	}
	dir := ""
	if s.cfg.DataDir != "" {
		dir = s.corpusDir(name)
	}
	sc, err := approxsel.OpenReplicaSnapshot(r, dir)
	if err != nil {
		// The local copy (if any) is gone with its store directory; drop
		// the handle so the sync loop re-joins from scratch.
		s.mu.Lock()
		delete(s.corpora, name)
		s.mu.Unlock()
		return err
	}
	h := &corpusHandle{name: name, sc: sc, preds: make(map[string]*predicateHandle)}
	if s.cfg.CacheEntries > 0 {
		h.cache = cache.New[[]core.Match](s.cfg.CacheEntries)
	}
	s.mu.Lock()
	s.corpora[name] = h
	s.mu.Unlock()
	s.wireReplication(h)
	return nil
}

// ---- epoch-consistent reads ----

// errStaleReplica marks an epoch wait that ran out the request deadline:
// this replica never caught up to the client's vector in time (504, so
// clients and load balancers retry elsewhere).
var errStaleReplica = errors.New("server: replica did not reach the requested epoch vector in time")

// awaitEpochs blocks until the corpus's epoch vector covers min, polling
// the lock-free vector; nil/empty min returns immediately. A vector of the
// wrong length can never be satisfied and is the caller's error.
func (h *corpusHandle) awaitEpochs(ctx context.Context, min []uint64) error {
	if len(min) == 0 {
		return nil
	}
	var e []uint64
	caughtUp := pollUntil(ctx, func() bool {
		e = h.sc.Epochs()
		return len(min) != len(e) || vectorCovers(e, min)
	})
	if len(min) != len(e) {
		return fmt.Errorf("server: min_epochs has %d entries, corpus %q has %d shards", len(min), h.name, len(e))
	}
	if !caughtUp {
		return fmt.Errorf("%w (at %v, need %v)", errStaleReplica, e, min)
	}
	return nil
}

// pollUntil re-evaluates ready every couple of milliseconds until it holds
// (true) or the request deadline runs out (false): replication progress is
// a lock-free value to watch, not an event to subscribe to.
func pollUntil(ctx context.Context, ready func() bool) bool {
	for !ready() {
		select {
		case <-ctx.Done():
			return false
		case <-time.After(2 * time.Millisecond):
		}
	}
	return true
}

func vectorCovers(have, need []uint64) bool {
	for i := range need {
		if have[i] < need[i] {
			return false
		}
	}
	return true
}

// epochWaitStatus maps an awaitEpochs failure: deadline exhaustion is the
// replica's staleness (504); anything else is the request's fault (400).
func epochWaitStatus(err error) int {
	if errors.Is(err, errStaleReplica) {
		return http.StatusGatewayTimeout
	}
	return http.StatusBadRequest
}

// ---- result hashing (the cross-replica differential check) ----

// HashRequest asks for a canonical digest of one selection instead of the
// matches themselves — the cross-replica differential check: two replicas
// answering the same request at the same epoch vector must return the
// same hash, bit for bit.
type HashRequest struct {
	Corpus      string   `json:"corpus,omitempty"`
	Predicate   string   `json:"predicate"`
	Realization string   `json:"realization,omitempty"`
	Query       string   `json:"query"`
	Limit       int      `json:"limit,omitempty"`
	Threshold   *float64 `json:"threshold,omitempty"`
	// MinEpochs is the client's last-seen epoch vector; the reply is
	// computed at-or-past it (epoch-consistent read).
	MinEpochs []uint64 `json:"min_epochs,omitempty"`
}

// HashResponse reports the digest and the exact vector it was computed at.
type HashResponse struct {
	Hash      string   `json:"hash"`
	Count     int      `json:"count"`
	Epochs    []uint64 `json:"epochs"`
	ElapsedUS int64    `json:"elapsed_us"`
}

// resultHash digests a ranking and the epoch vector it was computed at:
// TIDs and IEEE-754 score bits in rank order, then the vector. Equal
// hashes mean bit-identical results at an identical version.
func resultHash(ms []core.Match, epochs []uint64) string {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(ms)))
	h.Write(b[:])
	for _, m := range ms {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(m.TID)))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(m.Score))
		h.Write(b[:])
	}
	for _, e := range epochs {
		binary.LittleEndian.PutUint64(b[:], e)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (s *Server) handleHash(w http.ResponseWriter, r *http.Request) {
	var req HashRequest
	if err := s.decode(w, r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	req.Realization = normRealization(req.Realization)
	h, ph, ok := s.resolve(w, r, req.Corpus, req.Predicate, req.Realization, req.MinEpochs)
	if !ok {
		return
	}
	opts, err := selectOptions(req.Limit, req.Threshold)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if err := h.awaitEpochs(r.Context(), req.MinEpochs); err != nil {
		s.fail(w, epochWaitStatus(err), err)
		return
	}
	if len(req.MinEpochs) == 0 {
		s.markStale(w)
	}
	start := time.Now()
	// The hash must name one exact version: retry the probe until the
	// vector is stable across it (mutations make this a short race).
	for {
		ms, epochs, _, err := h.probe(r.Context(), ph, req.Realization, req.Predicate, req.Query, opts)
		if err != nil {
			s.fail(w, status(err), err)
			return
		}
		if epochs != nil {
			writeJSON(w, http.StatusOK, HashResponse{
				Hash:      resultHash(ms, epochs),
				Count:     len(ms),
				Epochs:    epochs,
				ElapsedUS: time.Since(start).Microseconds(),
			})
			return
		}
		if err := r.Context().Err(); err != nil {
			s.fail(w, status(err), err)
			return
		}
	}
}

// staleHeader marks a response served by a degraded follower — one that
// exhausted its retry budget without leader contact. Its value is the
// leader-contact lag in milliseconds. Only reads WITHOUT min_epochs are
// ever stale-marked: a pinned read keeps its hard consistency contract
// (it waits or 504s), while an unpinned read prefers a possibly-stale
// answer over an error.
const staleHeader = "X-Approx-Stale"

// markStale stamps w when this node is degraded; call only on read paths
// without a min_epochs pin, before writing the response.
func (s *Server) markStale(w http.ResponseWriter) {
	n := s.clusterNode()
	if n == nil {
		return
	}
	if lag, degraded := n.Degraded(); degraded {
		w.Header().Set(staleHeader, strconv.FormatInt(lag.Milliseconds(), 10))
		s.met.staleReads.Add(1)
	}
}

// ---- write forwarding ----

// forwardHeader guards against forwarding loops: a node that receives an
// already-forwarded mutation while not leading answers 503 instead of
// bouncing it onward.
const forwardHeader = "X-Approxcluster-Forwarded"

// maxRetryAfter caps how long a leader-advertised Retry-After can hold a
// forwarding attempt (a misconfigured peer must not park requests).
const maxRetryAfter = 2 * time.Second

// forwardMutation routes a mutation arriving at a follower to the leader,
// relaying the response verbatim. It reports whether it handled the
// request (false = this node is the leader or no cluster is attached, the
// caller proceeds locally). Transient failures — no leader yet, transport
// errors, a target answering 503 — retry inside the cluster's backoff
// budget, re-resolving the leader each attempt and honoring Retry-After;
// any other status is the leader's authoritative answer.
func (s *Server) forwardMutation(w http.ResponseWriter, r *http.Request, body []byte) bool {
	n := s.clusterNode()
	if n == nil || n.IsLeader() {
		return false
	}
	if r.Header.Get(forwardHeader) != "" {
		s.fail(w, http.StatusServiceUnavailable, fmt.Errorf("server: not the leader (forwarding loop)"))
		return true
	}
	budget := n.RetryBudget()
	var lastErr error
	retryAfter := time.Duration(0)
	for attempt := 0; attempt < budget; attempt++ {
		if attempt > 0 {
			d := n.Backoff(attempt)
			if retryAfter > d {
				d = retryAfter
			}
			if d > maxRetryAfter {
				d = maxRetryAfter
			}
			cluster.MetricRPCRetries.Inc()
			cluster.RPCBackoffMS.ObserveUS(uint64(d.Milliseconds()))
			select {
			case <-time.After(d):
			case <-r.Context().Done():
				s.fail(w, http.StatusServiceUnavailable, fmt.Errorf("server: forwarding abandoned: %w", r.Context().Err()))
				return true
			}
		}
		retryAfter = 0
		// Re-resolve each attempt: elections move the leader mid-retry.
		leaderURL := n.LeaderURL()
		if leaderURL == "" {
			lastErr = fmt.Errorf("server: no leader elected")
			continue
		}
		target := leaderURL + r.URL.Path
		if r.URL.RawQuery != "" {
			target += "?" + r.URL.RawQuery
		}
		ctx, cancel := context.WithTimeout(r.Context(), n.AttemptTimeout())
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, bytes.NewReader(body))
		if err != nil {
			cancel()
			s.fail(w, http.StatusInternalServerError, err)
			return true
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(forwardHeader, "1")
		// The cluster's own RPC client: bounded per-attempt deadlines, one
		// policy for all intra-cluster traffic (http.DefaultClient would
		// hang forever on a wedged leader).
		resp, err := n.Client().Do(req)
		if err != nil {
			cancel()
			lastErr = err
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			// The target is not (or no longer) the leader; honor its
			// Retry-After hint on the next backoff.
			if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs > 0 {
				retryAfter = time.Duration(secs) * time.Second
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			cancel()
			lastErr = fmt.Errorf("server: leader %s answered 503", leaderURL)
			continue
		}
		// Authoritative answer (success or a real client error): relay it.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
		resp.Body.Close()
		cancel()
		return true
	}
	w.Header().Set("Retry-After", "1")
	s.fail(w, http.StatusServiceUnavailable,
		fmt.Errorf("server: forwarding to leader failed after %d attempts: %w", budget, lastErr))
	return true
}

// readBody drains the (bounded) request body so it can be both decoded
// locally and forwarded verbatim.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body := r.Body
	if s.cfg.MaxBodyBytes > 0 {
		body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	}
	data, err := io.ReadAll(body)
	if err != nil {
		return nil, fmt.Errorf("server: bad request body: %w", err)
	}
	return data, nil
}

// waitQuorum holds a leader's mutation acknowledgement until a majority of
// the cluster holds it; without a cluster it returns immediately. On
// timeout the mutation is applied locally but NOT acknowledged — the
// client must retry and may observe it, which is exactly the replication
// contract ("acked implies majority").
func (s *Server) waitQuorum(ctx context.Context, h *corpusHandle, epochs []uint64) error {
	n := s.clusterNode()
	if n == nil {
		return nil
	}
	_, sp := obs.StartSpan(ctx, "quorum.wait")
	err := n.WaitCommitted(ctx, h.name, epochs, h.sc.Seq())
	sp.End()
	return err
}

// ---- cluster RPC mount and observability ----

// handleClusterRPC delegates /cluster/* to the attached node.
func (s *Server) handleClusterRPC(w http.ResponseWriter, r *http.Request) {
	n := s.clusterNode()
	if n == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("server: no cluster attached"))
		return
	}
	n.Handler().ServeHTTP(w, r)
}

// ClusterStats is the cluster block of /v1/stats.
type ClusterStats struct {
	NodeID string `json:"node_id"`
	Role   string `json:"role"`
	Term   uint64 `json:"term"`
	Leader string `json:"leader,omitempty"`
	// Applied is this node's replication position per corpus — the epoch
	// vector and batch sequence number it has durably applied.
	Applied map[string]cluster.Position `json:"applied"`
	// Lag is the widest follower lag per corpus, from the leader's
	// vantage (followers report zero).
	Lag map[string]cluster.LagInfo `json:"lag,omitempty"`
	// Peers reports liveness per peer.
	Peers map[string]cluster.PeerStatus `json:"peers,omitempty"`
	// DegradedStaleReads counts reads served with the X-Approx-Stale marker
	// while this node could not reach a leader within its retry budget.
	DegradedStaleReads uint64 `json:"degraded_stale_reads"`
}

func (s *Server) clusterStats() *ClusterStats {
	n := s.clusterNode()
	if n == nil {
		return nil
	}
	st := n.StatusSnapshot()
	cs := &ClusterStats{
		NodeID:             st.ID,
		Role:               string(st.Role),
		Term:               st.Term,
		Leader:             st.Leader,
		Applied:            st.Position,
		Peers:              st.Peers,
		DegradedStaleReads: s.met.staleReads.Value(),
	}
	if st.Role == cluster.RoleLeader {
		cs.Lag = n.ReplicationLag()
	}
	return cs
}
