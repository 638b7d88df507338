package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	approxsel "repro"
	"repro/internal/core"
	"repro/internal/obs"
)

// ---- wire types ----

// Match is the wire form of one ranked result.
type Match struct {
	TID   int     `json:"tid"`
	Score float64 `json:"score"`
}

// RecordJSON is the wire form of one base-relation tuple.
type RecordJSON struct {
	TID  int    `json:"tid"`
	Text string `json:"text"`
}

// SelectRequest asks for one approximate selection. An empty corpus name
// resolves when exactly one corpus is loaded; an empty realization selects
// native. Limit 0 means the full ranking; Threshold null means
// un-thresholded.
type SelectRequest struct {
	Corpus      string   `json:"corpus,omitempty"`
	Predicate   string   `json:"predicate"`
	Realization string   `json:"realization,omitempty"`
	Query       string   `json:"query"`
	Limit       int      `json:"limit,omitempty"`
	Threshold   *float64 `json:"threshold,omitempty"`
	// MinEpochs is the client's last-seen epoch vector (epoch-consistent
	// reads): the reply is computed at-or-past it, waiting up to the
	// request deadline on a stale replica (504 → retry elsewhere).
	MinEpochs []uint64 `json:"min_epochs,omitempty"`
}

// SelectResponse carries the ranked matches. Epochs is the shard-epoch
// vector the result corresponds to; it is null when the probe raced a
// mutation (the result is then served uncached and not cached).
type SelectResponse struct {
	Matches   []Match  `json:"matches"`
	Count     int      `json:"count"`
	Cached    bool     `json:"cached"`
	Epochs    []uint64 `json:"epochs,omitempty"`
	ElapsedUS int64    `json:"elapsed_us"`
}

// BatchRequest probes one predicate with many queries.
type BatchRequest struct {
	Corpus      string   `json:"corpus,omitempty"`
	Predicate   string   `json:"predicate"`
	Realization string   `json:"realization,omitempty"`
	Queries     []string `json:"queries"`
	Limit       int      `json:"limit,omitempty"`
	Threshold   *float64 `json:"threshold,omitempty"`
	// MinEpochs: see SelectRequest.
	MinEpochs []uint64 `json:"min_epochs,omitempty"`
}

// BatchResponse carries one ranked match slice per query, in query order.
// Epochs is the shard-epoch vector every result corresponds to; it is null
// when the batch raced a mutation, in which case individual results may
// reflect different relation versions (cache hits from the older one,
// fresh probes from the newer).
type BatchResponse struct {
	Results   [][]Match `json:"results"`
	CacheHits int       `json:"cache_hits"`
	Epochs    []uint64  `json:"epochs,omitempty"`
	ElapsedUS int64     `json:"elapsed_us"`
}

// JoinRequest evaluates the approximate join R ⋈ sim≥θ S with the loaded
// corpus as the base relation and the probe records as R.
type JoinRequest struct {
	Corpus      string       `json:"corpus,omitempty"`
	Predicate   string       `json:"predicate"`
	Realization string       `json:"realization,omitempty"`
	Theta       float64      `json:"theta"`
	Probe       []RecordJSON `json:"probe"`
	// MinEpochs: see SelectRequest.
	MinEpochs []uint64 `json:"min_epochs,omitempty"`
}

// JoinPair is the wire form of one join result.
type JoinPair struct {
	ProbeTID int     `json:"probe_tid"`
	BaseTID  int     `json:"base_tid"`
	Score    float64 `json:"score"`
}

// JoinResponse carries the join pairs grouped by probe record.
type JoinResponse struct {
	Pairs     []JoinPair `json:"pairs"`
	Count     int        `json:"count"`
	ElapsedUS int64      `json:"elapsed_us"`
}

// MutateRequest inserts or upserts records into a corpus.
type MutateRequest struct {
	Corpus  string       `json:"corpus,omitempty"`
	Records []RecordJSON `json:"records"`
}

// DeleteRequest removes records by TID.
type DeleteRequest struct {
	Corpus string `json:"corpus,omitempty"`
	TIDs   []int  `json:"tids"`
}

// MutateResponse reports the corpus state after a mutation.
type MutateResponse struct {
	Len    int      `json:"len"`
	Epochs []uint64 `json:"epochs"`
}

// CorpusInfo describes one loaded corpus.
type CorpusInfo struct {
	Name   string   `json:"name"`
	Len    int      `json:"len"`
	Shards int      `json:"shards"`
	Epochs []uint64 `json:"epochs"`
}

// CreateCorpusRequest loads a new corpus at runtime.
type CreateCorpusRequest struct {
	Name    string       `json:"name"`
	Shards  int          `json:"shards,omitempty"`
	Records []RecordJSON `json:"records"`
}

// SnapshotRequest checkpoints one corpus's durable store.
type SnapshotRequest struct {
	Corpus string `json:"corpus,omitempty"`
}

// SnapshotResponse reports the durable state right after a checkpoint: the
// WAL is empty and the snapshot epochs equal the corpus's current epochs.
type SnapshotResponse struct {
	Corpus string    `json:"corpus"`
	Store  StoreInfo `json:"store"`
}

// StoreInfo is the wire form of one corpus's durable-state counters.
type StoreInfo struct {
	Corpus         string   `json:"corpus"`
	Dir            string   `json:"dir"`
	SnapshotEpochs []uint64 `json:"snapshot_epochs"`
	SnapshotBytes  int64    `json:"snapshot_bytes"`
	WALEntries     int      `json:"wal_entries"`
	LastLoadUS     int64    `json:"last_load_us"`
}

// StoreStats is the store block of /v1/stats, present when the server runs
// with a data directory.
type StoreStats struct {
	DataDir    string      `json:"data_dir"`
	WALEntries int         `json:"wal_entries"`
	Corpora    []StoreInfo `json:"corpora"`
}

// Stats is the /v1/stats response.
type Stats struct {
	UptimeSeconds float64                   `json:"uptime_seconds"`
	Requests      uint64                    `json:"requests"`
	Rejected      uint64                    `json:"rejected"`
	Errors        uint64                    `json:"errors"`
	QPS           float64                   `json:"qps"`
	Cache         CacheStats                `json:"cache"`
	Endpoints     map[string]uint64         `json:"endpoints"`
	Predicates    map[string]HistogramStats `json:"predicates"`
	Corpora       []CorpusInfo              `json:"corpora"`
	// HotPath reports the selection engine's max-score pruning counters —
	// process-wide (every native selection in this server, across corpora
	// and shards), the cost the result cache cannot hide.
	HotPath HotPathStats `json:"hot_path"`
	// Store reports the durable persistence state (snapshot epochs, WAL
	// entry counts, last load duration) when the server runs with a data
	// directory; omitted for a purely in-memory server.
	Store *StoreStats `json:"store,omitempty"`
	// Watch reports the standing-query subsystem, aggregated across
	// corpora.
	Watch WatchStats `json:"watch"`
	// Cluster reports the replication layer (role, term, applied epoch
	// vectors, follower lag, peer liveness) when the server is part of a
	// cluster; omitted standalone.
	Cluster *ClusterStats `json:"cluster,omitempty"`
	// Trace reports the span tracer: sampling configuration, traces
	// retained, and the process-wide per-stage latency aggregates.
	Trace TraceStats `json:"trace"`
}

// WatchStats is the watch block of /v1/stats: active standing queries and
// the cost/volume counters of incremental delivery.
type WatchStats struct {
	// Active counts registered watches across all corpora.
	Active int `json:"active"`
	// EventsEmitted counts events delivered or preloaded for replay.
	EventsEmitted uint64 `json:"events_emitted"`
	// EventsReplayed counts events derived from history for resuming
	// clients.
	EventsReplayed uint64 `json:"events_replayed"`
	// MaxLagEpochs is the widest consumer lag, in epochs, over active
	// watches.
	MaxLagEpochs uint64 `json:"max_lag_epochs"`
	// DeriveUS is cumulative wall time spent deriving watch events — the
	// incremental cost mutations pay for standing queries.
	DeriveUS int64 `json:"derive_us"`
}

// HotPathStats is the wire form of the engine's pruning counters, plus the
// derived skipped-list fraction.
type HotPathStats struct {
	core.HotPathStats
	PruneRate float64 `json:"prune_rate"`
}

// CacheStats aggregates result-cache counters across corpora.
type CacheStats struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	Entries   int     `json:"entries"`
	HitRate   float64 `json:"hit_rate"`
}

func toWire(ms []core.Match) []Match {
	out := make([]Match, len(ms))
	for i, m := range ms {
		out[i] = Match{TID: m.TID, Score: m.Score}
	}
	return out
}

func toRecords(rs []RecordJSON) []approxsel.Record {
	out := make([]approxsel.Record, len(rs))
	for i, r := range rs {
		out[i] = approxsel.Record{TID: r.TID, Text: r.Text}
	}
	return out
}

// ---- routing ----

func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/select", s.instrument("select", s.admit(s.handleSelect)))
	mux.HandleFunc("POST /v1/batch", s.instrument("batch", s.admit(s.handleBatch)))
	mux.HandleFunc("POST /v1/join", s.instrument("join", s.admit(s.handleJoin)))
	mux.HandleFunc("POST /v1/insert", s.instrument("insert", s.admit(s.handleMutate(insertOp))))
	mux.HandleFunc("POST /v1/upsert", s.instrument("upsert", s.admit(s.handleMutate(upsertOp))))
	mux.HandleFunc("POST /v1/delete", s.instrument("delete", s.admit(s.handleDelete)))
	mux.HandleFunc("POST /v1/snapshot", s.instrument("snapshot", s.admit(s.handleSnapshot)))
	// Watches bypass admit: an SSE stream outlives any request deadline and
	// is admitted against Config.MaxWatches instead of MaxInFlight.
	mux.HandleFunc("POST /v1/watch", s.instrument("watch", s.handleWatch))
	mux.HandleFunc("POST /v1/corpora", s.instrument("corpora", s.admit(s.handleCreateCorpus)))
	mux.HandleFunc("GET /v1/corpora", s.instrument("corpora", s.handleListCorpora))
	mux.HandleFunc("POST /v1/hash", s.instrument("hash", s.admit(s.handleHash)))
	mux.HandleFunc("GET /v1/stats", s.instrument("stats", s.handleStats))
	// The observability surface itself is served bare: scrapes should not
	// perturb the very counters, sampler and slow log they report.
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/slowlog", s.handleSlowlog)
	// The replication and election RPC surface of an attached cluster node;
	// 404 on a standalone server.
	mux.HandleFunc("/cluster/", s.handleClusterRPC)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Role lets a load balancer route writes to the leader without a
		// second request.
		resp := map[string]string{"status": "ok"}
		if n := s.clusterNode(); n != nil {
			role, _, leader := n.Role()
			resp["role"] = string(role)
			resp["leader"] = leader
		}
		writeJSON(w, http.StatusOK, resp)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	if code != http.StatusTooManyRequests {
		s.met.errors.Add(1)
	}
	writeError(w, code, err)
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) error {
	body := r.Body
	if s.cfg.MaxBodyBytes > 0 {
		body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	}
	if err := json.NewDecoder(body).Decode(v); err != nil {
		return fmt.Errorf("server: bad request body: %w", err)
	}
	return nil
}

// selectOptions folds the request limits into the core representation.
func selectOptions(limit int, threshold *float64) (core.SelectOptions, error) {
	if limit < 0 {
		return core.SelectOptions{}, fmt.Errorf("server: negative limit %d", limit)
	}
	opts := core.SelectOptions{Limit: limit}
	if threshold != nil {
		opts.Threshold = *threshold
		opts.HasThreshold = true
	}
	return opts, nil
}

// resolve looks up the corpus and attached predicate of a request. A
// request carrying an epoch vector got it from an acknowledged write, so a
// corpus this replica does not know yet is replication lag, not a client
// error — creation is acknowledged by a majority, and this may be the
// replica outside it. Such a request waits for the corpus like it waits for
// the epochs (awaitEpochs), bounded by the request deadline (504).
func (s *Server) resolve(w http.ResponseWriter, r *http.Request, corpus, predicate, realization string, minEpochs []uint64) (*corpusHandle, *predicateHandle, bool) {
	if predicate == "" {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("server: missing predicate name"))
		return nil, nil, false
	}
	h, err := s.corpus(corpus)
	if err != nil && len(minEpochs) > 0 {
		if !pollUntil(r.Context(), func() bool { h, err = s.corpus(corpus); return err == nil }) {
			s.fail(w, http.StatusGatewayTimeout, fmt.Errorf("%w: %v", errStaleReplica, err))
			return nil, nil, false
		}
	}
	if err != nil {
		s.fail(w, http.StatusNotFound, err)
		return nil, nil, false
	}
	ph, err := h.predicate(realization, predicate)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return nil, nil, false
	}
	return h, ph, true
}

// ---- selection endpoints ----

func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	var req SelectRequest
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
	ri := requestInfo(r.Context())
	ri.corpus, ri.predicate, ri.shards = h.name, req.Predicate, h.sc.Shards()
	start := time.Now()
	ms, epochs, cached, err := h.probe(r.Context(), ph, req.Realization, req.Predicate, req.Query, opts)
	elapsed := time.Since(start)
	if err != nil {
		s.fail(w, status(err), err)
		return
	}
	if cached {
		ri.cache = "hit"
	} else {
		ri.cache = "miss"
	}
	s.met.selects.Add(1)
	s.met.observeSelections(req.Predicate, cached, elapsed, 1)
	writeJSON(w, http.StatusOK, SelectResponse{
		Matches:   toWire(ms),
		Count:     len(ms),
		Cached:    cached,
		Epochs:    epochs,
		ElapsedUS: elapsed.Microseconds(),
	})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
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
	ri := requestInfo(r.Context())
	ri.corpus, ri.predicate, ri.shards = h.name, req.Predicate, h.sc.Shards()
	start := time.Now()
	results := make([][]Match, len(req.Queries))
	hits := 0
	// Serve each query from the cache where possible, then fan the misses
	// out through the batch worker pool in one pass.
	e1 := h.sc.Epochs()
	var missIdx []int
	for i, q := range req.Queries {
		if h.cache != nil {
			key := cacheKeyFor(h, req, opts, e1, q)
			if ms, ok := h.cache.Get(key); ok {
				results[i] = toWire(ms)
				hits++
				continue
			}
		}
		missIdx = append(missIdx, i)
	}
	lookups := time.Since(start)
	// Cache hits are versioned at e1 by construction; the batch as a whole
	// is e1-consistent when the misses were too.
	stable := true
	if len(missIdx) > 0 {
		queries := make([]string, len(missIdx))
		for j, i := range missIdx {
			queries[j] = req.Queries[i]
		}
		batchOpts := []approxsel.BatchOption{approxsel.Workers(s.cfg.Workers), approxsel.Limit(opts.Limit)}
		if opts.HasThreshold {
			batchOpts = append(batchOpts, approxsel.Threshold(opts.Threshold))
		}
		probed, err := func() ([][]core.Match, error) {
			if ph.mu != nil {
				ph.mu.Lock()
				defer ph.mu.Unlock()
			}
			return approxsel.SelectBatch(r.Context(), ph.p, queries, batchOpts...)
		}()
		if err != nil {
			// BatchError names the lowest failing probe deterministically;
			// translate its index back into the caller's query list.
			var be *approxsel.BatchError
			if errors.As(err, &be) {
				err = fmt.Errorf("server: batch query %d: %w", missIdx[be.Query], be.Unwrap())
			}
			s.fail(w, status(err), err)
			return
		}
		e2 := h.sc.Epochs()
		stable = epochsEqual(e1, e2)
		for j, i := range missIdx {
			results[i] = toWire(probed[j])
			if stable && h.cache != nil && len(probed[j]) <= maxCachedMatches {
				h.cache.Put(cacheKeyFor(h, req, opts, e1, req.Queries[i]), probed[j])
			}
		}
	}
	elapsed := time.Since(start)
	// The predicate histogram tracks per-selection latency: the hits share
	// the cache pass, the misses the fan-out.
	s.met.observeSelections(req.Predicate, true, lookups, hits)
	s.met.observeSelections(req.Predicate, false, elapsed-lookups, len(missIdx))
	if hits == len(req.Queries) {
		ri.cache = "hit"
	} else {
		ri.cache = "miss"
	}
	resp := BatchResponse{
		Results:   results,
		CacheHits: hits,
		ElapsedUS: elapsed.Microseconds(),
	}
	if stable {
		resp.Epochs = e1
	}
	writeJSON(w, http.StatusOK, resp)
}

func cacheKeyFor(h *corpusHandle, req BatchRequest, opts core.SelectOptions, epochs []uint64, query string) string {
	return cacheKey(h.name, req.Predicate, req.Realization, opts, epochs, query)
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if err := s.decode(w, r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	req.Realization = normRealization(req.Realization)
	h, ph, ok := s.resolve(w, r, req.Corpus, req.Predicate, req.Realization, req.MinEpochs)
	if !ok {
		return
	}
	if err := h.awaitEpochs(r.Context(), req.MinEpochs); err != nil {
		s.fail(w, epochWaitStatus(err), err)
		return
	}
	ri := requestInfo(r.Context())
	ri.corpus, ri.predicate, ri.shards = h.name, req.Predicate, h.sc.Shards()
	start := time.Now()
	pairs, err := func() ([]approxsel.JoinPair, error) {
		if ph.mu != nil {
			ph.mu.Lock()
			defer ph.mu.Unlock()
		}
		return approxsel.ApproximateJoinCtx(r.Context(), ph.p, toRecords(req.Probe), req.Theta,
			approxsel.Workers(s.cfg.Workers))
	}()
	elapsed := time.Since(start)
	if err != nil {
		s.fail(w, status(err), err)
		return
	}
	// Like /v1/batch, one amortized observation per probe record; a join
	// never reads the result cache.
	s.met.observeSelections(req.Predicate, false, elapsed, len(req.Probe))
	out := make([]JoinPair, len(pairs))
	for i, p := range pairs {
		out[i] = JoinPair{ProbeTID: p.ProbeTID, BaseTID: p.BaseTID, Score: p.Score}
	}
	writeJSON(w, http.StatusOK, JoinResponse{Pairs: out, Count: len(out), ElapsedUS: elapsed.Microseconds()})
}

// ---- mutation endpoints ----

// mutationStatus distinguishes the failure classes of a mutation:
// validation errors (duplicate TID, unknown TID) are the caller's fault
// and stay 400; a batch that partially landed across shards is a plain
// 500 — NOT retryable, the client must reconcile; an untouched-state
// persistence failure (disk full, log sealed during drain) is 503, which
// clients and load balancers retry.
func mutationStatus(err error) int {
	var part *approxsel.PartialMutationError
	if errors.As(err, &part) {
		return http.StatusInternalServerError
	}
	var pe *core.PersistenceError
	if errors.As(err, &pe) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

type mutateOp int

const (
	insertOp mutateOp = iota
	upsertOp
)

func (s *Server) handleMutate(op mutateOp) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// The body is drained before decoding so a follower can relay it
		// to the leader verbatim (writes are leader-only in a cluster).
		body, err := s.readBody(w, r)
		if err != nil {
			s.fail(w, http.StatusBadRequest, err)
			return
		}
		if s.forwardMutation(w, r, body) {
			return
		}
		var req MutateRequest
		if err := json.Unmarshal(body, &req); err != nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("server: bad request body: %w", err))
			return
		}
		h, err := s.corpus(req.Corpus)
		if err != nil {
			s.fail(w, http.StatusNotFound, err)
			return
		}
		// Mutations apply atomically and are not interruptible once
		// started; honor an already-expired deadline before beginning.
		if err := r.Context().Err(); err != nil {
			s.fail(w, status(err), err)
			return
		}
		ri := requestInfo(r.Context())
		ri.corpus, ri.shards = h.name, h.sc.Shards()
		records := toRecords(req.Records)
		_, ap := obs.StartSpan(r.Context(), "apply")
		h.mmu.Lock()
		if op == upsertOp {
			err = h.sc.Upsert(records...)
		} else {
			err = h.sc.Insert(records...)
		}
		n, epochs := h.sc.State()
		h.mmu.Unlock()
		ap.End()
		if err != nil {
			s.fail(w, mutationStatus(err), err)
			return
		}
		// Acknowledge only once a majority of the cluster holds the batch;
		// a leader killed after the 200 cannot lose this write.
		if err := s.waitQuorum(r.Context(), h, epochs); err != nil {
			s.fail(w, http.StatusGatewayTimeout, err)
			return
		}
		writeJSON(w, http.StatusOK, MutateResponse{Len: n, Epochs: epochs})
	}
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	body, err := s.readBody(w, r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if s.forwardMutation(w, r, body) {
		return
	}
	var req DeleteRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("server: bad request body: %w", err))
		return
	}
	h, err := s.corpus(req.Corpus)
	if err != nil {
		s.fail(w, http.StatusNotFound, err)
		return
	}
	if err := r.Context().Err(); err != nil {
		s.fail(w, status(err), err)
		return
	}
	ri := requestInfo(r.Context())
	ri.corpus, ri.shards = h.name, h.sc.Shards()
	_, ap := obs.StartSpan(r.Context(), "apply")
	h.mmu.Lock()
	err = h.sc.Delete(req.TIDs...)
	n, epochs := h.sc.State()
	h.mmu.Unlock()
	ap.End()
	if err != nil {
		s.fail(w, mutationStatus(err), err)
		return
	}
	if err := s.waitQuorum(r.Context(), h, epochs); err != nil {
		s.fail(w, http.StatusGatewayTimeout, err)
		return
	}
	writeJSON(w, http.StatusOK, MutateResponse{Len: n, Epochs: epochs})
}

// handleSnapshot checkpoints one corpus's durable store: a fresh snapshot
// segment per shard at the current epoch, the write-ahead log truncated,
// and the manifest rewritten — the admin lever that bounds the next cold
// start's replay work.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	var req SnapshotRequest
	if err := s.decode(w, r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	h, err := s.corpus(req.Corpus)
	if err != nil {
		s.fail(w, http.StatusNotFound, err)
		return
	}
	if !h.sc.Persistent() {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("server: corpus %q has no data directory", h.name))
		return
	}
	// Checkpoints freeze mutations for the duration and are not
	// interruptible; honor an already-expired deadline before starting.
	if err := r.Context().Err(); err != nil {
		s.fail(w, status(err), err)
		return
	}
	if err := h.sc.Checkpoint(); err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	st, _ := h.sc.StoreStats()
	writeJSON(w, http.StatusOK, SnapshotResponse{Corpus: h.name, Store: storeInfo(h.name, st)})
}

func storeInfo(name string, st approxsel.StoreStats) StoreInfo {
	return StoreInfo{
		Corpus:         name,
		Dir:            st.Dir,
		SnapshotEpochs: st.SnapshotEpochs,
		SnapshotBytes:  st.SnapshotBytes,
		WALEntries:     st.WALEntries,
		LastLoadUS:     st.LastLoadDur.Microseconds(),
	}
}

// ---- corpora and observability ----

func (s *Server) handleCreateCorpus(w http.ResponseWriter, r *http.Request) {
	// Corpus creation is a mutation: in a cluster it lands at the leader
	// and reaches followers through the snapshot join path.
	body, err := s.readBody(w, r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if s.forwardMutation(w, r, body) {
		return
	}
	var req CreateCorpusRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("server: bad request body: %w", err))
		return
	}
	// Corpus builds are not interruptible; honor an already-expired
	// deadline before paying for one.
	if err := r.Context().Err(); err != nil {
		s.fail(w, status(err), err)
		return
	}
	if err := s.addCorpus(req.Name, toRecords(req.Records), req.Shards); err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, errCorpusExists) {
			code = http.StatusConflict
		}
		s.fail(w, code, err)
		return
	}
	h, _ := s.corpus(req.Name)
	writeJSON(w, http.StatusCreated, h.info())
}

func (h *corpusHandle) info() CorpusInfo {
	n, epochs := h.sc.State()
	return CorpusInfo{Name: h.name, Len: n, Shards: h.sc.Shards(), Epochs: epochs}
}

func (s *Server) handleListCorpora(w http.ResponseWriter, r *http.Request) {
	var out []CorpusInfo
	for _, name := range s.corpusNames() {
		if h, err := s.corpus(name); err == nil {
			out = append(out, h.info())
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"corpora": out})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.stats())
}

// stats assembles the /v1/stats payload.
func (s *Server) stats() Stats {
	uptime := time.Since(s.met.start).Seconds()
	st := Stats{
		UptimeSeconds: uptime,
		Requests:      s.met.requests.Value(),
		Rejected:      s.met.rejected.Value(),
		Errors:        s.met.errors.Value(),
		Endpoints:     s.met.endpointCounts(),
		Predicates:    s.met.predicateStats(),
	}
	if uptime > 0 {
		st.QPS = float64(st.Requests) / uptime
	}
	if s.cfg.DataDir != "" {
		st.Store = &StoreStats{DataDir: s.cfg.DataDir}
	}
	for _, name := range s.corpusNames() {
		h, err := s.corpus(name)
		if err != nil {
			continue
		}
		st.Corpora = append(st.Corpora, h.info())
		if h.cache != nil {
			cs := h.cache.Stats()
			st.Cache.Hits += cs.Hits
			st.Cache.Misses += cs.Misses
			st.Cache.Evictions += cs.Evictions
			st.Cache.Entries += cs.Entries
		}
		if ss, ok := h.sc.StoreStats(); ok && st.Store != nil {
			st.Store.Corpora = append(st.Store.Corpora, storeInfo(name, ss))
			st.Store.WALEntries += ss.WALEntries
		}
		ws := h.sc.WatchStats()
		st.Watch.Active += ws.Active
		st.Watch.EventsEmitted += ws.Emitted
		st.Watch.EventsReplayed += ws.Replayed
		st.Watch.DeriveUS += ws.DeriveNS / 1000
		if ws.MaxLagEpochs > st.Watch.MaxLagEpochs {
			st.Watch.MaxLagEpochs = ws.MaxLagEpochs
		}
	}
	if total := st.Cache.Hits + st.Cache.Misses; total > 0 {
		st.Cache.HitRate = float64(st.Cache.Hits) / float64(total)
	}
	hp := core.HotPathSnapshot()
	st.HotPath = HotPathStats{HotPathStats: hp, PruneRate: hp.PruneRate()}
	st.Cluster = s.clusterStats()
	st.Trace = s.traceStats()
	return st
}
