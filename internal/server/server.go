// Package server implements approxserved's HTTP/JSON serving subsystem: it
// owns one or more sharded corpora and exposes approximate selection
// (/v1/select, /v1/batch, /v1/join) and relation mutation (/v1/insert,
// /v1/delete, /v1/upsert) over them, with request admission (max in-flight,
// per-request deadline), an epoch-keyed LRU result cache, and a /v1/stats
// endpoint reporting QPS, cache hit rate and per-predicate latency
// histograms.
//
// Consistency contract: every response that reports a shard-epoch vector is
// bit-identical to evaluating the same request against a fresh corpus at
// that version. Results are cached only when the epoch vector is stable
// across the probe (read before and after); a response that raced a
// mutation is returned uncached with no epoch vector. Cache invalidation is
// purely by epoch advance — mutations change every future cache key of the
// corpus, and stale entries age out of the LRU tail.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	approxsel "repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server/cache"
	"repro/internal/store"
)

// Config tunes the serving subsystem; the zero value selects sensible
// defaults for every knob.
type Config struct {
	// Shards is the default shard count of corpora the server creates
	// (AddCorpus and POST /v1/corpora without an explicit count).
	// Values < 1 select GOMAXPROCS.
	Shards int
	// CacheEntries caps the per-corpus result cache. 0 selects the default
	// (4096 entries); negative disables result caching.
	CacheEntries int
	// MaxInFlight caps concurrently admitted requests; excess requests are
	// rejected immediately with 429. Values < 1 select 16×GOMAXPROCS.
	MaxInFlight int
	// RequestTimeout bounds every admitted request's context. Values <= 0
	// select 10s.
	RequestTimeout time.Duration
	// Workers sizes the per-request fan-out pool of /v1/batch and /v1/join.
	// Values < 1 select GOMAXPROCS.
	Workers int
	// MaxBodyBytes caps every request body, so one oversized POST cannot
	// exhaust memory regardless of admission. 0 selects 64 MiB; negative
	// disables the cap.
	MaxBodyBytes int64
	// MaxWatches caps concurrently served /v1/watch registrations (SSE
	// streams hold their handler for the stream's lifetime, so they are
	// admitted separately from MaxInFlight). Values < 1 select 64.
	MaxWatches int
	// TraceSample sets the span tracer's sampling rate: one in every
	// TraceSample requests is traced (1 traces everything). 0 selects the
	// default (1 in 16); negative disables tracing, making every span site
	// a single atomic load.
	TraceSample int
	// SlowLogEntries caps the slow-query log (the top-N slowest sampled
	// traces, full span trees, served at GET /v1/slowlog). 0 selects 32.
	SlowLogEntries int
	// AccessLog, when set, receives one structured line per request
	// (request ID, route, status, latency, shard count, cache outcome).
	// Nil disables access logging.
	AccessLog io.Writer
	// DataDir, when set, makes every corpus durable under
	// DataDir/<escaped corpus name>: an existing store there is loaded on
	// AddCorpus instead of rebuilding from records, mutation endpoints are
	// write-ahead logged, POST /v1/snapshot checkpoints, and CloseStores
	// (the daemon's graceful drain) fsyncs and seals the logs. Empty keeps
	// the server purely in-memory.
	DataDir string
}

const defaultCacheEntries = 4096

// errCorpusExists marks name conflicts from addCorpus, so the corpora
// handler can map them to 409 without matching message text.
var errCorpusExists = errors.New("corpus already exists")

// maxCachedMatches bounds the size of one result-cache entry: full or
// near-full rankings over a large corpus are not cached, so the
// entry-count cap (Config.CacheEntries) also bounds cache memory. Hot
// serving traffic uses limits anyway; an uncacheably large ranking is
// recomputed per request.
const maxCachedMatches = 2048

func (c Config) withDefaults() Config {
	if c.Shards < 1 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = defaultCacheEntries
	}
	if c.MaxInFlight < 1 {
		c.MaxInFlight = 16 * runtime.GOMAXPROCS(0)
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.MaxWatches < 1 {
		c.MaxWatches = 64
	}
	if c.TraceSample == 0 {
		c.TraceSample = 16
	}
	if c.TraceSample < 0 {
		c.TraceSample = -1
	}
	if c.SlowLogEntries < 1 {
		c.SlowLogEntries = 32
	}
	return c
}

// Server is the serving subsystem. Construct with New, load relations with
// AddCorpus (or POST /v1/corpora at runtime), and mount Handler on any
// http.Server.
type Server struct {
	cfg Config
	met *metrics
	// slow retains the top-N slowest sampled traces (GET /v1/slowlog);
	// alogMu serializes access-log writes so lines never interleave.
	slow   *obs.SlowLog
	alogMu sync.Mutex
	sem    chan struct{}
	// watchSem admits /v1/watch registrations; draining rejects new ones
	// once graceful shutdown has begun.
	watchSem chan struct{}
	draining atomic.Bool

	mu      sync.RWMutex
	corpora map[string]*corpusHandle
	// creating holds names whose corpus build is in flight, so a racing
	// create of the same name fails fast instead of double-touching one
	// data directory.
	creating map[string]bool

	handler http.Handler
}

// New returns a server with no corpora loaded.
func New(cfg Config) *Server {
	s := &Server{
		cfg:      cfg.withDefaults(),
		met:      newMetrics(),
		corpora:  make(map[string]*corpusHandle),
		creating: make(map[string]bool),
	}
	s.slow = obs.NewSlowLog(s.cfg.SlowLogEntries)
	// Sampling is process-wide (the engine's span sites read one global
	// atomic); the last-constructed server's knob wins, which in practice
	// is the daemon's single server.
	if s.cfg.TraceSample < 0 {
		obs.SetTraceSampling(0)
	} else {
		obs.SetTraceSampling(s.cfg.TraceSample)
	}
	s.registerServerMetrics()
	s.sem = make(chan struct{}, s.cfg.MaxInFlight)
	s.watchSem = make(chan struct{}, s.cfg.MaxWatches)
	s.handler = s.routes()
	return s
}

// AddCorpus creates a sharded corpus under the given name with the server's
// default shard count. It errors if the name is taken.
func (s *Server) AddCorpus(name string, records []approxsel.Record, opts ...approxsel.BuildOption) error {
	return s.addCorpus(name, records, s.cfg.Shards, opts...)
}

func (s *Server) addCorpus(name string, records []approxsel.Record, shards int, opts ...approxsel.BuildOption) error {
	if name == "" {
		return fmt.Errorf("server: empty corpus name")
	}
	// Control characters are rejected so corpus names can never spell out
	// the cache-key field separator (cache.Key) and collide across corpora;
	// "." and ".." are rejected because url.PathEscape passes them through
	// unchanged, which would let a durable corpus escape its DataDir.
	for _, r := range name {
		if r < 0x20 || r == 0x7f {
			return fmt.Errorf("server: corpus name %q contains control characters", name)
		}
	}
	if name == "." || name == ".." {
		return fmt.Errorf("server: corpus name %q is reserved", name)
	}
	if shards < 1 {
		shards = s.cfg.Shards
	}
	if s.cfg.DataDir != "" {
		dir := s.corpusDir(name)
		// Creating with records over an existing store would silently drop
		// the records (the store wins inside OpenShardedCorpus) — refuse
		// instead; loading is a records-free AddCorpus or LoadStoredCorpora.
		if len(records) > 0 && (store.HasManifest(dir) || store.Exists(dir)) {
			return fmt.Errorf("server: corpus %q already has a store in %s; load it with no records (the store wins)", name, dir)
		}
		opts = append(opts, approxsel.WithDataDir(dir))
	}
	// Reserve the name before paying for the build: a durable create has
	// on-disk side effects (segment writes, WAL creation), so two racing
	// creators of one name must never both reach OpenShardedCorpus — the
	// loser would truncate the WAL the winner is already appending to.
	s.mu.Lock()
	if _, ok := s.corpora[name]; ok || s.creating[name] {
		s.mu.Unlock()
		return fmt.Errorf("server: corpus %q: %w", name, errCorpusExists)
	}
	s.creating[name] = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.creating, name)
		s.mu.Unlock()
	}()
	sc, err := approxsel.OpenShardedCorpus(records, shards, opts...)
	if err != nil {
		return err
	}
	h := &corpusHandle{
		name:  name,
		sc:    sc,
		preds: make(map[string]approxsel.Predicate),
	}
	if s.cfg.CacheEntries > 0 {
		h.cache = cache.New[[]core.Match](s.cfg.CacheEntries)
	}
	s.mu.Lock()
	s.corpora[name] = h
	s.mu.Unlock()
	return nil
}

// corpusDir is the data directory of one corpus: the name is path-escaped
// so it can never traverse outside DataDir.
func (s *Server) corpusDir(name string) string {
	return filepath.Join(s.cfg.DataDir, url.PathEscape(name))
}

// HasCorpus reports whether a corpus is loaded under the name.
func (s *Server) HasCorpus(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.corpora[name]
	return ok
}

// LoadStoredCorpora scans the data directory and loads every stored corpus
// found there — the restart path for corpora created at runtime through
// POST /v1/corpora, which would otherwise be unreachable until re-created.
// It returns the loaded names in directory order. A server without a data
// directory is a no-op.
func (s *Server) LoadStoredCorpora() ([]string, error) {
	if s.cfg.DataDir == "" {
		return nil, nil
	}
	entries, err := os.ReadDir(s.cfg.DataDir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	var loaded []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		// Server corpora are always sharded, so a loadable store has a
		// manifest; other directories are not ours to touch.
		if !store.HasManifest(filepath.Join(s.cfg.DataDir, e.Name())) {
			continue
		}
		name, err := url.PathUnescape(e.Name())
		if err != nil || name == "" {
			continue
		}
		if err := s.addCorpus(name, nil, 0); err != nil {
			return loaded, fmt.Errorf("server: loading stored corpus %q: %w", name, err)
		}
		loaded = append(loaded, name)
	}
	return loaded, nil
}

// DrainWatches ends every live watch stream cleanly (each SSE client gets
// a final epoch frame) and rejects new /v1/watch registrations with 503.
// It is the first step of the daemon's graceful shutdown: SSE handlers
// return only when their watch closes, so draining them is what unblocks
// http.Server.Shutdown.
func (s *Server) DrainWatches() {
	s.draining.Store(true)
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, h := range s.corpora {
		h.sc.CloseWatches()
	}
}

// CloseStores fsyncs and seals every durable corpus's write-ahead log —
// the graceful-drain step of the daemon. After it, mutation endpoints fail
// (nothing can land unlogged) while selections keep serving; a purely
// in-memory server is untouched. The first error is reported, but every
// store is still closed.
func (s *Server) CloseStores() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var first error
	for _, h := range s.corpora {
		if err := h.sc.CloseStore(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// corpus resolves a corpus by name; an empty name resolves when exactly one
// corpus is loaded.
func (s *Server) corpus(name string) (*corpusHandle, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if name == "" {
		if len(s.corpora) == 1 {
			for _, h := range s.corpora {
				return h, nil
			}
		}
		return nil, fmt.Errorf("server: request names no corpus and %d are loaded", len(s.corpora))
	}
	h, ok := s.corpora[name]
	if !ok {
		return nil, fmt.Errorf("server: unknown corpus %q", name)
	}
	return h, nil
}

func (s *Server) corpusNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.corpora))
	for n := range s.corpora {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Handler returns the HTTP handler serving every endpoint.
func (s *Server) Handler() http.Handler { return s.handler }

// corpusHandle is one served corpus: the sharded relation, its epoch-keyed
// result cache, and the attached predicate views (built once per
// (realization, predicate) and auto-refreshing on epoch advance).
type corpusHandle struct {
	name  string
	sc    *approxsel.ShardedCorpus
	cache *cache.LRU[[]core.Match] // nil when caching is disabled

	// mmu serializes the server's mutations on this corpus, so a mutation
	// response reports exactly the version that mutation produced (not one
	// a concurrent mutator advanced to in between).
	mmu sync.Mutex

	pmu   sync.Mutex
	preds map[string]approxsel.Predicate
}

// normRealization canonicalizes the request's realization name so cache
// keys and predicate handles agree ("" means native).
func normRealization(r string) string {
	if r == "" {
		return string(approxsel.Native)
	}
	return r
}

// cacheKey builds the epoch-keyed result-cache key of one probe.
func cacheKey(corpus, predicate, realization string, opts core.SelectOptions, epochs []uint64, query string) string {
	return cache.Key(corpus, predicate, realization, opts.Limit, opts.Threshold, opts.HasThreshold, epochs, query)
}

// predicate returns the attached view for (realization, name), building and
// memoizing it on first use.
func (h *corpusHandle) predicate(realization, name string) (approxsel.Predicate, error) {
	key := realization + "\x1f" + name
	h.pmu.Lock()
	defer h.pmu.Unlock()
	if p, ok := h.preds[key]; ok {
		return p, nil
	}
	p, err := h.sc.Predicate(name, approxsel.WithRealization(approxsel.Realization(realization)))
	if err != nil {
		return nil, err
	}
	h.preds[key] = p
	return p, nil
}

// probe runs one selection with the epoch-stability handshake: the shard
// epoch vector is read before the cache lookup and again after an uncached
// probe. A stable vector identifies exactly the version the result was
// computed against, so the result is cacheable and the vector is reported;
// an unstable one (the probe raced a mutation) is returned uncached with a
// nil vector.
func (h *corpusHandle) probe(ctx context.Context, p approxsel.Predicate, realization, name, query string, opts core.SelectOptions) (ms []core.Match, epochs []uint64, cached bool, err error) {
	e1 := h.sc.Epochs()
	var key string
	if h.cache != nil {
		_, lk := obs.StartSpan(ctx, "cache.lookup")
		key = cacheKey(h.name, name, realization, opts, e1, query)
		if ms, ok := h.cache.Get(key); ok {
			lk.SetAttr("result", "hit")
			lk.End()
			return ms, e1, true, nil
		}
		lk.SetAttr("result", "miss")
		lk.End()
	}
	ms, err = core.SelectWithOptions(ctx, p, query, opts)
	if err != nil {
		return nil, nil, false, err
	}
	e2 := h.sc.Epochs()
	if !epochsEqual(e1, e2) {
		return ms, nil, false, nil
	}
	if h.cache != nil && len(ms) <= maxCachedMatches {
		_, fl := obs.StartSpan(ctx, "cache.fill")
		h.cache.Put(key, ms)
		fl.End()
	}
	return ms, e1, false, nil
}

func epochsEqual(a, b []uint64) bool { return slices.Equal(a, b) }

// admit is the admission middleware of every data endpoint: it bounds
// in-flight requests (immediate 429 beyond MaxInFlight) and attaches the
// per-request deadline.
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		_, sp := obs.StartSpan(r.Context(), "admit")
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			sp.SetAttr("rejected", "true")
			sp.End()
			s.met.rejected.Add(1)
			writeError(w, http.StatusTooManyRequests, fmt.Errorf("server: at max in-flight requests (%d)", s.cfg.MaxInFlight))
			return
		}
		sp.End()
		s.met.requests.Add(1)
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// status maps a probe error to an HTTP status code. Validation and
// resolution failures are reported with explicit 400/404s at their call
// sites; an error surfacing from the probe itself is the server's fault.
func status(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client went away; nginx's convention
	default:
		return http.StatusInternalServerError
	}
}
