// Command approxserved serves approximate selection over HTTP/JSON: it
// loads one relation into a sharded, cache-accelerated corpus and exposes
// /v1/select, /v1/batch, /v1/join, the mutation endpoints /v1/insert,
// /v1/delete and /v1/upsert, standing queries (/v1/watch: SSE or long-poll
// streams of incremental join events), runtime corpus management
// (/v1/corpora) and observability (/v1/stats, /v1/slowlog, /metrics,
// /healthz). The serve-hot and serve-cold workloads of go run ./bench
// measure this serving path.
//
// Usage:
//
//	approxserved                                  # serve dblp:5000 on :8080
//	approxserved -addr :9090 -dataset company:2000 -shards 4
//	approxserved -dataset titles.txt              # one record per line
//	approxserved -data /var/lib/approxsel         # durable: load-on-start, WAL, /v1/snapshot
//	approxserved -node-id n0 -peers n0=http://h0:8080,n1=http://h1:8080,n2=http://h2:8080
//	                                              # replicated serving (approxcluster)
//	approxserved -node-id n2 -peers ... -join     # join empty; corpora arrive from the leader
//	approxserved -node-id n0 -peers ... -chaos-seed 7 -chaos-rules @rules.json
//	                                              # fault injection on peer traffic (POST /chaos/rules to switch)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	approxsel "repro"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the daemon with explicit context, arguments and streams, so
// tests can drive it end to end and cancel it for graceful shutdown.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("approxserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address (use :0 for a random port)")
	portfile := fs.String("portfile", "", "write the resolved listen address to this file once serving")
	dataset := fs.String("dataset", "dblp:5000", "relation to load: dblp:N, company:N, or a file with one record per line")
	corpusName := fs.String("corpus", "main", "name of the served corpus")
	dataDir := fs.String("data", "", "data directory for durable corpora (load-on-start, WAL on mutations, /v1/snapshot checkpoints; empty = in-memory)")
	shards := fs.Int("shards", 0, "shards per corpus (0 = GOMAXPROCS)")
	cacheEntries := fs.Int("cache", 0, "result-cache entries per corpus (0 = default 4096, negative disables)")
	maxInFlight := fs.Int("maxinflight", 0, "max concurrently admitted requests (0 = 16x GOMAXPROCS)")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request deadline")
	workers := fs.Int("workers", 0, "batch/join fan-out workers (0 = GOMAXPROCS)")
	seed := fs.Int64("seed", 1, "synthetic dataset generation seed")
	debugAddr := fs.String("debug-addr", "", "listen address for the debug server (net/http/pprof + /metrics); empty disables")
	debugPortfile := fs.String("debug-portfile", "", "write the debug server's resolved listen address to this file")
	traceSample := fs.Int("trace-sample", 16, "trace one in every N requests (1 = all, negative disables tracing)")
	slowlogEntries := fs.Int("slowlog", 32, "slow-query log capacity (top-N slowest traced requests, GET /v1/slowlog)")
	accessLog := fs.String("access-log", "", "access log destination: a file path, \"-\" for stdout, empty disables")
	nodeID := fs.String("node-id", "", "cluster: this node's ID (enables replication; must appear in -peers)")
	peersSpec := fs.String("peers", "", "cluster: comma-separated id=url pairs, including this node")
	join := fs.Bool("join", false, "cluster: start empty and receive corpora from the leader (skips -dataset)")
	chaosSeed := fs.Int64("chaos-seed", 0, "chaos: enable fault injection on peer traffic with this RNG seed (cluster mode only; exposes GET/POST /chaos/rules)")
	chaosRules := fs.String("chaos-rules", "", "chaos: initial fault rules as inline JSON, or @file to read them from a file")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var alog io.Writer
	switch *accessLog {
	case "":
	case "-":
		alog = stdout
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(stderr, "approxserved: %v\n", err)
			return 1
		}
		alog = f
		defer f.Close()
	}

	srv := server.New(server.Config{
		Shards:         *shards,
		CacheEntries:   *cacheEntries,
		MaxInFlight:    *maxInFlight,
		RequestTimeout: *timeout,
		Workers:        *workers,
		DataDir:        *dataDir,
		TraceSample:    *traceSample,
		SlowLogEntries: *slowlogEntries,
		AccessLog:      alog,
	})
	var node *cluster.Node
	var inj *chaos.Injector
	if (*chaosSeed != 0 || *chaosRules != "") && *nodeID == "" {
		fmt.Fprintln(stderr, "approxserved: -chaos-seed/-chaos-rules require cluster mode (-node-id and -peers)")
		return 2
	}
	if *nodeID != "" || *peersSpec != "" {
		peers, err := parsePeers(*peersSpec)
		if err != nil {
			fmt.Fprintf(stderr, "approxserved: %v\n", err)
			return 2
		}
		var client *http.Client
		if *chaosSeed != 0 || *chaosRules != "" {
			// The injector sits on both sides of the peer mesh: every RPC
			// this node sends goes through Transport, every RPC it receives
			// through the Inbound wrapper mounted below. Client traffic
			// (no chaos peer header) is never touched.
			inj = chaos.New(*chaosSeed)
			inj.SetPeers(peers)
			spec := *chaosRules
			if strings.HasPrefix(spec, "@") {
				data, err := os.ReadFile(spec[1:])
				if err != nil {
					fmt.Fprintf(stderr, "approxserved: -chaos-rules: %v\n", err)
					return 2
				}
				spec = string(data)
			}
			rules, err := chaos.ParseRules(spec)
			if err != nil {
				fmt.Fprintf(stderr, "approxserved: -chaos-rules: %v\n", err)
				return 2
			}
			inj.SetRules(rules)
			client = &http.Client{Transport: inj.Transport(*nodeID, nil)}
		}
		node, err = cluster.NewNode(cluster.Config{
			ID:      *nodeID,
			Peers:   peers,
			DataDir: *dataDir,
			Backend: srv.ClusterBackend(),
			Client:  client,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(stderr, "approxserved: "+format+"\n", args...)
			},
		})
		if err != nil {
			fmt.Fprintf(stderr, "approxserved: %v\n", err)
			return 2
		}
		srv.AttachCluster(node)
	}
	// A data directory restores every stored corpus first — including ones
	// created at runtime through POST /v1/corpora in a previous life. Only
	// when the named corpus is not among them is the -dataset loaded and
	// parsed at all: the fast-restart path never touches the raw relation.
	if *dataDir != "" {
		names, err := srv.LoadStoredCorpora()
		if err != nil {
			fmt.Fprintf(stderr, "approxserved: %v\n", err)
			return 1
		}
		for _, n := range names {
			fmt.Fprintf(stdout, "approxserved: restored corpus %q from %s\n", n, *dataDir)
		}
	}
	// A joining replica starts empty: its corpora arrive from the leader
	// through the snapshot + WAL-tail catch-up path, never from -dataset —
	// that is the only way every replica ends up bit-identical.
	if !*join && !srv.HasCorpus(*corpusName) {
		records, err := loadDataset(*dataset, *seed)
		if err != nil {
			fmt.Fprintf(stderr, "approxserved: %v\n", err)
			return 1
		}
		if err := srv.AddCorpus(*corpusName, records); err != nil {
			fmt.Fprintf(stderr, "approxserved: %v\n", err)
			return 1
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "approxserved: %v\n", err)
		return 1
	}
	if *portfile != "" {
		if err := os.WriteFile(*portfile, []byte(ln.Addr().String()), 0o644); err != nil {
			fmt.Fprintf(stderr, "approxserved: %v\n", err)
			return 1
		}
	}
	if names := srv.ClusterBackend().Corpora(); len(names) > 0 {
		fmt.Fprintf(stdout, "approxserved: serving corpora %q on %s\n", names, ln.Addr())
	} else {
		fmt.Fprintf(stdout, "approxserved: serving on %s (no local corpora yet; awaiting the cluster leader)\n", ln.Addr())
	}

	// The debug server mounts the profiling endpoints (and a second /metrics
	// for scrapers that cannot reach the serving port) on its own listener,
	// so profiling traffic is never admitted against MaxInFlight and can be
	// firewalled separately from the data plane.
	var dbg *http.Server
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("GET /metrics", srv.Handler())
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintf(stderr, "approxserved: %v\n", err)
			return 1
		}
		if *debugPortfile != "" {
			if err := os.WriteFile(*debugPortfile, []byte(dln.Addr().String()), 0o644); err != nil {
				fmt.Fprintf(stderr, "approxserved: %v\n", err)
				return 1
			}
		}
		dbg = &http.Server{Handler: dmux}
		go func() { _ = dbg.Serve(dln) }()
		fmt.Fprintf(stdout, "approxserved: debug server (pprof, /metrics) on %s\n", dln.Addr())
	}

	handler := srv.Handler()
	if inj != nil {
		// The chaos mount wraps the whole serving surface: peer-originated
		// RPCs pass the injector's Inbound gate, and /chaos/rules switches
		// the active rule set at runtime without a restart.
		cmux := http.NewServeMux()
		cmux.HandleFunc("GET /chaos/rules", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(inj.Rules())
		})
		cmux.HandleFunc("POST /chaos/rules", func(w http.ResponseWriter, r *http.Request) {
			body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			rules, err := chaos.ParseRules(string(body))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			inj.SetRules(rules)
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, "{\"rules\":%d}\n", len(rules))
		})
		cmux.Handle("/", inj.Inbound(*nodeID, handler))
		handler = cmux
		fmt.Fprintf(stdout, "approxserved: chaos injection armed (seed %d, %d initial rules)\n", *chaosSeed, len(inj.Rules()))
	}
	hs := &http.Server{Handler: handler}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	if node != nil {
		// The node's RPC surface rides the server's own /cluster/ mount, so
		// elections and replication start only once the listener is up.
		node.Start()
		fmt.Fprintf(stdout, "approxserved: cluster node %q up, peers %s\n", *nodeID, *peersSpec)
	}
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(stderr, "approxserved: %v\n", err)
			return 1
		}
	case <-ctx.Done():
		// Graceful shutdown: close watch streams first (each client gets a
		// final epoch frame, and Shutdown would otherwise wait on them
		// forever), then stop accepting and drain in-flight requests, then
		// fsync and seal the write-ahead logs — the last acknowledged
		// mutation is on stable storage before the process exits.
		if node != nil {
			// Stop election and replication loops first: nothing new is
			// pulled or applied while the store drains below.
			node.Stop()
		}
		srv.DrainWatches()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(stderr, "approxserved: shutdown: %v\n", err)
			return 1
		}
		if err := srv.CloseStores(); err != nil {
			fmt.Fprintf(stderr, "approxserved: store close: %v\n", err)
			return 1
		}
		if dbg != nil {
			_ = dbg.Shutdown(shutdownCtx)
		}
		if *dataDir != "" {
			fmt.Fprintln(stdout, "approxserved: store synced")
		}
		fmt.Fprintln(stdout, "approxserved: drained, bye")
	}
	return 0
}

// parsePeers parses the -peers spec: comma-separated id=url pairs, e.g.
// "n0=http://127.0.0.1:8080,n1=http://127.0.0.1:8081".
func parsePeers(spec string) (map[string]string, error) {
	if spec == "" {
		return nil, fmt.Errorf("cluster mode needs -peers (id=url,...)")
	}
	peers := make(map[string]string)
	for _, part := range strings.Split(spec, ",") {
		id, url, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=url)", part)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("duplicate peer ID %q in -peers", id)
		}
		peers[id] = url
	}
	return peers, nil
}

// loadDataset parses the -dataset spec: dblp:N and company:N generate the
// synthetic relations of the benchmark (Table 5.1 statistics); anything
// else is a file path read as one record text per line (TIDs 1..n).
func loadDataset(spec string, seed int64) ([]approxsel.Record, error) {
	if kind, nStr, ok := strings.Cut(spec, ":"); ok {
		n, err := strconv.Atoi(nStr)
		if err == nil && n > 0 {
			switch kind {
			case "dblp":
				return textsToRecords(approxsel.DBLPTitles(n, seed)), nil
			case "company":
				return textsToRecords(approxsel.CompanyNames(n, seed)), nil
			}
		}
		if kind == "dblp" || kind == "company" {
			return nil, fmt.Errorf("bad dataset spec %q (want %s:N with N > 0)", spec, kind)
		}
	}
	data, err := os.ReadFile(spec)
	if err != nil {
		return nil, fmt.Errorf("dataset %q: %w", spec, err)
	}
	var texts []string
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			texts = append(texts, line)
		}
	}
	if len(texts) == 0 {
		return nil, fmt.Errorf("dataset %q: no records", spec)
	}
	return textsToRecords(texts), nil
}

func textsToRecords(texts []string) []approxsel.Record {
	records := make([]approxsel.Record, len(texts))
	for i, t := range texts {
		records[i] = approxsel.Record{TID: i + 1, Text: t}
	}
	return records
}
