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
package main

import (
	"context"
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
	if !srv.HasCorpus(*corpusName) {
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
	fmt.Fprintf(stdout, "approxserved: serving corpus %q on %s\n", *corpusName, ln.Addr())

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

	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
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
