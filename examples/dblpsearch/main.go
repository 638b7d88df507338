// Command dblpsearch demonstrates approximate selection as flexible search
// over a bibliography: misspelled, reordered queries against a DBLP-like
// title relation, plus the §5.6 IDF-pruning enhancement and its
// accuracy/speed trade-off.
//
// With -serve the same search runs as an HTTP client against an in-process
// approxserved instance instead of the in-memory library: the example boots
// the serving subsystem on a loopback port, POSTs the queries to
// /v1/select, inserts a record over /v1/insert, and shows the epoch-keyed
// cache hitting on a repeated query.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	approxsel "repro"
	"repro/internal/server"
)

func main() {
	size := flag.Int("size", 5000, "number of titles in the relation")
	serve := flag.Bool("serve", false, "run the search through approxserved over HTTP instead of in-process")
	flag.Parse()
	if err := run(os.Stdout, *size, *serve); err != nil {
		log.Fatal(err)
	}
}

// run prints the search demo over size generated titles to w: in process,
// or with serve through approxserved over HTTP.
func run(w io.Writer, size int, serve bool) error {
	// The pruning table queries titles up to index 19*37 = 703.
	if size < 704 {
		return fmt.Errorf("size %d: need at least 704 titles", size)
	}
	titles := approxsel.DBLPTitles(size, 7)
	records := make([]approxsel.Record, len(titles))
	for i, title := range titles {
		records[i] = approxsel.Record{TID: i + 1, Text: title}
	}

	if serve {
		return serveDemo(w, titles, records)
	}

	bm25, err := approxsel.New("BM25", records)
	if err != nil {
		return err
	}

	// Misspelled and word-swapped variants of real titles still match.
	base := titles[123]
	queries := []string{
		base,
		misspell(base),
		swapFirstWords(base),
	}
	fmt.Fprintf(w, "searching %d titles; target: %q\n", len(records), base)
	for _, q := range queries {
		top, err := approxsel.TopK(bm25, q, 1)
		if err != nil {
			return err
		}
		hit := "MISS"
		if len(top) > 0 && top[0].TID == 124 {
			hit = "hit "
		}
		fmt.Fprintf(w, "  [%s] query %q\n", hit, q)
	}

	// The §5.6 enhancement: prune low-IDF grams during preprocessing.
	// Pruning shrinks the token table, speeding queries at a small
	// accuracy cost (or even a gain for unweighted predicates).
	fmt.Fprintln(w, "\nIDF pruning trade-off (BM25):")
	fmt.Fprintln(w, "  rate   preprocess    query-avg   top1-hits/20")
	for _, rate := range []float64{0, 0.2, 0.4} {
		cfg := approxsel.DefaultConfig()
		cfg.PruneRate = rate
		start := time.Now()
		p, err := approxsel.New("BM25", records, cfg)
		if err != nil {
			return err
		}
		prep := time.Since(start)

		hits := 0
		start = time.Now()
		for i := 0; i < 20; i++ {
			q := misspell(titles[i*37])
			top, err := approxsel.TopK(p, q, 1)
			if err != nil {
				return err
			}
			if len(top) > 0 && top[0].TID == i*37+1 {
				hits++
			}
		}
		avg := time.Since(start) / 20
		fmt.Fprintf(w, "  %.1f   %10s   %10s   %d\n", rate, prep.Round(time.Millisecond), avg.Round(time.Microsecond), hits)
	}
	return nil
}

// serveDemo is the HTTP-client example: everything below talks to
// approxserved's JSON API exactly as a remote client would.
func serveDemo(w io.Writer, titles []string, records []approxsel.Record) error {
	srv := server.New(server.Config{})
	if err := srv.AddCorpus("dblp", records); err != nil {
		return err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fmt.Fprintf(w, "approxserved serving %d titles at %s\n", len(records), ts.URL)

	type match struct {
		TID   int     `json:"tid"`
		Score float64 `json:"score"`
	}
	type selectResponse struct {
		Matches   []match `json:"matches"`
		Cached    bool    `json:"cached"`
		ElapsedUS int64   `json:"elapsed_us"`
	}
	search := func(query string) (selectResponse, error) {
		body, err := json.Marshal(map[string]any{
			"corpus": "dblp", "predicate": "BM25", "query": query, "limit": 1,
		})
		if err != nil {
			return selectResponse{}, err
		}
		resp, err := http.Post(ts.URL+"/v1/select", "application/json", bytes.NewReader(body))
		if err != nil {
			return selectResponse{}, err
		}
		defer resp.Body.Close()
		var out selectResponse
		if resp.StatusCode != http.StatusOK {
			return out, fmt.Errorf("select: status %d", resp.StatusCode)
		}
		return out, json.NewDecoder(resp.Body).Decode(&out)
	}

	base := titles[123]
	fmt.Fprintf(w, "target: %q\n", base)
	for _, q := range []string{base, misspell(base), swapFirstWords(base), misspell(base)} {
		r, err := search(q)
		if err != nil {
			return err
		}
		hit := "MISS"
		if len(r.Matches) > 0 && r.Matches[0].TID == 124 {
			hit = "hit "
		}
		fmt.Fprintf(w, "  [%s] cached=%-5v %6dµs  query %q\n", hit, r.Cached, r.ElapsedUS, q)
	}

	// Mutations invalidate by epoch advance: the repeated query misses the
	// cache once, then caches again under the new version.
	ins, err := json.Marshal(map[string]any{
		"corpus":  "dblp",
		"records": []map[string]any{{"tid": len(records) + 1, "text": base + " (extended version)"}},
	})
	if err != nil {
		return err
	}
	resp, err := http.Post(ts.URL+"/v1/insert", "application/json", bytes.NewReader(ins))
	if err != nil {
		return err
	}
	resp.Body.Close()
	fmt.Fprintln(w, "inserted one record; epoch advanced")
	for i := 0; i < 2; i++ {
		r, err := search(misspell(base))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  re-query: cached=%-5v %6dµs\n", r.Cached, r.ElapsedUS)
	}
	return nil
}

// misspell introduces two character errors.
func misspell(s string) string {
	r := []rune(s)
	if len(r) > 8 {
		r[3], r[4] = r[4], r[3]     // transpose
		r = append(r[:7], r[8:]...) // delete
	}
	return string(r)
}

// swapFirstWords swaps the first two words.
func swapFirstWords(s string) string {
	var a, b string
	n, _ := fmt.Sscanf(s, "%s %s", &a, &b)
	if n < 2 {
		return s
	}
	if cut := len(a) + len(b) + 2; cut < len(s) {
		return b + " " + a + " " + s[cut:]
	}
	return b + " " + a
}
