package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// maxClients caps client goroutines and connections: the process is pinned
// to at most two CPUs, and the load generator must not outnumber them.
const maxClients = 2

// served is approxserved's serving subsystem behind a real loopback
// listener, plus the keep-alive client the workload drives it with.
type served struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client
	done   chan error
}

func startServer(cfg server.Config) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("bench: listen: %w", err)
	}
	srv := server.New(cfg)
	s := &served{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: maxClients, MaxConnsPerHost: maxClients}},
		done:   make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close seals the durable stores, stops the listener and waits for the
// serve goroutine to return.
func (s *served) close() error {
	err := s.srv.CloseStores()
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := s.hs.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	if serr := <-s.done; serr != nil && serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}

// post sends one JSON request and returns the status and the whole body.
func (s *served) post(path string, body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, err
}

func (s *served) postJSON(path string, req, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	code, data, err := s.post(path, body)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("bench: POST %s: status %d: %s", path, code, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func (s *served) stats() (server.Stats, error) {
	var st server.Stats
	resp, err := s.client.Get(s.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("bench: GET /v1/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func selectBody(op selectOp) []byte { return selectBodyOn("main", op) }

func selectBodyOn(corpus string, op selectOp) []byte {
	body, err := json.Marshal(server.SelectRequest{Corpus: corpus, Predicate: op.predicate, Query: op.query, Limit: selectLimit})
	if err != nil {
		panic(err) // strings and ints always marshal
	}
	return body
}

// selectOnce issues one POST /v1/select and decodes the answer.
func (s *served) selectOnce(body []byte) (server.SelectResponse, int, error) {
	var out server.SelectResponse
	code, data, err := s.post("/v1/select", body)
	if err != nil {
		return out, 0, err
	}
	if code != http.StatusOK {
		return out, len(data), fmt.Errorf("bench: select status %d: %s", code, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return out, len(data), err
	}
	if out.Count != len(out.Matches) || out.Count > selectLimit {
		return out, len(data), fmt.Errorf("bench: select returned count %d with %d matches (limit %d)", out.Count, len(out.Matches), selectLimit)
	}
	return out, len(data), nil
}

func wireMatches(ms []server.Match) []core.Match {
	out := make([]core.Match, len(ms))
	for i, m := range ms {
		out[i] = core.Match{TID: m.TID, Score: m.Score}
	}
	return out
}

// phase is the outcome of one closed-loop timed phase.
type phase struct {
	clients  []clientSamples
	elapsed  time.Duration
	ops      int
	errs     int
	cached   int
	firstErr error
}

// closedLoop runs `clients` goroutines for d: each issues its next
// operation only after the previous one completed. op(c, i) performs the
// i-th operation of client c and reports whether the answer came from the
// result cache; it returns errStop to end that client's loop early (its
// operation list ran out). rec, when set, records one span per operation.
func closedLoop(clients int, d time.Duration, rec *recorder, name string, op func(c, i int) (cached bool, err error)) phase {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		out = phase{clients: make([]clientSamples, clients)}
	)
	t0 := time.Now()
	deadline := t0.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var s clientSamples
			errs, cached := 0, 0
			var first error
			for i := 0; ; i++ {
				start := time.Now()
				if !start.Before(deadline) {
					break
				}
				sp := rec.start(name, -1, i*clients+c)
				hit, err := op(c, i)
				end := time.Now()
				rec.end(sp)
				if err == errStop {
					break
				}
				if err != nil {
					errs++
					if first == nil {
						first = err
					}
					continue
				}
				if hit {
					cached++
				}
				s.start = append(s.start, int64(start.Sub(t0)))
				s.lat = append(s.lat, int64(end.Sub(start)))
			}
			mu.Lock()
			out.clients[c] = s
			out.ops += len(s.lat) + errs
			out.errs += errs
			out.cached += cached
			if out.firstErr == nil {
				out.firstErr = first
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	out.elapsed = time.Since(t0)
	return out
}

var errStop = errors.New("bench: operation list exhausted")

// account folds a timed phase into the run's attempted/failed totals.
func (p phase) account(r *result) {
	r.Attempted += p.ops
	if p.errs > 0 {
		r.fail(p.errs, "%d operations failed in the timed phase, first: %v", p.errs, p.firstErr)
	}
}
