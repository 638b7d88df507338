package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	approxsel "repro"
)

// TestServeEndToEnd boots the daemon on a random port, talks to it over
// HTTP — select, insert, cached re-select — checks the stats hit rate, then
// cancels the context and expects a graceful drain.
func TestServeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	portfile := filepath.Join(dir, "addr.txt")
	ctx, cancel := context.WithCancel(context.Background())
	var stdout, stderr bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-portfile", portfile,
			"-dataset", "company:60",
			"-shards", "2",
		}, &stdout, &stderr)
	}()

	var addr string
	for i := 0; i < 100; i++ {
		if data, err := os.ReadFile(portfile); err == nil && len(data) > 0 {
			addr = string(data)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("portfile never appeared; stderr: %s", stderr.String())
	}
	base := "http://" + addr

	postJSON := func(path, body string) map[string]any {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %v", path, resp.StatusCode, out)
		}
		return out
	}

	sel := `{"corpus":"main","predicate":"BM25","query":"international business machines","limit":5}`
	first := postJSON("/v1/select", sel)
	if first["cached"] != false {
		t.Fatalf("first select must miss: %v", first)
	}
	second := postJSON("/v1/select", sel)
	if second["cached"] != true {
		t.Fatalf("second select must hit: %v", second)
	}
	postJSON("/v1/insert", `{"corpus":"main","records":[{"tid":9001,"text":"International Business Machines Corporation"}]}`)
	third := postJSON("/v1/select", sel)
	if third["cached"] != false {
		t.Fatalf("select after insert must miss: %v", third)
	}

	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Cache struct {
			HitRate float64 `json:"hit_rate"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Cache.HitRate <= 0 {
		t.Fatalf("hit rate must be positive after a cached re-select: %v", stats.Cache.HitRate)
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code %d; stderr: %s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain after cancellation")
	}
	if !strings.Contains(stdout.String(), "drained") {
		t.Fatalf("graceful shutdown not reported: %s", stdout.String())
	}
}

// TestDrainPersistsLastAckedEpoch is the graceful-drain regression test:
// the daemon runs with a data directory while a client streams mutations,
// the run is killed (SIGTERM context cancellation) mid-stream, and the
// store — reopened in a fresh corpus, exactly as the next process start
// would — must replay to the epoch vector of the last acknowledged
// mutation. Acknowledged-then-lost and unacknowledged-then-kept are both
// failures.
func TestDrainPersistsLastAckedEpoch(t *testing.T) {
	dir := t.TempDir()
	dataDir := filepath.Join(dir, "data")
	portfile := filepath.Join(dir, "addr.txt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-portfile", portfile,
			"-dataset", "company:40",
			"-shards", "2",
			"-data", dataDir,
		}, &stdout, &stderr)
	}()
	var addr string
	for i := 0; i < 100; i++ {
		if data, err := os.ReadFile(portfile); err == nil && len(data) > 0 {
			addr = string(data)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("portfile never appeared; stderr: %s", stderr.String())
	}
	base := "http://" + addr

	// Stream mutations; remember the epoch vector of every acknowledged one.
	var lastAcked []uint64
	acked := 0
	for i := 0; ; i++ {
		body := fmt.Sprintf(`{"corpus":"main","records":[{"tid":%d,"text":"Streamed Mutation %d Inc"}]}`, 9000+i, i)
		resp, err := http.Post(base+"/v1/insert", "application/json", strings.NewReader(body))
		if err != nil {
			break // the listener died mid-stream: everything acked so far must survive
		}
		var out struct {
			Epochs []uint64 `json:"epochs"`
		}
		decodeErr := json.NewDecoder(resp.Body).Decode(&out)
		code := resp.StatusCode
		resp.Body.Close()
		if code != http.StatusOK || decodeErr != nil {
			break
		}
		lastAcked = out.Epochs
		acked++
		if acked == 5 {
			cancel() // SIGTERM lands mid-stream; later inserts race the drain
		}
		if acked == 25 {
			cancel()
			break
		}
	}
	if acked < 5 {
		t.Fatalf("only %d mutations acknowledged; stderr: %s", acked, stderr.String())
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code %d; stderr: %s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain after cancellation")
	}
	if !strings.Contains(stdout.String(), "store synced") {
		t.Fatalf("drain must report the store sync: %s", stdout.String())
	}

	// Reopen the store exactly like the next cold start would.
	restored, err := approxsel.OpenShardedCorpus(nil, 0, approxsel.WithDataDir(filepath.Join(dataDir, "main")))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.CloseStore()
	n, epochs := restored.State()
	if len(epochs) != len(lastAcked) {
		t.Fatalf("restored %d shards, acked vector %v", len(epochs), lastAcked)
	}
	// Every acknowledged mutation must survive. An insert applied during the
	// drain whose response was lost may legitimately put the store slightly
	// ahead of the last ack — never behind it.
	var advances uint64
	for i := range epochs {
		if epochs[i] < lastAcked[i] {
			t.Fatalf("replay reached %v, behind last acked %v", epochs, lastAcked)
		}
		advances += epochs[i]
	}
	if n < 40+acked {
		t.Fatalf("restored %d records after %d acked inserts over 40", n, acked)
	}
	// Each single-record insert advances exactly one shard epoch, so the
	// restored state must be internally consistent: epoch advances == rows
	// gained.
	if advances != uint64(n-40) {
		t.Fatalf("restored %d extra records but %d epoch advances", n-40, advances)
	}
}

// TestLoadDataset covers the dataset spec parser.
func TestLoadDataset(t *testing.T) {
	if rs, err := loadDataset("dblp:30", 1); err != nil || len(rs) != 30 {
		t.Fatalf("dblp:30: %d %v", len(rs), err)
	}
	if rs, err := loadDataset("company:10", 1); err != nil || len(rs) != 10 {
		t.Fatalf("company:10: %d %v", len(rs), err)
	}
	if _, err := loadDataset("dblp:0", 1); err == nil {
		t.Fatal("dblp:0 must fail")
	}
	if _, err := loadDataset("/no/such/file", 1); err == nil {
		t.Fatal("missing file must fail")
	}
	f := filepath.Join(t.TempDir(), "data.txt")
	if err := os.WriteFile(f, []byte("alpha beta\n\n  gamma delta  \n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rs, err := loadDataset(f, 1)
	if err != nil || len(rs) != 2 || rs[1].Text != "gamma delta" {
		t.Fatalf("file dataset: %v %v", rs, err)
	}
	for i, r := range rs {
		if r.TID != i+1 {
			t.Fatalf("tids must be 1..n: %v", rs)
		}
	}
}

// TestBadFlags keeps flag errors at exit code 2, including the retired
// replication and fault-injection flags.
func TestBadFlags(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-nosuchflag"},
		{"-node-id", "n0"},
		{"-peers", "n0=http://127.0.0.1:8080"},
		{"-join"},
		{"-chaos-seed", "7"},
		{"-chaos-rules", "[]"},
	} {
		if code := run(context.Background(), args, &out, &out); code != 2 {
			t.Fatalf("%v: exit %d", args, code)
		}
	}
	if code := run(context.Background(), []string{"-dataset", "dblp:x"}, &out, &out); code != 1 {
		t.Fatalf("bad dataset spec: exit %d", code)
	}
}

// TestDebugServer boots the daemon with a debug listener and full trace
// sampling, exercises a select, and checks the observability surface end
// to end: pprof and /metrics on the debug port, the access log, and a
// slow-query trace with the fan-out span tree on the serving port.
func TestDebugServer(t *testing.T) {
	dir := t.TempDir()
	portfile := filepath.Join(dir, "addr.txt")
	debugPortfile := filepath.Join(dir, "debug.txt")
	accessLog := filepath.Join(dir, "access.log")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-portfile", portfile,
			"-debug-addr", "127.0.0.1:0",
			"-debug-portfile", debugPortfile,
			"-trace-sample", "1",
			"-access-log", accessLog,
			"-dataset", "company:60",
			"-shards", "2",
		}, &stdout, &stderr)
	}()
	var addr, debugAddr string
	for i := 0; i < 100; i++ {
		a, _ := os.ReadFile(portfile)
		d, _ := os.ReadFile(debugPortfile)
		if len(a) > 0 && len(d) > 0 {
			addr, debugAddr = string(a), string(d)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if addr == "" || debugAddr == "" {
		t.Fatalf("portfiles never appeared; stderr: %s", stderr.String())
	}
	base := "http://" + addr

	resp, err := http.Post(base+"/v1/select", "application/json",
		strings.NewReader(`{"corpus":"main","predicate":"BM25","query":"general electric","limit":5}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("select response carries no X-Request-Id")
	}

	fetch := func(url string) string {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", url, resp.StatusCode, body)
		}
		return string(body)
	}

	// /metrics on both the serving and the debug listener.
	for _, u := range []string{base + "/metrics", "http://" + debugAddr + "/metrics"} {
		if !strings.Contains(fetch(u), "approx_select_total 1") {
			t.Fatalf("%s missing approx_select_total", u)
		}
	}
	if len(fetch("http://"+debugAddr+"/debug/pprof/cmdline")) == 0 {
		t.Fatal("pprof cmdline endpoint returned nothing")
	}

	// The traced select is in the slow log with its span tree.
	var slow struct {
		Entries []struct {
			Name  string `json:"name"`
			Spans struct {
				Children []struct {
					Name string `json:"name"`
				} `json:"children"`
			} `json:"spans"`
		} `json:"entries"`
	}
	if err := json.Unmarshal([]byte(fetch(base+"/v1/slowlog")), &slow); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range slow.Entries {
		if e.Name == "select" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no select trace in slowlog: %s", fetch(base+"/v1/slowlog"))
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code %d; stderr: %s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain")
	}
	logData, err := os.ReadFile(accessLog)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(logData), "route=select") || !strings.Contains(string(logData), "status=200") {
		t.Fatalf("access log missing the select line: %s", logData)
	}
}
