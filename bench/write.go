package main

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"time"

	approxsel "repro"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/store"
)

// readPredicates are the selects that follow every mutation: the first
// read of each predicate pays the view rebuild of the new epoch, the second
// is a steady miss.
var readPredicates = []string{"BM25", "Jaccard", "BM25", "Jaccard"}

// digestCycles is how many leading cycles the result digest covers: a
// fixed count, so the digest repeats however many cycles the timed phase
// fits.
const digestCycles = 16

// writeInst is the set-up write-durable workload: a durable two-shard
// corpus served over loopback, the seeded mutation list and the queries of
// the reads beside it.
type writeInst struct {
	dir     string
	sv      *served
	base    []approxsel.Record
	muts    []mutation
	queries []approxsel.Record

	// Progress of the timed phases.
	cycles   int
	reads    int
	epochs   []uint64 // last acknowledged epoch vector
	snapshot struct {
		done     bool
		took     time.Duration
		entries  int
		walBytes int64
		segBytes int64
	}
	digest *digest
}

func (in *writeInst) close() error {
	if in == nil {
		return nil
	}
	var err error
	if in.sv != nil {
		err = in.sv.close()
		in.sv = nil
	}
	if rerr := os.RemoveAll(in.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

func setupWrite(cfg config) (*writeInst, setupTimes, error) {
	sz := cfg.sizes
	t0 := time.Now()
	n := cfg.scaled(sz.writeRecords)
	ds, err := dataset(n+sz.writePool, cfg.seed)
	if err != nil {
		return nil, setupTimes{}, err
	}
	// The generator emits clusters in order; hold back a seeded random
	// subset as the insert pool, not the last clusters.
	recs := append([]approxsel.Record(nil), ds.Records...)
	rand.New(rand.NewSource(cfg.seed+5)).Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	in := &writeInst{base: recs[:n], digest: newDigest()}
	if in.dir, err = os.MkdirTemp(cfg.workDir, "write-durable-"); err != nil {
		return nil, setupTimes{}, err
	}
	// The store's default flush policy stays: WAL appends are plain writes,
	// fsynced by checkpoints and by the graceful close.
	if in.sv, err = startServer(server.Config{Shards: serveShards, DataDir: filepath.Join(in.dir, "data")}); err != nil {
		in.close()
		return nil, setupTimes{}, err
	}
	tp := time.Now()
	if err := in.sv.srv.AddCorpus("main", in.base); err != nil {
		in.close()
		return nil, setupTimes{}, err
	}
	prep := time.Since(tp)
	in.muts = mutationList(in.base, recs[n:], len(recs), cfg.seed+4)
	in.queries = pickQueries(in.base, len(in.base), cfg.seed+1)
	// Attach the two predicate views before timing, as a warm server has.
	for _, p := range readPredicates[:2] {
		if _, _, err := in.sv.selectOnce(selectBody(selectOp{predicate: p, query: in.queries[0].Text})); err != nil {
			in.close()
			return nil, setupTimes{}, err
		}
	}
	return in, setupTimes{total: time.Since(t0).Seconds(), preprocess: prep.Seconds()}, nil
}

// mutate sends one mutation and returns the acknowledged state.
func (in *writeInst) mutate(m mutation) (server.MutateResponse, error) {
	var ack server.MutateResponse
	var err error
	switch m.kind {
	case "delete":
		err = in.sv.postJSON("/v1/delete", server.DeleteRequest{TIDs: []int{m.rec.TID}}, &ack)
	default:
		err = in.sv.postJSON("/v1/"+m.kind, server.MutateRequest{Records: []server.RecordJSON{{TID: m.rec.TID, Text: m.rec.Text}}}, &ack)
	}
	return ack, err
}

// writePhase is the outcome of one timed phase of write/read cycles.
type writePhase struct {
	writes, first, steady clientSamples
	wall                  time.Duration // elapsed, less the checkpoint
	ops, errs             int
	firstErr              error
}

// reads is every select latency of the phase, ascending.
func (p *writePhase) reads() []int64 {
	return sortedCopy(append(append([]int64(nil), p.first.lat...), p.steady.lat...))
}

// timedCycles runs the closed loop for d with one client: one mutation,
// then four selects, continuing the lists where an earlier phase stopped.
// The checkpoint after mutation sizes.snapshotAt is timed on its own and
// left out of the phase's wall time.
func (in *writeInst) timedCycles(cfg config, d time.Duration, rec *recorder) writePhase {
	var p writePhase
	t0 := time.Now()
	deadline := t0.Add(d)
	var outside time.Duration
	record := func(s *clientSamples, start time.Time) {
		s.start = append(s.start, int64(start.Sub(t0)))
		s.lat = append(s.lat, int64(time.Since(start)))
	}
	failed := func(err error) {
		p.errs++
		if p.firstErr == nil {
			p.firstErr = err
		}
	}
	// The cycles the digest covers always run, however short the phase.
	for in.cycles < len(in.muts) && (in.cycles < digestCycles || time.Now().Before(deadline)) {
		m := in.muts[in.cycles]
		p.ops++
		sp := rec.start("write."+m.kind, -1, in.cycles)
		start := time.Now()
		ack, err := in.mutate(m)
		rec.end(sp)
		if err != nil {
			failed(err)
		} else {
			record(&p.writes, start)
			in.epochs = ack.Epochs
		}
		if in.cycles < digestCycles {
			in.digest.u64(uint64(ack.Len))
		}
		for j, pred := range readPredicates {
			op := selectOp{predicate: pred, query: in.queries[in.reads%len(in.queries)].Text}
			in.reads++
			body := selectBody(op)
			p.ops++
			sp := rec.start("select", -1, in.cycles)
			start := time.Now()
			resp, _, err := in.sv.selectOnce(body)
			rec.end(sp)
			if err != nil {
				failed(err)
				continue
			}
			if j < 2 {
				record(&p.first, start)
			} else {
				record(&p.steady, start)
			}
			if in.cycles < digestCycles {
				in.digest.matches(op.predicate, op.query, wireMatches(resp.Matches))
			}
		}
		in.cycles++
		if in.cycles == cfg.sizes.snapshotAt {
			start := time.Now()
			if err := in.checkpoint(); err != nil {
				failed(err)
			}
			outside += time.Since(start)
		}
	}
	p.wall = time.Since(t0) - outside
	return p
}

// checkpoint reads the WAL's size at this fixed mutation count, then
// POSTs /v1/snapshot.
func (in *writeInst) checkpoint() error {
	st, err := in.sv.stats()
	if err != nil {
		return err
	}
	if st.Store != nil {
		in.snapshot.entries = st.Store.WALEntries
	}
	in.snapshot.walBytes = treeSize(in.dir, func(name string) bool { return filepath.Ext(name) == ".log" })
	var resp server.SnapshotResponse
	start := time.Now()
	if err := in.sv.postJSON("/v1/snapshot", server.SnapshotRequest{}, &resp); err != nil {
		return err
	}
	in.snapshot.took = time.Since(start)
	in.snapshot.segBytes = resp.Store.SnapshotBytes
	in.snapshot.done = true
	return nil
}

// treeSize sums the sizes of the regular files under root that keep
// returns true for.
func treeSize(root string, keep func(name string) bool) int64 {
	var total int64
	filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() && keep(d.Name()) {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

// copyTree copies a directory tree file by file — the crash image: what a
// machine that lost power right now would find on disk.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

func runWrite(cfg config) (*result, error) {
	r := newResult("write-durable", cfg)
	in, st, err := repeatSetup(cfg.setups(true), func() (*writeInst, setupTimes, error) { return setupWrite(cfg) }, (*writeInst).close)
	if err != nil {
		return nil, err
	}
	defer in.close()
	r.set("setup_s", st.total)
	r.set("preprocess_s", st.preprocess)
	r.set("heap_mb", heapMiB())

	fsyncs0 := store.WALFsyncUS.Snapshot().Count
	ph := in.timedCycles(cfg, cfg.timedDuration(), nil)
	in.report(r, ph)

	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
		traced := in.timedCycles(cfg, cfg.timedDuration(), rec)
		r.Attempted += traced.ops
		if traced.errs > 0 {
			r.fail(traced.errs, "%d operations failed in the traced phase, first: %v", traced.errs, traced.firstErr)
		}
		if u := medianNS(ph.writes.lat); u > 0 {
			r.set("obs.trace_overhead_ratio", medianNS(traced.writes.lat)/u)
		}
		if err := in.ladder(cfg, r, rec); err != nil {
			return nil, err
		}
	}
	// WAL fsyncs while the loop ran: none under the default flush policy.
	r.set("store.fsyncs", float64(store.WALFsyncUS.Snapshot().Count-fsyncs0))
	if err := in.finishAndCheck(cfg, r); err != nil {
		return nil, err
	}
	if err := rec.write(cfg.tracePath(r.Workload)); err != nil {
		return nil, err
	}
	r.finish()
	return r, nil
}

// report turns the untraced phase into the write and select metrics. Both
// throughputs are per wall second of the closed loop: a client that waits
// 60 ms for its write completes fewer reads per second, however fast each
// read is.
func (in *writeInst) report(r *result, p writePhase) {
	r.Attempted += p.ops
	if p.errs > 0 {
		r.fail(p.errs, "%d operations failed in the timed phase, first: %v", p.errs, p.firstErr)
	}
	wall := p.wall.Seconds()
	sorted := p.reads()
	r.setN("select_qps", float64(len(sorted))/wall, len(sorted))
	r.setN("select_p50_us", float64(percentile(sorted, 0.50))/1e3, len(sorted))
	r.setPercentile("select_p95_us", 0.95, windowStat{value: float64(percentile(sorted, 0.95)) / 1e3, n: len(sorted)}, len(sorted))
	writes := sortedCopy(p.writes.lat)
	r.setN("write_ops_s", float64(len(writes))/wall, len(writes))
	r.setN("write_p50_us", float64(percentile(writes, 0.50))/1e3, len(writes))
	r.setPercentile("write_p95_us", 0.95, windowStat{value: float64(percentile(writes, 0.95)) / 1e3, n: len(writes)}, len(writes))
	r.setN("approxsel.view_rebuild_us", (medianNS(p.first.lat)-medianNS(p.steady.lat))/1e3, len(p.first.lat))
}

// finishAndCheck ends the run the way a deployment ends: the data
// directory is copied while the server is still open (the crash image),
// the server drains, and the corpus is reopened from disk (timed). The
// served state, the reopened corpus and the crash image must all equal a
// corpus freshly built from the acknowledged record set.
func (in *writeInst) finishAndCheck(cfg config, r *result) error {
	acked := in.muts[:in.cycles]
	want := applyMutations(in.base, acked)
	textBytes := 0
	for _, rec := range want {
		textBytes += len(rec.Text)
	}
	dataDir := filepath.Join(in.dir, "data")
	r.set("disk_amp", float64(treeSize(dataDir, func(string) bool { return true }))/float64(textBytes))
	if in.snapshot.done {
		r.set("store.checkpoint_s", in.snapshot.took.Seconds())
		r.set("store.segment_bytes", float64(in.snapshot.segBytes))
		r.set("store.wal_entries", float64(in.snapshot.entries))
		if in.snapshot.entries > 0 {
			r.set("store.wal_bytes_per_mutation", float64(in.snapshot.walBytes)/float64(in.snapshot.entries))
		}
	}

	rebuilt, err := approxsel.OpenShardedCorpus(want, serveShards)
	if err != nil {
		return err
	}
	probe := make([]selectOp, cfg.sizes.probeQueries)
	for i, q := range pickQueries(want, len(probe), cfg.seed+6) {
		probe[i] = selectOp{predicate: readPredicates[i%2], query: q.Text}
	}
	reference, err := probeCorpus(rebuilt, probe)
	if err != nil {
		return err
	}
	for i, op := range probe {
		r.Attempted++
		resp, _, err := in.sv.selectOnce(selectBody(op))
		if err != nil {
			r.fail(1, "probe select: %v", err)
		} else if !sameMatches(reference[i], wireMatches(resp.Matches)) {
			r.fail(1, "mutated and rebuilt corpora differ for %s %q", op.predicate, op.query)
		}
	}
	r.Digest = in.digest.sum()
	corpusDir := filepath.Join(dataDir, "main")
	crashDir := filepath.Join(in.dir, "crash-image")
	if err := copyTree(corpusDir, crashDir); err != nil {
		return err
	}
	if err := in.sv.close(); err != nil {
		return err
	}
	in.sv = nil

	t0 := time.Now()
	reopened, err := approxsel.OpenShardedCorpus(nil, serveShards, approxsel.WithDataDir(corpusDir))
	if err != nil {
		return fmt.Errorf("bench: reopen: %w", err)
	}
	r.set("reopen_s", time.Since(t0).Seconds())
	crashed, err := approxsel.OpenShardedCorpus(nil, serveShards, approxsel.WithDataDir(crashDir))
	if err != nil {
		return fmt.Errorf("bench: open crash image: %w", err)
	}
	for label, sc := range map[string]*approxsel.ShardedCorpus{"reopened corpus": reopened, "crash image": crashed} {
		r.Attempted++
		if msg := sameState(sc, want, in.epochs); msg != "" {
			r.fail(1, "%s: %s", label, msg)
			continue
		}
		got, err := probeCorpus(sc, probe)
		if err != nil {
			return err
		}
		for i := range probe {
			r.Attempted++
			if !sameMatches(reference[i], got[i]) {
				r.fail(1, "%s and rebuilt corpus differ for %s %q", label, probe[i].predicate, probe[i].query)
			}
		}
	}
	if err := crashed.CloseStore(); err != nil {
		return err
	}

	if cfg.trace {
		// What the reopen is made of: a checkpoint folds the WAL tail into
		// the segment, and a second open then pays the segment alone.
		if err := reopened.Checkpoint(); err != nil {
			return err
		}
		if err := reopened.CloseStore(); err != nil {
			return err
		}
		t0 = time.Now()
		again, err := approxsel.OpenShardedCorpus(nil, serveShards, approxsel.WithDataDir(corpusDir))
		if err != nil {
			return err
		}
		load := time.Since(t0).Seconds()
		r.set("store.load_s", load)
		r.set("store.replay_s", r.value("reopen_s")-load)
		return again.CloseStore()
	}
	return reopened.CloseStore()
}

// probeCorpus answers the probe through the library.
func probeCorpus(sc *approxsel.ShardedCorpus, probe []selectOp) ([][]core.Match, error) {
	views := map[string]approxsel.Predicate{}
	out := make([][]core.Match, len(probe))
	for i, op := range probe {
		p, ok := views[op.predicate]
		if !ok {
			var err error
			if p, err = sc.Predicate(op.predicate); err != nil {
				return nil, err
			}
			views[op.predicate] = p
		}
		ms, err := approxsel.SelectCtx(context.Background(), p, op.query, approxsel.Limit(selectLimit))
		if err != nil {
			return nil, err
		}
		out[i] = ms
	}
	return out, nil
}

// sameState checks that a corpus holds exactly the acknowledged records at
// the acknowledged epoch vector; it returns what differs, or "".
func sameState(sc *approxsel.ShardedCorpus, want []approxsel.Record, epochs []uint64) string {
	if got := sc.Epochs(); !reflect.DeepEqual(got, epochs) {
		return fmt.Sprintf("epoch vector %v, acknowledged %v", got, epochs)
	}
	have := make(map[int]string, len(want))
	for _, rec := range sc.Records() {
		have[rec.TID] = rec.Text
	}
	if len(have) != len(want) {
		return fmt.Sprintf("%d records, acknowledged %d", len(have), len(want))
	}
	for _, rec := range want {
		if text, ok := have[rec.TID]; !ok || text != rec.Text {
			return fmt.Sprintf("acknowledged TID %d missing or changed", rec.TID)
		}
	}
	return ""
}
