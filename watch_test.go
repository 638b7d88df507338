package approxsel

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/dirty"
	"repro/internal/watch"
)

// The watch differential suite: fold a watch's incremental emissions
// across a randomized Insert/Delete/Upsert script and require, at every
// checkpoint epoch, exact equality — pair set and bit-identical scores —
// with a from-scratch batch join over the corpus's current records.

type pairKey struct{ a, b int }

// foldEvents applies events to the incremental join result, enforcing the
// stream's own invariants: a pair is asserted at most once while present,
// and retracted with exactly the score it was asserted with.
func foldEvents(t *testing.T, fold map[pairKey]float64, evs []WatchEvent, self bool) {
	t.Helper()
	for _, e := range evs {
		k := pairKey{e.ProbeTID, e.BaseTID}
		if self && k.a > k.b {
			k.a, k.b = k.b, k.a
		}
		switch e.Kind {
		case watch.KindMatch:
			if s, dup := fold[k]; dup {
				t.Fatalf("pair %v asserted twice (had score %v, new %v)", k, s, e.Score)
			}
			fold[k] = e.Score
		case watch.KindUnmatch:
			s, ok := fold[k]
			if !ok {
				t.Fatalf("pair %v retracted but never asserted", k)
			}
			if s != e.Score {
				t.Fatalf("pair %v retract score %v != asserted score %v", k, e.Score, s)
			}
			delete(fold, k)
		default:
			t.Fatalf("unknown event kind %q", e.Kind)
		}
	}
}

// drainWatch reads every event currently buffered. Delivery is synchronous
// with the mutation call, so after a mutation returns its events are here.
func drainWatch(w *Watch) []WatchEvent {
	var out []WatchEvent
	for {
		select {
		case e, ok := <-w.Events():
			if !ok {
				return out
			}
			out = append(out, e)
		default:
			return out
		}
	}
}

// oracleSelf is the from-scratch truth: a fresh predicate over recs,
// self-joined at theta, keyed by unordered pair.
func oracleSelf(t *testing.T, recs []Record, predName string, theta float64, cfg Config) map[pairKey]float64 {
	t.Helper()
	out := make(map[pairKey]float64)
	if len(recs) == 0 {
		return out
	}
	if predName == "EditDistance" {
		cfg.EditTheta = theta
	}
	p, err := New(predName, recs, cfg)
	if err != nil {
		t.Fatalf("oracle predicate: %v", err)
	}
	pairs, err := SelfJoin(p, recs, theta)
	if err != nil {
		t.Fatalf("oracle self join: %v", err)
	}
	for _, pr := range pairs {
		out[pairKey{pr.ProbeTID, pr.BaseTID}] = pr.Score
	}
	return out
}

// oracleJoin is the from-scratch truth for a join watch: probes joined
// against a fresh predicate over recs, keyed (probe, base).
func oracleJoin(t *testing.T, recs, probes []Record, predName string, theta float64, cfg Config) map[pairKey]float64 {
	t.Helper()
	out := make(map[pairKey]float64)
	if len(recs) == 0 {
		return out
	}
	if predName == "EditDistance" {
		cfg.EditTheta = theta
	}
	p, err := New(predName, recs, cfg)
	if err != nil {
		t.Fatalf("oracle predicate: %v", err)
	}
	pairs, err := ApproximateJoin(p, probes, theta)
	if err != nil {
		t.Fatalf("oracle join: %v", err)
	}
	for _, pr := range pairs {
		out[pairKey{pr.ProbeTID, pr.BaseTID}] = pr.Score
	}
	return out
}

func compareFold(t *testing.T, label string, fold, want map[pairKey]float64) {
	t.Helper()
	for k, s := range want {
		got, ok := fold[k]
		if !ok {
			t.Fatalf("%s: batch join has pair %v (score %v), incremental fold does not", label, k, s)
		}
		if got != s {
			t.Fatalf("%s: pair %v incremental score %v != batch score %v", label, k, got, s)
		}
	}
	for k := range fold {
		if _, ok := want[k]; !ok {
			t.Fatalf("%s: incremental fold has pair %v, batch join does not", label, k)
		}
	}
}

func dirtyWatchData(t *testing.T) []Record {
	t.Helper()
	ds, err := GenerateDirty(CompanyNames(80, 7), Abbreviations(), DirtyParams{
		Size: 220, NumClean: 40, Dist: Uniform,
		ErroneousPct: 0.9, ErrorExtent: 0.08,
		TokenSwapPct: 0.20, AbbrPct: 0.40, Seed: 11,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return ds.Records
}

func testWatchDifferential(t *testing.T, open func([]Record) (*Corpus, error), predName string, theta float64) {
	recs := dirtyWatchData(t)
	initial, pool := recs[:80], recs[80:200]
	probes := make([]Record, 0, 12)
	for i, r := range recs[200:212] {
		probes = append(probes, Record{TID: 100000 + i, Text: r.Text})
	}
	c, err := open(initial)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	cfg := c.Config()

	// Register at the current epoch: the folds start from the batch joins
	// at registration time.
	// The buffer must hold every event between checkpoint drains — the
	// permissive predicates emit thousands across a few dirty batches, and
	// an overflow (correctly) disconnects the watch.
	self, err := c.RegisterWatch(predName, theta, WithResume(c.Epochs()), WithWatchBuffer(1<<16))
	if err != nil {
		t.Fatalf("register self watch: %v", err)
	}
	join, err := c.RegisterWatch(predName, theta, WithProbes(probes...), WithResume(c.Epochs()), WithWatchBuffer(1<<16))
	if err != nil {
		t.Fatalf("register join watch: %v", err)
	}
	selfFold := oracleSelf(t, initial, predName, theta, cfg)
	joinFold := oracleJoin(t, initial, probes, predName, theta, cfg)

	rng := rand.New(rand.NewSource(99))
	liveTIDs := make([]int, 0, len(initial))
	for _, r := range initial {
		liveTIDs = append(liveTIDs, r.TID)
	}
	poolIdx := 0
	takePool := func(k int) []Record {
		var out []Record
		for i := 0; i < k && poolIdx < len(pool); i++ {
			out = append(out, pool[poolIdx])
			poolIdx++
		}
		return out
	}
	// pickLive removes k distinct TIDs from the live set and returns them.
	pickLive := func(k int) []int {
		var tids []int
		for i := 0; i < k; i++ {
			j := rng.Intn(len(liveTIDs))
			tids = append(tids, liveTIDs[j])
			liveTIDs = append(liveTIDs[:j], liveTIDs[j+1:]...)
		}
		return tids
	}
	// Every vector the corpus passes through, and every event of the
	// continuously connected watches: a watch resumed at any of them must
	// replay exactly the events past it.
	vectors := [][]uint64{c.Epochs()}
	var selfAll, joinAll []WatchEvent
	checkpoint := func(step int) {
		label := fmt.Sprintf("step %d", step)
		if err := self.Err(); err != nil {
			t.Fatalf("%s: self watch died: %v", label, err)
		}
		selfEvs, joinEvs := drainWatch(self), drainWatch(join)
		selfAll, joinAll = append(selfAll, selfEvs...), append(joinAll, joinEvs...)
		foldEvents(t, selfFold, selfEvs, true)
		foldEvents(t, joinFold, joinEvs, false)
		cur := c.Records()
		compareFold(t, label+" self", selfFold, oracleSelf(t, cur, predName, theta, cfg))
		compareFold(t, label+" join", joinFold, oracleJoin(t, cur, probes, predName, theta, cfg))
	}

	// Batches of one to four records. Inserts may repeat a live record's
	// text and upserts may give two TIDs one text; deletes and upserts take
	// several existing TIDs at once, so a batch's pre-images can match
	// each other.
	for step := 0; step < 36; step++ {
		k := 1 + rng.Intn(4)
		switch op := rng.Intn(10); {
		case op < 5: // insert a small batch of fresh dirty records
			batch := takePool(k)
			if len(batch) == 0 {
				continue
			}
			if cur := c.Records(); rng.Intn(2) == 0 {
				batch[0].Text = cur[rng.Intn(len(cur))].Text
			}
			if err := c.Insert(batch...); err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
			for _, r := range batch {
				liveTIDs = append(liveTIDs, r.TID)
			}
		case op < 7: // delete existing records
			if len(liveTIDs) < k+4 {
				continue
			}
			if err := c.Delete(pickLive(k)...); err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
		default: // upsert: replace existing records with other dirty texts
			if len(liveTIDs) < k+4 {
				continue
			}
			tids := pickLive(k)
			liveTIDs = append(liveTIDs, tids...)
			var ups []Record
			for _, tid := range tids {
				ups = append(ups, Record{TID: tid, Text: recs[rng.Intn(200)].Text})
			}
			if rng.Intn(2) == 0 {
				ups[0].Text = ups[len(ups)-1].Text
			}
			if err := c.Upsert(ups...); err != nil {
				t.Fatalf("step %d upsert: %v", step, err)
			}
		}
		vectors = append(vectors, c.Epochs())
		if step%9 == 8 {
			checkpoint(step)
		}
	}
	checkpoint(36)
	self.Close()
	join.Close()
	if err := self.Err(); err != nil {
		t.Fatalf("self watch ended with error: %v", err)
	}

	for _, v := range vectors {
		for _, tc := range []struct {
			opts []WatchOption
			all  []WatchEvent
		}{{nil, selfAll}, {[]WatchOption{WithProbes(probes...)}, joinAll}} {
			w, err := c.RegisterWatch(predName, theta, append(tc.opts, WithResume(v))...)
			if err != nil {
				t.Fatalf("resume at %v: %v", v, err)
			}
			got := drainWatch(w)
			w.Close()
			var want []WatchEvent
			for _, e := range tc.all {
				if e.Epoch > v[e.Shard] {
					want = append(want, e)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("resumed at %v: replayed %d events, the continuous watch saw %d past it", v, len(got), len(want))
			}
		}
	}
}

func openPlainWatch(recs []Record) (*Corpus, error)   { return OpenCorpus(recs) }
func openShardedWatch(recs []Record) (*Corpus, error) { return OpenShardedCorpus(recs, 3) }

func TestWatchDifferential(t *testing.T) {
	cases := []struct {
		pred  string
		theta float64
	}{
		{"Jaccard", 0.45},
		{"IntersectSize", 3},
		{"EditDistance", 0.6},
	}
	for _, tc := range cases {
		tc := tc
		t.Run("plain/"+tc.pred, func(t *testing.T) {
			t.Parallel()
			testWatchDifferential(t, openPlainWatch, tc.pred, tc.theta)
		})
		t.Run("sharded/"+tc.pred, func(t *testing.T) {
			t.Parallel()
			testWatchDifferential(t, openShardedWatch, tc.pred, tc.theta)
		})
	}
}

// TestWatchResumeExactlyOnce: a watch resuming from an older epoch vector
// receives exactly the events a continuously-connected watch saw after
// that vector — nothing missing, nothing twice — and a watch resuming at
// the current vector receives nothing.
func TestWatchResumeExactlyOnce(t *testing.T) {
	for _, mode := range []string{"plain", "sharded"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			t.Parallel()
			recs := dirtyWatchData(t)
			var c *Corpus
			var err error
			if mode == "plain" {
				c, err = openPlainWatch(recs[:60])
			} else {
				c, err = openShardedWatch(recs[:60])
			}
			if err != nil {
				t.Fatal(err)
			}
			full, err := c.RegisterWatch("Jaccard", 0.45, WithResume(c.Epochs()), WithWatchBuffer(1<<15))
			if err != nil {
				t.Fatal(err)
			}
			mutate := func(lo, hi int) {
				for i := lo; i < hi; i += 2 {
					end := i + 2
					if end > hi {
						end = hi
					}
					if err := c.Insert(recs[i:end]...); err != nil {
						t.Fatalf("insert: %v", err)
					}
				}
			}
			mutate(60, 80)
			mid := c.Epochs()
			firstHalf := drainWatch(full)
			mutate(80, 110)
			secondHalf := drainWatch(full)

			resumed, err := c.RegisterWatch("Jaccard", 0.45, WithResume(mid))
			if err != nil {
				t.Fatalf("resume register: %v", err)
			}
			replay := drainWatch(resumed)
			if len(replay) != len(secondHalf) {
				t.Fatalf("resumed watch replayed %d events, continuous watch saw %d after the vector", len(replay), len(secondHalf))
			}
			for i := range replay {
				if replay[i] != secondHalf[i] {
					t.Fatalf("replay event %d = %+v, continuous saw %+v", i, replay[i], secondHalf[i])
				}
			}
			if len(firstHalf) == 0 {
				t.Fatalf("test vacuous: no events before the resume vector")
			}

			caughtUp, err := c.RegisterWatch("Jaccard", 0.45, WithResume(c.Epochs()))
			if err != nil {
				t.Fatal(err)
			}
			if evs := drainWatch(caughtUp); len(evs) != 0 {
				t.Fatalf("watch resumed at the current vector replayed %d events", len(evs))
			}
		})
	}
}

// TestWatchRegistrationGuards: the delta-exactness whitelist and resume
// bounds reject what they must.
func TestWatchRegistrationGuards(t *testing.T) {
	recs := dirtyWatchData(t)[:40]
	c, err := OpenCorpus(recs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterWatch("TFIDF", 0.5); err == nil {
		t.Fatal("stats-dependent predicate accepted")
	}
	if _, err := c.RegisterWatch("Jaccard", 0); err == nil {
		t.Fatal("zero threshold accepted")
	}
	if _, err := c.RegisterWatch("EditDistance", 0.3); err == nil {
		t.Fatal("EditDistance below 1-1/q accepted")
	}
	if _, err := c.RegisterWatch("Jaccard", 0.5, WithResume([]uint64{1, 2})); err == nil {
		t.Fatal("resume vector of wrong width accepted")
	}
	if _, err := c.RegisterWatch("Jaccard", 0.5, WithResume([]uint64{c.Epochs()[0] + 5})); err == nil {
		t.Fatal("future resume vector accepted")
	}
	prune := DefaultConfig()
	prune.PruneRate = 0.1
	pruned, err := OpenCorpus(recs, prune)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pruned.RegisterWatch("Jaccard", 0.5); err == nil {
		t.Fatal("pruned corpus accepted")
	}
}

// TestWatchConcurrentSelect: watch derivation racing selection traffic
// stays correct and race-clean (run under -race).
func TestWatchConcurrentSelect(t *testing.T) {
	recs := dirtyWatchData(t)
	c, err := openShardedWatch(recs[:80])
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.RegisterWatch("Jaccard", 0.45, WithResume(c.Epochs()), WithWatchBuffer(1<<15))
	if err != nil {
		t.Fatal(err)
	}
	pred, err := c.Predicate("Jaccard")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := pred.Select(recs[(g*31+i)%len(recs)].Text); err != nil {
					t.Errorf("select: %v", err)
					return
				}
			}
		}(g)
	}
	for i := 80; i < 160; i += 2 {
		if err := c.Insert(recs[i : i+2]...); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	fold := oracleSelf(t, recs[:80], "Jaccard", 0.45, c.Config())
	foldEvents(t, fold, drainWatch(w), true)
	compareFold(t, "final", fold, oracleSelf(t, c.Records(), "Jaccard", 0.45, c.Config()))
}

// TestWatchLagClosesWatch: a consumer that never drains a tiny buffer is
// disconnected with ErrWatchLagged instead of blocking mutations.
func TestWatchLagClosesWatch(t *testing.T) {
	recs := dirtyWatchData(t)
	c, err := openPlainWatch(recs[:80])
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.RegisterWatch("Jaccard", 0.3, WithWatchBuffer(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 80; i < 180; i++ {
		if err := c.Insert(recs[i]); err != nil {
			t.Fatalf("insert: %v", err)
		}
		if w.Err() != nil {
			break
		}
	}
	drainWatch(w)
	if _, open := <-w.Events(); open {
		t.Fatal("lagged watch channel still open after drain")
	}
	if w.Err() != ErrWatchLagged {
		t.Fatalf("lagged watch Err = %v, want ErrWatchLagged", w.Err())
	}
	st := c.WatchStats()
	if st.Active != 0 {
		t.Fatalf("lagged watch still counted active: %+v", st)
	}
}

// TestWatchEmptyProbesNeverMatch: WithProbes with no records is a join
// against an empty probe relation, so a duplicate insert emits nothing;
// only a watch without WithProbes is a self watch.
func TestWatchEmptyProbesNeverMatch(t *testing.T) {
	recs := dirtyWatchData(t)[:40]
	c, err := OpenCorpus(recs)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := c.RegisterWatch("Jaccard", 0.45, WithProbes())
	if err != nil {
		t.Fatal(err)
	}
	self, err := c.RegisterWatch("Jaccard", 0.45)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(Record{TID: 100000, Text: recs[0].Text}); err != nil {
		t.Fatal(err)
	}
	if evs := drainWatch(self); len(evs) == 0 {
		t.Fatal("test vacuous: the self watch saw no event for a duplicate insert")
	}
	if evs := drainWatch(empty); len(evs) != 0 {
		t.Fatalf("a watch with an empty probe set emitted %d events: %+v", len(evs), evs)
	}
}

// BenchmarkWatchDelete prices what a standing query adds to a delete. Each
// op deletes one record from a 2-shard corpus of n dirty DBLP titles
// without a watch (plain) and from a twin corpus with a Jaccard θ = 0.6
// self watch (watched), then re-inserts it into both, untimed. It reports
// the mean delete time of each and watched/plain, the ratio taken within
// one run:
//
//	go test -run '^$' -bench WatchDelete -benchtime 200x .
func BenchmarkWatchDelete(b *testing.B) {
	for _, n := range []int{5000, 20000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ds, err := dirty.DBLP(n, 1)
			if err != nil {
				b.Fatal(err)
			}
			plain, err := OpenShardedCorpus(ds.Records, 2)
			if err != nil {
				b.Fatal(err)
			}
			watched, err := OpenShardedCorpus(ds.Records, 2)
			if err != nil {
				b.Fatal(err)
			}
			w, err := watched.RegisterWatch("Jaccard", 0.6)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			var plainT, watchedT time.Duration
			ops := 0
			for b.Loop() {
				r := ds.Records[ops%n]
				ops++
				t0 := time.Now()
				if err := plain.Delete(r.TID); err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				if err := watched.Delete(r.TID); err != nil {
					b.Fatal(err)
				}
				plainT, watchedT = plainT+t1.Sub(t0), watchedT+time.Since(t1)
				if err := plain.Insert(r); err != nil {
					b.Fatal(err)
				}
				if err := watched.Insert(r); err != nil {
					b.Fatal(err)
				}
				drainWatch(w)
			}
			if err := w.Err(); err != nil {
				b.Fatal(err)
			}
			us := func(d time.Duration) float64 { return float64(d.Microseconds()) / float64(ops) }
			b.ReportMetric(us(plainT), "plain-us")
			b.ReportMetric(us(watchedT), "watched-us")
			b.ReportMetric(float64(watchedT)/float64(plainT), "watched/plain")
		})
	}
}
