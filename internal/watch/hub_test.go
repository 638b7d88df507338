package watch_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dirty"
	"repro/internal/native"
	"repro/internal/watch"
)

// pair keys one join result pair: (probe, base) for a join watch, the
// smaller TID first for a self watch.
type pair [2]int

func key(self bool, probe, base int) pair {
	if self && probe > base {
		probe, base = base, probe
	}
	return pair{probe, base}
}

// shardedCorpus wires a hub to core.Corpus shards the way the facade
// does: records route to a home shard by TID, every batch hands the hub
// the applied sub-batches with the pre-images of the records they delete
// or replace, and a self watch's live predicate fans out to every shard.
type shardedCorpus struct {
	t      *testing.T
	cfg    core.Config
	shards []*core.Corpus
	hub    *watch.Hub
	seq    uint64
}

func newShardedCorpus(t *testing.T, recs []core.Record, n int, cfg core.Config, pred string) *shardedCorpus {
	t.Helper()
	s := &shardedCorpus{t: t, cfg: cfg, shards: make([]*core.Corpus, n)}
	parts := make([][]core.Record, n)
	for _, r := range recs {
		parts[s.home(r.TID)] = append(parts[s.home(r.TID)], r)
	}
	layers, err := native.Layers(pred)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.shards {
		c, err := core.NewCorpus(parts[i], cfg, layers)
		if err != nil {
			t.Fatal(err)
		}
		s.shards[i] = c
	}
	s.hub = watch.NewHub(cfg, n, s.epochs(), nil)
	return s
}

func (s *shardedCorpus) home(tid int) int { return tid % len(s.shards) }

func (s *shardedCorpus) epochs() []uint64 {
	out := make([]uint64, len(s.shards))
	for i, c := range s.shards {
		out[i] = c.Epoch()
	}
	return out
}

func (s *shardedCorpus) records() []core.Record {
	var out []core.Record
	for _, c := range s.shards {
		out = append(out, c.Records()...)
	}
	return out
}

// mutate applies one logical batch shard by shard and publishes it to the
// hub, returning the sub-batches it applied.
func (s *shardedCorpus) mutate(kind core.MutationKind, add []core.Record, del []int) []watch.SubMutation {
	s.t.Helper()
	subs := make([]watch.SubMutation, len(s.shards))
	for i := range subs {
		subs[i] = watch.SubMutation{Shard: i, Kind: kind}
	}
	for _, tid := range del {
		sub := &subs[s.home(tid)]
		snap := s.shards[sub.Shard].Snapshot()
		i, ok := snap.Index(tid)
		if !ok {
			s.t.Fatalf("delete of unknown TID %d", tid)
		}
		sub.Del = append(sub.Del, tid)
		sub.Old = append(sub.Old, snap.Records[i])
	}
	for _, r := range add {
		sub := &subs[s.home(r.TID)]
		snap := s.shards[sub.Shard].Snapshot()
		if i, ok := snap.Index(r.TID); ok {
			sub.Old = append(sub.Old, snap.Records[i])
		}
		sub.Add = append(sub.Add, r)
	}
	s.seq++
	var applied []watch.SubMutation
	for _, sub := range subs {
		if len(sub.Add) == 0 && len(sub.Del) == 0 {
			continue
		}
		c := s.shards[sub.Shard]
		var err error
		switch kind {
		case core.MutationDelete:
			err = c.Delete(sub.Del...)
		case core.MutationUpsert:
			err = c.Upsert(sub.Add...)
		default:
			err = c.Insert(sub.Add...)
		}
		if err != nil {
			s.t.Fatal(err)
		}
		sub.Epoch = c.Epoch()
		applied = append(applied, sub)
	}
	s.hub.OnBatch(watch.Batch{Seq: s.seq, Subs: applied})
	return applied
}

// register installs a watch with the hub, as the facade's RegisterWatch
// does; probes == nil makes it a self watch.
func (s *shardedCorpus) register(pred string, theta float64, probes []core.Record, resume []uint64) *watch.Watch {
	s.t.Helper()
	spec := watch.Spec{Predicate: pred, Theta: theta, Probes: probes, Resume: resume, Buffer: 1 << 14}
	var live core.Predicate
	if probes == nil {
		live = fanout{s: s, name: pred, cfg: watch.AttachConfig(s.cfg, spec)}
	}
	w, err := s.hub.Register(spec, live, s.records)
	if err != nil {
		s.t.Fatal(err)
	}
	return w
}

// fanout selects against every shard as it stands and concatenates the
// matches; the hub orders the events itself.
type fanout struct {
	s    *shardedCorpus
	name string
	cfg  core.Config
}

func (f fanout) Name() string { return f.name }

func (f fanout) Select(query string) ([]core.Match, error) {
	return f.SelectCtx(context.Background(), query, core.SelectOptions{})
}

func (f fanout) SelectCtx(ctx context.Context, query string, opts core.SelectOptions) ([]core.Match, error) {
	var out []core.Match
	for _, c := range f.s.shards {
		p, err := native.Attach(f.name, c, f.cfg)
		if err != nil {
			return nil, err
		}
		ms, err := core.SelectWithOptions(ctx, p, query, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// batchJoin is the truth at one epoch: a fresh predicate over recs, probed
// at theta with every probe record (every record for a self join, self
// pairs dropped), scores kept as bits.
func batchJoin(t *testing.T, pred string, theta float64, cfg core.Config, recs, probes []core.Record) map[pair]uint64 {
	t.Helper()
	out := make(map[pair]uint64)
	self := probes == nil
	if self {
		probes = recs
	}
	p, err := native.Build(pred, recs, watch.AttachConfig(cfg, watch.Spec{Predicate: pred, Theta: theta}))
	if err != nil {
		t.Fatal(err)
	}
	opts := core.SelectOptions{Threshold: theta, HasThreshold: true}
	for _, r := range probes {
		ms, err := core.SelectWithOptions(context.Background(), p, r.Text, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			if !self || m.TID != r.TID {
				out[key(self, r.TID, m.TID)] = math.Float64bits(m.Score)
			}
		}
	}
	return out
}

// fold applies drained events to a join result. A pair asserted while
// already present, or retracted while absent or with another score, fails.
func fold(t *testing.T, label string, res map[pair]uint64, evs []watch.Event, self bool) {
	t.Helper()
	for _, e := range evs {
		k, bits := key(self, e.ProbeTID, e.BaseTID), math.Float64bits(e.Score)
		switch e.Kind {
		case watch.KindMatch:
			if _, dup := res[k]; dup {
				t.Fatalf("%s: pair %v asserted twice", label, k)
			}
			res[k] = bits
		case watch.KindUnmatch:
			if s, ok := res[k]; !ok || s != bits {
				t.Fatalf("%s: pair %v retracted with score %v, held %v (present %v)",
					label, k, e.Score, math.Float64frombits(s), ok)
			}
			delete(res, k)
		}
	}
}

func drain(w *watch.Watch) []watch.Event {
	var out []watch.Event
	for {
		select {
		case e := <-w.Events():
			out = append(out, e)
		default:
			return out
		}
	}
}

// TestHubFoldEqualsBatchJoin is the generated watch differential. Over 1,
// 2 and 4 shards and each watchable predicate, it streams seeded batches
// of one to four inserts, upserts or deletes — repeated texts, and several
// existing TIDs replaced or deleted in one batch, whose pre-images still
// match each other — past a self watch and a join watch. After every
// batch, the registration-time join with the delivered events folded in
// must equal a fresh batch join: the same pairs with the same score bits.
// At the end, a watch resumed from every vector the corpus passed through
// — every batch boundary and every shard prefix inside a batch — must
// receive exactly the continuously connected watch's events past it.
func TestHubFoldEqualsBatchJoin(t *testing.T) {
	ds, err := dirty.DBLP(200, 1)
	if err != nil {
		t.Fatal(err)
	}
	preds := []struct {
		name  string
		theta float64
	}{{"Jaccard", 0.6}, {"IntersectSize", 3}, {"EditDistance", 0.8}}
	for _, shards := range []int{1, 2, 4} {
		for _, pr := range preds {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, pr.name), func(t *testing.T) {
				t.Parallel()
				testHubDifferential(t, ds.Records, shards, pr.name, pr.theta)
			})
		}
	}
}

func testHubDifferential(t *testing.T, pool []core.Record, shards int, pred string, theta float64) {
	cfg := core.DefaultConfig()
	s := newShardedCorpus(t, pool[:100], shards, cfg, pred)
	var probes []core.Record
	for i, r := range pool[100:112] {
		probes = append(probes, core.Record{TID: 500_000 + i, Text: r.Text})
	}
	self := s.register(pred, theta, nil, nil)
	join := s.register(pred, theta, probes, nil)
	selfRes := batchJoin(t, pred, theta, cfg, s.records(), nil)
	joinRes := batchJoin(t, pred, theta, cfg, s.records(), probes)

	rng := rand.New(rand.NewSource(int64(7*shards + len(pred))))
	nextTID := 1_000_000
	vectors := [][]uint64{s.epochs()}
	var selfAll, joinAll []watch.Event
	var asserted, retracted, multiOld int
	for step := 0; step < 24; step++ {
		live := s.records()
		// Half the texts repeat a live record's text, so exact duplicates
		// and their retractions are frequent.
		text := func() string {
			if rng.Intn(2) == 0 {
				return live[rng.Intn(len(live))].Text
			}
			return pool[rng.Intn(len(pool))].Text
		}
		liveTIDs := func(k int) []int {
			var tids []int
			for _, i := range rng.Perm(len(live))[:k] {
				tids = append(tids, live[i].TID)
			}
			return tids
		}
		k := 1 + rng.Intn(4)
		before := s.epochs()
		var subs []watch.SubMutation
		switch rng.Intn(3) {
		case 0: // inserts, some repeating an earlier text of the batch
			var recs []core.Record
			for i := 0; i < k; i++ {
				r := core.Record{TID: nextTID, Text: text()}
				if i > 0 && rng.Intn(2) == 0 {
					r.Text = recs[i-1].Text
				}
				recs = append(recs, r)
				nextTID++
			}
			subs = s.mutate(core.MutationInsert, recs, nil)
		case 1: // upserts of existing TIDs, rotating their texts, plus maybe a new TID
			tids := liveTIDs(k)
			var recs []core.Record
			for i, tid := range tids {
				r := core.Record{TID: tid, Text: text()}
				if rng.Intn(2) == 0 {
					r.Text = live[slices.IndexFunc(live, func(x core.Record) bool { return x.TID == tids[(i+1)%len(tids)] })].Text
				}
				recs = append(recs, r)
			}
			if rng.Intn(3) == 0 {
				recs = append(recs, core.Record{TID: nextTID, Text: text()})
				nextTID++
			}
			multiOld += min(len(tids)-1, 1)
			subs = s.mutate(core.MutationUpsert, recs, nil)
		default:
			multiOld += min(k-1, 1)
			subs = s.mutate(core.MutationDelete, nil, liveTIDs(k))
		}
		// Every shard prefix of the batch is a vector a truncated poll
		// page can leave a client at.
		v := slices.Clone(before)
		for _, sub := range subs {
			v[sub.Shard] = sub.Epoch
			vectors = append(vectors, slices.Clone(v))
		}

		label := fmt.Sprintf("step %d (epochs %v)", step, s.epochs())
		selfEvs, joinEvs := drain(self), drain(join)
		for _, e := range append(selfEvs, joinEvs...) {
			if i := slices.IndexFunc(subs, func(sub watch.SubMutation) bool { return sub.Shard == e.Shard }); i < 0 || subs[i].Epoch != e.Epoch || e.Seq != s.seq {
				t.Fatalf("%s: event %+v not tagged with a sub-batch of this batch", label, e)
			}
			if e.Kind == watch.KindMatch {
				asserted++
			} else {
				retracted++
			}
		}
		fold(t, label+" self", selfRes, selfEvs, true)
		fold(t, label+" join", joinRes, joinEvs, false)
		selfAll, joinAll = append(selfAll, selfEvs...), append(joinAll, joinEvs...)
		compare(t, label+" self", selfRes, batchJoin(t, pred, theta, cfg, s.records(), nil))
		compare(t, label+" join", joinRes, batchJoin(t, pred, theta, cfg, s.records(), probes))
	}
	if asserted == 0 || retracted == 0 || multiOld == 0 {
		t.Fatalf("stream asserted %d and retracted %d pairs over %d multi-record retractions; all must happen", asserted, retracted, multiOld)
	}
	for _, w := range []*watch.Watch{self, join} {
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
	}

	for _, v := range vectors {
		for _, c := range []struct {
			probes []core.Record
			all    []watch.Event
		}{{nil, selfAll}, {probes, joinAll}} {
			w := s.register(pred, theta, c.probes, v)
			got := drain(w)
			w.Close()
			var want []watch.Event
			for _, e := range c.all {
				if e.Epoch > v[e.Shard] {
					want = append(want, e)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("resumed at %v (self %v): replayed %d events, the continuous watch saw %d past it",
					v, c.probes == nil, len(got), len(want))
			}
		}
	}
}

func compare(t *testing.T, label string, got, want map[pair]uint64) {
	t.Helper()
	for k, s := range want {
		if g, ok := got[k]; !ok || g != s {
			t.Fatalf("%s: pair %v: fold %v (present %v), batch join %v",
				label, k, math.Float64frombits(g), ok, math.Float64frombits(s))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Fatalf("%s: fold holds pair %v the batch join does not", label, k)
		}
	}
}
