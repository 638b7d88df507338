package watch_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/dirty"
	"repro/internal/native"
	"repro/internal/watch"
)

// pair is an unordered record pair of a self-join, smaller TID first.
type pair [2]int

func newPair(a, b int) pair {
	if a > b {
		a, b = b, a
	}
	return pair{a, b}
}

// selfJoin is the batch truth: a fresh Jaccard predicate over recs, every
// record probed at theta, self pairs dropped, scores kept as bits.
func selfJoin(t *testing.T, recs []core.Record, theta float64, cfg core.Config) map[pair]uint64 {
	t.Helper()
	out := make(map[pair]uint64)
	if len(recs) == 0 {
		return out
	}
	p, err := native.Build("Jaccard", recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.SelectOptions{Threshold: theta, HasThreshold: true}
	for _, r := range recs {
		ms, err := core.SelectWithOptions(context.Background(), p, r.Text, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			if m.TID != r.TID {
				out[newPair(r.TID, m.TID)] = math.Float64bits(m.Score)
			}
		}
	}
	return out
}

// TestHubFoldEqualsBatchJoin wires a hub to a core.Corpus the way the
// facade does and streams seeded inserts, upserts and deletes that copy
// existing titles. After every mutation, the registration-time join with
// the delivered events folded in must equal a fresh batch self-join: the
// same pairs with the same score bits. A pair asserted while already
// present, or retracted while absent or with another score, fails.
func TestHubFoldEqualsBatchJoin(t *testing.T) {
	const theta = 0.6
	cfg := core.DefaultConfig()
	ds, err := dirty.Generate(datasets.DBLPTitles(30, 1), nil, dirty.Params{
		Size: 300, NumClean: 30, Dist: dirty.Uniform,
		ErroneousPct: 0.7, ErrorExtent: 0.2, TokenSwapPct: 0.2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewCorpus(ds.Records, cfg, core.AllLayers)
	if err != nil {
		t.Fatal(err)
	}
	hub := watch.NewHub(cfg, 1, ds.Records, []uint64{c.Epoch()}, nil)
	// publish hands the hub one applied mutation, as the facade does after
	// every batch; a corpus without a sequence source stamps Seq = Epoch.
	publish := func(kind core.MutationKind, add []core.Record, del []int) {
		hub.OnBatch(watch.Batch{Seq: c.Epoch(), Subs: []watch.SubMutation{
			{Shard: 0, Kind: kind, Add: add, Del: del, Epoch: c.Epoch()},
		}})
	}

	// The probe re-attaches when the corpus moves, as the facade's
	// epoch-refreshing view does. The hub serializes probe calls.
	var (
		pred      core.Predicate
		predEpoch uint64
	)
	w, err := hub.Register(watch.Spec{Predicate: "Jaccard", Theta: theta},
		func(query string, theta float64) ([]core.Match, error) {
			if e := c.Epoch(); pred == nil || predEpoch != e {
				p, err := native.Attach("Jaccard", c, cfg)
				if err != nil {
					return nil, err
				}
				pred, predEpoch = p, e
			}
			return core.SelectWithOptions(context.Background(), pred, query,
				core.SelectOptions{Threshold: theta, HasThreshold: true})
		})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	fold := selfJoin(t, ds.Records, theta, cfg)
	if len(fold) == 0 {
		t.Fatal("the registration-time join is empty; the data exercises nothing")
	}
	rng := rand.New(rand.NewSource(1))
	nextTID := 1_000_000
	var asserted, retracted int
	for step := 0; step < 60; step++ {
		live := c.Records()
		text := func() string { return live[rng.Intn(len(live))].Text }
		var err error
		switch step % 3 {
		case 0: // one or two new copies in one batch
			recs := []core.Record{{TID: nextTID, Text: text()}}
			if rng.Intn(2) == 0 {
				recs = append(recs, core.Record{TID: nextTID + 1, Text: recs[0].Text})
			}
			nextTID += len(recs)
			if err = c.Insert(recs...); err == nil {
				publish(core.MutationInsert, recs, nil)
			}
		case 1: // an existing record takes another record's title
			rec := core.Record{TID: live[rng.Intn(len(live))].TID, Text: text()}
			if err = c.Upsert(rec); err == nil {
				publish(core.MutationUpsert, []core.Record{rec}, nil)
			}
		default:
			tid := live[rng.Intn(len(live))].TID
			if err = c.Delete(tid); err == nil {
				publish(core.MutationDelete, nil, []int{tid})
			}
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}

		epoch := c.Epoch()
	drain:
		for {
			select {
			case e := <-w.Events():
				if e.Epoch != epoch || e.Shard != 0 {
					t.Fatalf("step %d: event %+v not tagged with epoch %d", step, e, epoch)
				}
				k, bits := newPair(e.ProbeTID, e.BaseTID), math.Float64bits(e.Score)
				switch e.Kind {
				case watch.KindMatch:
					if _, dup := fold[k]; dup {
						t.Fatalf("step %d: pair %v asserted twice", step, k)
					}
					fold[k] = bits
					asserted++
				case watch.KindUnmatch:
					if s, ok := fold[k]; !ok || s != bits {
						t.Fatalf("step %d: pair %v retracted with score %v, held %v (present %v)",
							step, k, e.Score, math.Float64frombits(s), ok)
					}
					delete(fold, k)
					retracted++
				}
			default:
				break drain
			}
		}

		want := selfJoin(t, c.Records(), theta, cfg)
		for k, s := range want {
			if got, ok := fold[k]; !ok || got != s {
				t.Fatalf("step %d (epoch %d): pair %v: fold %v (present %v), batch join %v",
					step, epoch, k, math.Float64frombits(got), ok, math.Float64frombits(s))
			}
		}
		for k := range fold {
			if _, ok := want[k]; !ok {
				t.Fatalf("step %d (epoch %d): fold holds pair %v the batch join does not", step, epoch, k)
			}
		}
	}
	if asserted == 0 || retracted == 0 {
		t.Fatalf("stream asserted %d and retracted %d pairs; both must happen", asserted, retracted)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
}
