package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	approxsel "repro"
	"repro/internal/core"
	"repro/internal/store"
)

// ladder is the write ladder: the next sizes.ladderWrites mutations of the
// list, applied at successively deeper entry points, each rung on its own
// copy of the state the timed phases left:
//
//	W0 POST /v1/<kind> over loopback (the live server)
//	W1 ShardedCorpus with a data directory
//	W2 ShardedCorpus in memory
//	W3 core.Corpus holding one shard's records
//	W4 core.NewCorpus over the delta record alone — the tokenizing a
//	   mutation cannot avoid
//
// and W2 again with one Jaccard θ=0.6 watch registered.
func (in *writeInst) ladder(cfg config, r *result, rec *recorder) error {
	state := applyMutations(in.base, in.muts[:in.cycles])
	muts := in.muts[in.cycles:min(in.cycles+cfg.sizes.ladderWrites, len(in.muts))]
	if len(muts) == 0 {
		return nil
	}

	w1dir := filepath.Join(in.dir, "ladder-w1")
	w1, err := approxsel.OpenShardedCorpus(state, serveShards, approxsel.WithDataDir(w1dir))
	if err != nil {
		return err
	}
	defer os.RemoveAll(w1dir)
	defer w1.CloseStore()
	// One shard's corpus per shard, decoded from the segments W1 just
	// wrote: the exact records a shard holds, without knowing the hash.
	shards := make([]*core.Corpus, serveShards)
	for i := range shards {
		if shards[i], _, err = store.Load(store.ShardDir(w1dir, i)); err != nil {
			return err
		}
	}
	t0 := time.Now()
	w2, err := approxsel.OpenShardedCorpus(state, serveShards)
	if err != nil {
		return err
	}
	r.set("approxsel.open_sharded_s", time.Since(t0).Seconds())
	watched, err := approxsel.OpenShardedCorpus(state, serveShards)
	if err != nil {
		return err
	}
	watch, err := watched.RegisterWatch("Jaccard", 0.6)
	if err != nil {
		return err
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range watch.Events() {
		}
	}()
	defer func() {
		watch.Close()
		<-drained
	}()

	home := func(tid int) *core.Corpus {
		for _, c := range shards {
			for _, rec := range c.Records() {
				if rec.TID == tid {
					return c
				}
			}
		}
		return shards[tid%len(shards)] // an insert: any shard is its size
	}
	type mutator interface {
		Insert(...approxsel.Record) error
		Upsert(...approxsel.Record) error
		Delete(...int) error
	}
	apply := func(c mutator, m mutation) error {
		switch m.kind {
		case "insert":
			return c.Insert(m.rec)
		case "upsert":
			return c.Upsert(m.rec)
		default:
			return c.Delete(m.rec.TID)
		}
	}
	var w0, l1, l2, l3, l4, lw []int64
	byKind := map[string][]int64{}
	for _, m := range muts {
		op := in.cycles
		d, err := rec.timed("W0.http", -1, op, func() error {
			ack, err := in.mutate(m)
			in.epochs = ack.Epochs
			return err
		})
		if err != nil {
			return fmt.Errorf("bench: ladder W0: %w", err)
		}
		in.cycles++ // acknowledged by the live server: part of the final state
		w0 = append(w0, d)
		if d, err = rec.timed("W1.durable", -1, op, func() error { return apply(w1, m) }); err != nil {
			return fmt.Errorf("bench: ladder W1: %w", err)
		}
		l1 = append(l1, d)
		if d, err = rec.timed("W2.memory", -1, op, func() error { return apply(w2, m) }); err != nil {
			return fmt.Errorf("bench: ladder W2: %w", err)
		}
		l2 = append(l2, d)
		c := home(m.rec.TID)
		if d, err = rec.timed("W3.core", -1, op, func() error { return apply(c, m) }); err != nil {
			return fmt.Errorf("bench: ladder W3: %w", err)
		}
		l3 = append(l3, d)
		byKind[m.kind] = append(byKind[m.kind], d)
		if m.kind != "delete" {
			d, err = rec.timed("W4.delta", -1, op, func() error {
				_, err := core.NewCorpus([]core.Record{m.rec}, core.DefaultConfig(), core.AllLayers)
				return err
			})
			if err != nil {
				return err
			}
			l4 = append(l4, d)
		}
		if d, err = rec.timed("W2.watched", -1, op, func() error { return apply(watched, m) }); err != nil {
			return fmt.Errorf("bench: ladder watched: %w", err)
		}
		lw = append(lw, d)
		r.Attempted += 5
	}
	n := len(muts)
	m0, m1, m2, m3, m4 := medianNS(w0)/1e3, medianNS(l1)/1e3, medianNS(l2)/1e3, medianNS(l3)/1e3, medianNS(l4)/1e3
	r.setN("server.http_self_us", medianGapUS(w0, l1), n)
	r.setN("store.wal_self_us", medianGapUS(l1, l2), n)
	for _, kind := range []string{"insert", "upsert", "delete"} {
		r.setN("core.mutate_"+kind+"_p50_us", medianNS(byKind[kind])/1e3, len(byKind[kind]))
	}
	r.setN("core.delta_tokenize_us", m4, len(l4))
	if m3 > 0 {
		r.set("core.assemble_share", 1-m4/m3)
	}
	ws := watched.WatchStats()
	r.setN("watch.derive_us_per_mutation", float64(ws.DeriveNS)/1e3/float64(n), n)
	r.set("watch.events_emitted", float64(ws.Emitted))
	fmt.Fprintf(cfg.out, " ladder: W0 %.0f us, W1 %.0f us, W2 %.0f us, W3 %.0f us, W4 %.0f us, W2+watch %.0f us over %d mutations (untraced write_p50_us %.0f)\n",
		m0, m1, m2, m3, m4, medianNS(lw)/1e3, n, r.value("write_p50_us"))
	return nil
}
