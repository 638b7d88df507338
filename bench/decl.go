package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	approxsel "repro"
	"repro/internal/core"
)

// declInst is the set-up decl-sql workload: six declarative predicates,
// each preprocessed into its own sqldb database, and the round-robin
// operation list.
type declInst struct {
	ds      *approxsel.DirtyDataset
	preds   map[string]approxsel.Predicate
	queries []approxsel.Record
	ops     []selectOp
	next    int
	// byPredicate collects the untraced phase's latencies per predicate.
	byPredicate map[string][]int64
}

func setupDecl(cfg config) (*declInst, setupTimes, error) {
	t0 := time.Now()
	ds, err := dataset(cfg.scaled(cfg.sizes.declRecords), cfg.seed)
	if err != nil {
		return nil, setupTimes{}, err
	}
	in := &declInst{ds: ds, preds: map[string]approxsel.Predicate{}, byPredicate: map[string][]int64{}}
	tp := time.Now()
	for _, name := range declSix {
		if in.preds[name], err = approxsel.New(name, ds.Records, approxsel.WithRealization(approxsel.Declarative)); err != nil {
			return nil, setupTimes{}, err
		}
	}
	prep := time.Since(tp)
	// Queries that repeat a word are left out: the two realizations of
	// GESJaccard score them differently (bench/README.md, baseline
	// findings), and a workload must not contain operations that fail its
	// own cross-realization check.
	in.queries = pickQueriesWhere(ds.Records, cfg.sizes.declQueries, cfg.seed+1, distinctWords)
	for _, q := range in.queries {
		for _, name := range declSix {
			in.ops = append(in.ops, selectOp{predicate: name, query: q.Text})
		}
	}
	return in, setupTimes{total: time.Since(t0).Seconds(), preprocess: prep.Seconds()}, nil
}

func (in *declInst) timedOp(record bool) func(_, _ int) (bool, error) {
	return func(_, _ int) (bool, error) {
		op := in.ops[in.next%len(in.ops)]
		in.next++
		t0 := time.Now()
		ms, err := approxsel.SelectCtx(context.Background(), in.preds[op.predicate], op.query, approxsel.Limit(selectLimit))
		if record && err == nil {
			in.byPredicate[op.predicate] = append(in.byPredicate[op.predicate], int64(time.Since(t0)))
		}
		if err == nil && len(ms) > selectLimit {
			err = fmt.Errorf("bench: %s returned %d matches over the limit", op.predicate, len(ms))
		}
		return false, err
	}
}

func runDecl(cfg config) (*result, error) {
	r := newResult("decl-sql", cfg)
	in, st, err := repeatSetup(cfg.setups(false), func() (*declInst, setupTimes, error) { return setupDecl(cfg) }, func(*declInst) error { return nil })
	if err != nil {
		return nil, err
	}
	r.set("setup_s", st.total)
	r.set("preprocess_s", st.preprocess)
	r.set("heap_mb", heapMiB())
	for _, name := range declSix {
		if ph, ok := in.preds[name].(core.Phased); ok {
			tok, w := ph.PreprocessPhases()
			r.set("declarative."+name+".tokenize_s", tok.Seconds())
			r.set("declarative."+name+".weights_s", w.Seconds())
		}
	}

	hp0 := core.HotPathSnapshot()
	ph := closedLoop(1, cfg.timedDuration(), nil, "select", in.timedOp(true))
	ph.account(r)
	reportSelects(r, ph, 1, false)
	// No declarative select may reach the native engine.
	reportHotPath(r, core.HotPathSnapshot().Sub(hp0))
	for name, lat := range in.byPredicate {
		r.setN("declarative."+name+".select_p50_us", medianNS(lat)/1e3, len(lat))
	}

	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
		traced := closedLoop(1, cfg.timedDuration(), rec, "select", in.timedOp(false))
		traced.account(r)
		reportOverhead(r, ph, traced)
		if err := sqlStatements(r, rec, in.ds.Records, in.queries); err != nil {
			return nil, err
		}
	}
	if err := in.check(cfg, r, rec); err != nil {
		return nil, err
	}
	if err := rec.write(cfg.tracePath(r.Workload)); err != nil {
		return nil, err
	}
	r.finish()
	return r, nil
}

// check sends the sampled operations through both realizations. The SQL
// and the in-memory scores agree up to floating-point re-association, so
// ranks are compared score by score with a relative tolerance, and TIDs
// wherever the scores around a rank are not tied.
func (in *declInst) check(cfg config, r *result, rec *recorder) error {
	ctx := context.Background()
	corpus, err := approxsel.OpenCorpus(in.ds.Records)
	if err != nil {
		return err
	}
	natives := map[string]approxsel.Predicate{}
	for _, name := range declSix {
		if natives[name], err = corpus.Predicate(name); err != nil {
			return err
		}
	}
	dg := newDigest()
	sample := in.ops[:min(cfg.sizes.declSample, len(in.ops))]
	nat := make([]int64, len(sample))
	for i, op := range sample {
		var got, want []core.Match
		if _, err := rec.timed("declarative", -1, i, func() (err error) {
			got, err = approxsel.SelectCtx(ctx, in.preds[op.predicate], op.query, approxsel.Limit(selectLimit))
			return err
		}); err != nil {
			return err
		}
		if nat[i], err = rec.timed("native", -1, i, func() (err error) {
			want, err = approxsel.SelectCtx(ctx, natives[op.predicate], op.query, approxsel.Limit(selectLimit))
			return err
		}); err != nil {
			return err
		}
		r.Attempted++
		if msg := closeRanking(got, want); msg != "" {
			r.fail(1, "declarative and native %s differ for %q: %s", op.predicate, op.query, msg)
		}
		dg.str(op.predicate)
		dg.str(op.query)
		for _, m := range got {
			dg.u64(uint64(int64(m.TID)))
		}
	}
	r.Digest = dg.sum()
	perPredicate(r, "native.", sample, nat)
	for _, name := range declSix {
		if n := r.value("native." + name + ".select_p50_us"); n > 0 {
			r.set("declarative."+name+".vs_native", r.value("declarative."+name+".select_p50_us")/n)
		}
	}

	sz := cfg.sizes
	maps, err := accuracy(in.ds, pickQueries(in.ds.Records, sz.declMapQuery, cfg.seed+3), declSix,
		func(name string) (approxsel.Predicate, error) { return in.preds[name], nil })
	if err != nil {
		return err
	}
	checkAccuracy(r, cfg, "decl-sql/declarative", maps)
	maps, err = accuracy(in.ds, pickQueries(in.ds.Records, sz.mapQueries, cfg.seed+3), declSix,
		func(name string) (approxsel.Predicate, error) { return natives[name], nil })
	if err != nil {
		return err
	}
	checkAccuracy(r, cfg, "decl-sql/native", maps)
	return nil
}

// closeRanking compares two top-k rankings of one query across
// realizations; it returns what differs, or "".
func closeRanking(a, b []core.Match) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d matches against %d", len(a), len(b))
	}
	closeTo := func(x, y float64) bool {
		d := math.Abs(x - y)
		return d < 1e-9 || d <= 1e-9*math.Max(math.Abs(x), math.Abs(y))
	}
	for i := range a {
		if !closeTo(a[i].Score, b[i].Score) {
			return fmt.Sprintf("rank %d scores %.15g against %.15g", i+1, a[i].Score, b[i].Score)
		}
	}
	return ""
}

// sqlStatements times four canonical statements on a bare sqldb database:
// the shapes every declarative predicate's preprocessing and scoring are
// made of (Appendix A/B of the thesis).
func sqlStatements(r *result, rec *recorder, records []approxsel.Record, queries []approxsel.Record) error {
	grams := func(text string) []string {
		s := "$$" + strings.ToUpper(strings.Join(strings.Fields(text), "$$")) + "$$"
		rs := []rune(s)
		out := make([]string, 0, len(rs))
		for i := 0; i+3 <= len(rs); i++ {
			out = append(out, string(rs[i:i+3]))
		}
		return out
	}
	db := approxsel.NewSQLDB()
	exec := func(name, sql string) (int64, error) {
		return rec.timed(name, -1, 0, func() error {
			_, err := db.Exec(sql)
			return err
		})
	}
	if _, err := exec("sqldb.create", "CREATE TABLE tokens (tid INT, token VARCHAR(16))"); err != nil {
		return err
	}
	var rows [][]approxsel.SQLValue
	for _, rc := range records {
		for _, g := range grams(rc.Text) {
			rows = append(rows, []approxsel.SQLValue{approxsel.SQLInt(int64(rc.TID)), approxsel.SQLString(g)})
		}
	}
	d, err := rec.timed("sqldb.bulk_insert", -1, 0, func() error { return db.BulkInsert("tokens", rows) })
	if err != nil {
		return err
	}
	r.setN("sqldb.bulk_insert_us_per_krow", float64(d)/1e3/(float64(len(rows))/1e3), len(rows))
	if d, err = exec("sqldb.create_index", "CREATE INDEX t_token ON tokens (token)"); err != nil {
		return err
	}
	r.set("sqldb.create_index_us", float64(d)/1e3)

	if _, err := exec("sqldb.create", "CREATE TABLE qtokens (token VARCHAR(16))"); err != nil {
		return err
	}
	joins := make([]int64, 0, len(queries))
	for i, q := range queries {
		if _, err := db.Exec("DELETE FROM qtokens"); err != nil {
			return err
		}
		seen := map[string]bool{}
		var qrows [][]approxsel.SQLValue
		for _, g := range grams(q.Text) {
			if !seen[g] {
				seen[g] = true
				qrows = append(qrows, []approxsel.SQLValue{approxsel.SQLString(g)})
			}
		}
		if err := db.BulkInsert("qtokens", qrows); err != nil {
			return err
		}
		d, err := rec.timed("sqldb.token_join", -1, i, func() error {
			_, err := db.Query(`SELECT R1.tid, COUNT(*) AS score FROM tokens R1, qtokens R2
				WHERE R1.token = R2.token GROUP BY R1.tid`)
			return err
		})
		if err != nil {
			return err
		}
		joins = append(joins, d)
	}
	r.setN("sqldb.token_join_us", medianNS(joins)/1e3, len(joins))

	if _, err := exec("sqldb.create", "CREATE TABLE tf (tid INT, token VARCHAR(16), tf INT)"); err != nil {
		return err
	}
	if d, err = exec("sqldb.insert_select_groupby", `INSERT INTO tf (tid, token, tf)
		SELECT T.tid, T.token, COUNT(*) FROM tokens T GROUP BY T.tid, T.token`); err != nil {
		return err
	}
	r.set("sqldb.insert_select_groupby_us", float64(d)/1e3)
	return nil
}
