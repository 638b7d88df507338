package declarative

import (
	"time"

	"repro/internal/core"
)

// The overlap predicates (Appendix B.1) store distinct token tables for
// base and query (§5.5.1), and score with a single token join.

// overlapPrep runs the shared preprocessing: q-gram tokenization into
// base_tokens_all (multiset, pruned), distinct base_tokens with a token
// index, and the query-side staging tables.
func overlapPrep(records []core.Record, cfg core.Config) (*base, error) {
	b, err := newBase(records, cfg)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	stmts := []string{
		"CREATE TABLE base_tokens_all (tid INT, token VARCHAR(16))",
	}
	for _, s := range stmts {
		if err := b.exec(s); err != nil {
			return nil, err
		}
	}
	if err := b.qgramSQL("base_table", "base_tokens_all", cfg.Q); err != nil {
		return nil, err
	}
	if err := b.pruneSQL("base_tokens_all", cfg.PruneRate); err != nil {
		return nil, err
	}
	t1 := time.Now()
	stmts = []string{
		"CREATE TABLE base_tokens (tid INT, token VARCHAR(16))",
		`INSERT INTO base_tokens (tid, token)
		 SELECT T.tid, T.token FROM base_tokens_all T GROUP BY T.tid, T.token`,
		"CREATE INDEX bt_token ON base_tokens (token)",
		"CREATE TABLE query_tokens (token VARCHAR(16))",
		"CREATE TABLE query_tokens_d (token VARCHAR(16))",
	}
	for _, s := range stmts {
		if err := b.exec(s); err != nil {
			return nil, err
		}
	}
	b.tokDur, b.wDur = t1.Sub(t0), time.Since(t1)
	return b, nil
}

// setDistinctQuery tokenizes the query and refreshes the distinct token
// table used by the overlap class.
func (b *base) setDistinctQuery(query string) error {
	if err := b.setQuery(query, b.cfg.Q); err != nil {
		return err
	}
	if err := b.exec("DELETE FROM query_tokens_d"); err != nil {
		return err
	}
	return b.exec(`INSERT INTO query_tokens_d (token)
		SELECT T.token FROM query_tokens T GROUP BY T.token`)
}

// selectIntersectSize runs the Figure 4.1 scoring query of IntersectSize,
// over overlapPrep's tables (Appendix B.1.1).
func (b *base) selectIntersectSize(query string) ([]core.Match, error) {
	if err := b.setDistinctQuery(query); err != nil {
		return nil, err
	}
	rows, err := b.db.Query(`
		SELECT R1.tid, COUNT(*) AS score
		FROM base_tokens R1, query_tokens_d R2
		WHERE R1.token = R2.token
		GROUP BY R1.tid`)
	if err != nil {
		return nil, err
	}
	return matches(rows), nil
}

// prepJaccard preprocesses Jaccard per Appendix B.1.2, storing per-record
// distinct token counts in base_tokensddl.
func prepJaccard(records []core.Record, cfg core.Config) (*base, error) {
	b, err := overlapPrep(records, cfg)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	stmts := []string{
		"CREATE TABLE base_ddl (tid INT, ddl INT)",
		`INSERT INTO base_ddl (tid, ddl)
		 SELECT T.tid, COUNT(*) FROM base_tokens T GROUP BY T.tid`,
		"CREATE TABLE base_tokensddl (tid INT, token VARCHAR(16), ddl INT)",
		`INSERT INTO base_tokensddl (tid, token, ddl)
		 SELECT T.tid, T.token, D.ddl FROM base_tokens T, base_ddl D WHERE T.tid = D.tid`,
		"CREATE INDEX btd_token ON base_tokensddl (token)",
	}
	for _, s := range stmts {
		if err := b.exec(s); err != nil {
			return nil, err
		}
	}
	b.wDur += time.Since(t0)
	return b, nil
}

// selectJaccard runs the Figure 4.2 scoring query.
func (b *base) selectJaccard(query string) ([]core.Match, error) {
	if err := b.setDistinctQuery(query); err != nil {
		return nil, err
	}
	rows, err := b.db.Query(`
		SELECT S1.tid, COUNT(*) / (S1.ddl + S2.ddl - COUNT(*)) AS score
		FROM base_tokensddl S1, query_tokens_d R2,
		     (SELECT COUNT(*) AS ddl FROM query_tokens_d) S2
		WHERE S1.token = R2.token
		GROUP BY S1.tid, S1.ddl, S2.ddl`)
	if err != nil {
		return nil, err
	}
	return matches(rows), nil
}

// weightedOverlapPrep extends overlapPrep with the Robertson–Sparck Jones
// weight tables of Appendix B.1.3 (the weighting scheme §5.3.1 selects).
func weightedOverlapPrep(records []core.Record, cfg core.Config) (*base, error) {
	b, err := overlapPrep(records, cfg)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	stmts := []string{
		"CREATE TABLE base_size (size INT)",
		"INSERT INTO base_size (size) SELECT COUNT(*) FROM base_table",
		"CREATE TABLE base_tf (tid INT, token VARCHAR(16), tf INT)",
		`INSERT INTO base_tf (tid, token, tf)
		 SELECT T.tid, T.token, COUNT(*) FROM base_tokens_all T GROUP BY T.tid, T.token`,
		"CREATE TABLE base_bmidf (token VARCHAR(16), midf DOUBLE)",
		`INSERT INTO base_bmidf (token, midf)
		 SELECT T.token, LOG(S.size - COUNT(T.tid) + 0.5) - LOG(COUNT(T.tid) + 0.5)
		 FROM base_tf T, base_size S GROUP BY T.token, S.size`,
		"CREATE TABLE base_weights (tid INT, token VARCHAR(16), weight DOUBLE)",
		`INSERT INTO base_weights (tid, token, weight)
		 SELECT T.tid, T.token, I.midf FROM base_tokens T, base_bmidf I WHERE T.token = I.token`,
		"CREATE INDEX bw_token ON base_weights (token)",
	}
	for _, s := range stmts {
		if err := b.exec(s); err != nil {
			return nil, err
		}
	}
	b.wDur += time.Since(t0)
	return b, nil
}

// selectWeightedMatch is WeightedMatch (Appendix B.1.3): it sums the RS
// weights of shared distinct tokens, over weightedOverlapPrep's tables.
func (b *base) selectWeightedMatch(query string) ([]core.Match, error) {
	if err := b.setDistinctQuery(query); err != nil {
		return nil, err
	}
	rows, err := b.db.Query(`
		SELECT W1.tid, SUM(W1.weight) AS score
		FROM base_weights W1, query_tokens_d T2
		WHERE W1.token = T2.token
		GROUP BY W1.tid`)
	if err != nil {
		return nil, err
	}
	return matches(rows), nil
}

// prepWeightedJaccard preprocesses WeightedJaccard (Appendix B.1.4, RS
// weights on both sides per §5.3.1): RS-weighted tokens plus per-record
// summed weights (base_tokensddl with ddl = Σ weight).
func prepWeightedJaccard(records []core.Record, cfg core.Config) (*base, error) {
	b, err := weightedOverlapPrep(records, cfg)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	stmts := []string{
		"CREATE TABLE base_ddl (tid INT, ddl DOUBLE)",
		`INSERT INTO base_ddl (tid, ddl)
		 SELECT W.tid, SUM(W.weight) FROM base_weights W GROUP BY W.tid`,
		"CREATE TABLE base_tokensddl (tid INT, token VARCHAR(16), weight DOUBLE, ddl DOUBLE)",
		`INSERT INTO base_tokensddl (tid, token, weight, ddl)
		 SELECT W.tid, W.token, W.weight, D.ddl FROM base_weights W, base_ddl D WHERE W.tid = D.tid`,
		"CREATE INDEX btdw_token ON base_tokensddl (token)",
	}
	for _, s := range stmts {
		if err := b.exec(s); err != nil {
			return nil, err
		}
	}
	b.wDur += time.Since(t0)
	return b, nil
}

// selectWeightedJaccard divides the shared weight by the union weight;
// query-side token weights come from the base relation's RS weight table.
func (b *base) selectWeightedJaccard(query string) ([]core.Match, error) {
	if err := b.setDistinctQuery(query); err != nil {
		return nil, err
	}
	rows, err := b.db.Query(`
		SELECT S1.tid, SUM(S1.weight) / (S1.ddl + S2.ddl - SUM(S1.weight)) AS score
		FROM base_tokensddl S1, query_tokens_d R2,
		     (SELECT IFNULL(SUM(I.midf), 0.0) AS ddl
		      FROM base_bmidf I, query_tokens_d T
		      WHERE I.token = T.token) S2
		WHERE S1.token = R2.token
		GROUP BY S1.tid, S1.ddl, S2.ddl`)
	if err != nil {
		return nil, err
	}
	return matches(rows), nil
}
