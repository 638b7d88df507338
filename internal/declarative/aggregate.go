package declarative

import (
	"time"

	"repro/internal/core"
	"repro/internal/sqldb"
)

// The aggregate weighted predicates (Appendix B.2) keep token multisets
// (term frequency matters) and score with the single weighted join of
// Figure 4.3.

// multisetPrep tokenizes into base_tokens (multiset, pruned) and creates
// the query staging table.
func multisetPrep(records []core.Record, cfg core.Config) (*base, error) {
	b, err := newBase(records, cfg)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := b.exec("CREATE TABLE base_tokens (tid INT, token VARCHAR(16))"); err != nil {
		return nil, err
	}
	if err := b.qgramSQL("base_table", "base_tokens", cfg.Q); err != nil {
		return nil, err
	}
	if err := b.pruneSQL("base_tokens", cfg.PruneRate); err != nil {
		return nil, err
	}
	b.tokDur = time.Since(t0)
	if err := b.exec("CREATE TABLE query_tokens (token VARCHAR(16))"); err != nil {
		return nil, err
	}
	return b, nil
}

// prepCosine builds the idf, tf, length and normalized weight tables of the
// tf-idf cosine similarity (Appendix B.2.1).
func prepCosine(records []core.Record, cfg core.Config) (*base, error) {
	b, err := multisetPrep(records, cfg)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	stmts := []string{
		"CREATE TABLE base_size (size INT)",
		"INSERT INTO base_size (size) SELECT COUNT(*) FROM base_table",
		"CREATE TABLE base_idf (token VARCHAR(16), idf DOUBLE)",
		`INSERT INTO base_idf (token, idf)
		 SELECT T.token, LOG(S.size) - LOG(COUNT(DISTINCT T.tid))
		 FROM base_tokens T, base_size S GROUP BY T.token, S.size`,
		"CREATE TABLE base_tf (tid INT, token VARCHAR(16), tf INT)",
		`INSERT INTO base_tf (tid, token, tf)
		 SELECT T.tid, T.token, COUNT(*) FROM base_tokens T GROUP BY T.tid, T.token`,
		"CREATE TABLE base_length (tid INT, len DOUBLE)",
		`INSERT INTO base_length (tid, len)
		 SELECT T.tid, SQRT(SUM(I.idf * I.idf * T.tf * T.tf))
		 FROM base_idf I, base_tf T WHERE I.token = T.token GROUP BY T.tid`,
		"CREATE TABLE base_weights (tid INT, token VARCHAR(16), weight DOUBLE)",
		`INSERT INTO base_weights (tid, token, weight)
		 SELECT T.tid, T.token, I.idf * T.tf / L.len
		 FROM base_idf I, base_tf T, base_length L
		 WHERE I.token = T.token AND T.tid = L.tid AND L.len > 0`,
		"CREATE INDEX bw_token ON base_weights (token)",
		"CREATE TABLE query_tf (token VARCHAR(16), tf INT)",
		"CREATE TABLE query_weights (token VARCHAR(16), weight DOUBLE)",
	}
	for _, s := range stmts {
		if err := b.exec(s); err != nil {
			return nil, err
		}
	}
	b.wDur = time.Since(t0)
	return b, nil
}

// selectCosine computes normalized query weights on the fly (only tokens
// known to the base relation participate, per the BASE_IDF join) and runs
// Figure 4.3.
func (b *base) selectCosine(query string) ([]core.Match, error) {
	if err := b.setQuery(query, b.cfg.Q); err != nil {
		return nil, err
	}
	steps := []string{
		"DELETE FROM query_tf",
		`INSERT INTO query_tf (token, tf)
		 SELECT T.token, COUNT(*) FROM query_tokens T GROUP BY T.token`,
		"DELETE FROM query_weights",
		`INSERT INTO query_weights (token, weight)
		 SELECT T.token, I.idf * T.tf / QL.len
		 FROM query_tf T, base_idf I,
		      (SELECT SQRT(SUM(I2.idf * I2.idf * T2.tf * T2.tf)) AS len
		       FROM query_tf T2, base_idf I2 WHERE T2.token = I2.token) QL
		 WHERE T.token = I.token AND QL.len > 0`,
	}
	for _, s := range steps {
		if err := b.exec(s); err != nil {
			return nil, err
		}
	}
	rows, err := b.db.Query(`
		SELECT R1W.tid, SUM(R1W.weight * R2W.weight) AS score
		FROM base_weights R1W, query_weights R2W
		WHERE R1W.token = R2W.token
		GROUP BY R1W.tid`)
	if err != nil {
		return nil, err
	}
	return matches(rows), nil
}

// prepBM25 builds the modified tf/idf weight tables of Appendix B.2.2.
func prepBM25(records []core.Record, cfg core.Config) (*base, error) {
	b, err := multisetPrep(records, cfg)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	stmts := []string{
		"CREATE TABLE base_size (size INT)",
		"INSERT INTO base_size (size) SELECT COUNT(*) FROM base_table",
		"CREATE TABLE base_tf (tid INT, token VARCHAR(16), tf INT)",
		`INSERT INTO base_tf (tid, token, tf)
		 SELECT T.tid, T.token, COUNT(*) FROM base_tokens T GROUP BY T.tid, T.token`,
		"CREATE TABLE base_bmidf (token VARCHAR(16), midf DOUBLE)",
		`INSERT INTO base_bmidf (token, midf)
		 SELECT T.token, LOG(S.size - COUNT(T.tid) + 0.5) - LOG(COUNT(T.tid) + 0.5)
		 FROM base_tf T, base_size S GROUP BY T.token, S.size`,
		"CREATE TABLE base_bmlen (tid INT, len INT)",
		`INSERT INTO base_bmlen (tid, len)
		 SELECT T.tid, SUM(T.tf) FROM base_tf T GROUP BY T.tid`,
		"CREATE TABLE base_bmavglen (avglen DOUBLE)",
		"INSERT INTO base_bmavglen (avglen) SELECT AVG(len) FROM base_bmlen",
	}
	for _, s := range stmts {
		if err := b.exec(s); err != nil {
			return nil, err
		}
	}
	k1, bb := sqldb.Float(cfg.BM25K1), sqldb.Float(cfg.BM25B)
	err = b.exec(`
		CREATE TABLE base_modtf (tid INT, token VARCHAR(16), mtf DOUBLE)`)
	if err != nil {
		return nil, err
	}
	err = b.exec(`
		INSERT INTO base_modtf (tid, token, mtf)
		SELECT T.tid, T.token,
		       (T.tf * (? + 1)) / ((((1 - ?) + (? * L.len / A.avglen)) * ?) + T.tf)
		FROM base_bmlen L, base_bmavglen A, base_tf T
		WHERE L.tid = T.tid`, k1, bb, bb, k1)
	if err != nil {
		return nil, err
	}
	stmts = []string{
		"CREATE TABLE base_weights (tid INT, token VARCHAR(16), weight DOUBLE)",
		`INSERT INTO base_weights (tid, token, weight)
		 SELECT T.tid, T.token, T.mtf * I.midf
		 FROM base_modtf T, base_bmidf I WHERE T.token = I.token`,
		"CREATE INDEX bw_token ON base_weights (token)",
	}
	for _, s := range stmts {
		if err := b.exec(s); err != nil {
			return nil, err
		}
	}
	b.wDur = time.Since(t0)
	return b, nil
}

// selectBM25 computes query-side saturated tf weights on the fly and runs
// the weighted join of Figure 4.3.
func (b *base) selectBM25(query string) ([]core.Match, error) {
	if err := b.setQuery(query, b.cfg.Q); err != nil {
		return nil, err
	}
	k3 := sqldb.Float(b.cfg.BM25K3)
	rows, err := b.db.Query(`
		SELECT B.tid, SUM(B.weight * S.mtf) AS score
		FROM base_weights B,
		     (SELECT T.token, COUNT(*) * (? + 1) / (? + COUNT(*)) AS mtf
		      FROM query_tokens T GROUP BY T.token) S
		WHERE B.token = S.token
		GROUP BY B.tid`, k3, k3)
	if err != nil {
		return nil, err
	}
	return matches(rows), nil
}
