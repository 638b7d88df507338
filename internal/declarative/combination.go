package declarative

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/minhash"
	"repro/internal/native"
	"repro/internal/sqldb"
	"repro/internal/strutil"
	"repro/internal/tokenize"
)

// The combination predicates (Appendix B.4) tokenize in two levels — words,
// then q-grams of words — and combine SQL token machinery with the UDFs the
// paper assumes: exact GES scoring and Jaro–Winkler.

// wordPrep creates base_words (word tokens, upper-cased) plus the word-idf
// tables shared by the whole class.
func wordPrep(records []core.Record, cfg core.Config) (*base, error) {
	b, err := newBase(records, cfg)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := b.exec("CREATE TABLE base_words (tid INT, token VARCHAR(64))"); err != nil {
		return nil, err
	}
	if err := b.wordSQL("base_table", "base_words"); err != nil {
		return nil, err
	}
	t1 := time.Now()
	stmts := []string{
		"CREATE TABLE base_size (size INT)",
		"INSERT INTO base_size (size) SELECT COUNT(*) FROM base_table",
		"CREATE TABLE base_idf (token VARCHAR(64), idf DOUBLE)",
		`INSERT INTO base_idf (token, idf)
		 SELECT T.token, LOG(S.size) - LOG(COUNT(DISTINCT T.tid))
		 FROM base_words T, base_size S GROUP BY T.token, S.size`,
		"CREATE TABLE base_idfavg (idfavg DOUBLE)",
		"INSERT INTO base_idfavg (idfavg) SELECT AVG(I.idf) FROM base_idf I",
		"CREATE TABLE query_words (token VARCHAR(64))",
	}
	for _, s := range stmts {
		if err := b.exec(s); err != nil {
			return nil, err
		}
	}
	b.tokDur, b.wDur = t1.Sub(t0), time.Since(t1)
	return b, nil
}

// idfTable is the Go-side mirror of base_idf/base_idfavg that the GES UDF
// consults (the paper computes exact GES scores in a UDF too, §4.5).
type idfTable struct {
	idf map[string]float64
	avg float64
}

func loadIDF(db *sqldb.DB) (*idfTable, error) {
	rows, err := db.Query("SELECT token, idf FROM base_idf")
	if err != nil {
		return nil, err
	}
	t := &idfTable{idf: make(map[string]float64, len(rows.Data))}
	for _, r := range rows.Data {
		t.idf[r[0].AsString()] = r[1].AsFloat()
	}
	avgRows, err := db.Query("SELECT idfavg FROM base_idfavg")
	if err != nil {
		return nil, err
	}
	if len(avgRows.Data) == 1 && !avgRows.Data[0][0].IsNull() {
		t.avg = avgRows.Data[0][0].AsFloat()
	}
	return t, nil
}

func (t *idfTable) weight(token string) float64 {
	if w, ok := t.idf[token]; ok {
		return w
	}
	return t.avg
}

// registerGESScore installs GESSCORE(query, record): the exact Eq. 3.14
// similarity, sharing native.GESCost so both realizations agree bit-for-bit
// on the kernel.
func registerGESScore(db *sqldb.DB, idf *idfTable, cins float64) {
	db.RegisterFunc("GESSCORE", func(args []sqldb.Value) (sqldb.Value, error) {
		if len(args) != 2 {
			return sqldb.Null(), fmt.Errorf("GESSCORE takes 2 arguments")
		}
		if args[0].IsNull() || args[1].IsNull() {
			return sqldb.Null(), nil
		}
		qws := tokenize.Words(normalizeUpper(args[0].AsString()))
		dws := tokenize.Words(normalizeUpper(args[1].AsString()))
		qWeights := make([]float64, len(qws))
		wtQ := 0.0
		for i, t := range qws {
			qWeights[i] = idf.weight(t)
			wtQ += qWeights[i]
		}
		dWeights := make([]float64, len(dws))
		for i, t := range dws {
			dWeights[i] = idf.weight(t)
		}
		cost := native.GESCost(qws, qWeights, dws, dWeights, cins)
		return sqldb.Float(native.GESScore(cost, wtQ)), nil
	})
}

func normalizeUpper(s string) string {
	return strings.ToUpper(normalize(s))
}

// prepGES prepares the exact generalized edit similarity: word tokens and
// idf weights in SQL, and the GESSCORE UDF that scores the base relation.
func prepGES(records []core.Record, cfg core.Config) (*base, error) {
	b, err := wordPrep(records, cfg)
	if err != nil {
		return nil, err
	}
	idf, err := loadIDF(b.db)
	if err != nil {
		return nil, err
	}
	registerGESScore(b.db, idf, cfg.GESCins)
	return b, nil
}

// selectGES scores every record with the GESSCORE UDF.
func (b *base) selectGES(query string) ([]core.Match, error) {
	if len(tokenize.Words(query)) == 0 {
		return nil, nil
	}
	rows, err := b.db.Query(
		"SELECT B.tid, GESSCORE(?, B.string) AS score FROM base_table B",
		sqldb.String(normalize(query)))
	if err != nil {
		return nil, err
	}
	return matches(rows), nil
}

// gesFilterTables creates the per-query staging tables shared by GESJaccard
// and GESapx.
func gesFilterTables(b *base) error {
	stmts := []string{
		"CREATE TABLE query_idf (token VARCHAR(64), idf DOUBLE)",
		"CREATE TABLE sum_idf (sumidf DOUBLE)",
		"CREATE TABLE maxsim_t (tid INT, token2 VARCHAR(64), maxsim DOUBLE)",
		"CREATE TABLE cand (tid INT, fscore DOUBLE)",
	}
	for _, s := range stmts {
		if err := b.exec(s); err != nil {
			return err
		}
	}
	return nil
}

// refreshQueryIDF fills query_idf (distinct query words with base idf or the
// average idf for unseen words) and sum_idf.
func (b *base) refreshQueryIDF() error {
	steps := []string{
		"DELETE FROM query_idf",
		`INSERT INTO query_idf (token, idf)
		 SELECT R.token, R.idf FROM query_words S, base_idf R
		 WHERE S.token = R.token GROUP BY R.token, R.idf
		 UNION ALL
		 SELECT S.token, A.idfavg FROM query_words S, base_idfavg A
		 WHERE S.token NOT IN (SELECT I.token FROM base_idf I)
		 GROUP BY S.token, A.idfavg`,
		"DELETE FROM sum_idf",
		"INSERT INTO sum_idf (sumidf) SELECT SUM(I.idf) FROM query_idf I",
	}
	for _, s := range steps {
		if err := b.exec(s); err != nil {
			return err
		}
	}
	return nil
}

// candidateScores runs the Eq. 4.7/4.8 filter aggregation over maxsim_t and
// returns the verified (exact GES) scores of surviving candidates.
func (b *base) candidateScores(query string, q int, theta float64) ([]core.Match, error) {
	if err := b.exec("DELETE FROM cand"); err != nil {
		return nil, err
	}
	err := b.exec(`
		INSERT INTO cand (tid, fscore)
		SELECT MS.tid, (1.0 / SI.sumidf) * SUM(QI.idf * (? * MS.maxsim + ?)) AS fscore
		FROM maxsim_t MS, query_idf QI, sum_idf SI
		WHERE MS.token2 = QI.token
		GROUP BY MS.tid, SI.sumidf
		HAVING fscore >= ?`,
		sqldb.Float(2.0/float64(q)), sqldb.Float(1-1.0/float64(q)), sqldb.Float(theta))
	if err != nil {
		return nil, err
	}
	rows, err := b.db.Query(`
		SELECT C.tid, GESSCORE(?, B.string) AS score
		FROM cand C, base_table B
		WHERE C.tid = B.tid`,
		sqldb.String(normalize(query)))
	if err != nil {
		return nil, err
	}
	return matches(rows), nil
}

// prepGESJaccard builds the two-level tokenization and gram-set size tables
// of the filtered GES of Appendix B.4.1: word-token Jaccard over q-gram sets
// bounds GES from above; survivors are verified with the GESSCORE UDF.
func prepGESJaccard(records []core.Record, cfg core.Config) (*base, error) {
	b, err := wordPrep(records, cfg)
	if err != nil {
		return nil, err
	}
	// Second-level tokenization (q-grams of word tokens, Appendix A.3)
	// belongs to the tokenization phase: it is why the combination
	// predicates are the slowest tokenizers in Figure 5.2.
	t0 := time.Now()
	p := pad(cfg.WordQ)
	if err := b.exec("CREATE TABLE base_qgrams (tid INT, token VARCHAR(64), qgram VARCHAR(16))"); err != nil {
		return nil, err
	}
	err = b.exec(`
		INSERT INTO base_qgrams (tid, token, qgram)
		SELECT T.tid, T.token,
		       SUBSTRING(CONCAT(?, UPPER(T.token), ?), N.i, ?) AS qgram
		FROM integers N INNER JOIN base_words T ON N.i <= LENGTH(T.token) + ?
		GROUP BY T.tid, T.token, qgram`,
		sqldb.String(p), sqldb.String(p), sqldb.Int(int64(cfg.WordQ)), sqldb.Int(int64(cfg.WordQ-1)))
	if err != nil {
		return nil, err
	}
	b.tokDur += time.Since(t0)
	t0 = time.Now()
	stmts := []string{
		"CREATE TABLE base_tokensize (tid INT, token VARCHAR(64), size INT)",
		`INSERT INTO base_tokensize (tid, token, size)
		 SELECT T.tid, T.token, COUNT(*) FROM base_qgrams T GROUP BY T.tid, T.token`,
		"CREATE TABLE base_qgramstokensize (tid INT, token VARCHAR(64), qgram VARCHAR(16), size INT)",
		`INSERT INTO base_qgramstokensize (tid, token, qgram, size)
		 SELECT T.tid, T.token, T.qgram, S.size
		 FROM base_qgrams T, base_tokensize S
		 WHERE T.tid = S.tid AND T.token = S.token`,
		"CREATE INDEX bqts_qgram ON base_qgramstokensize (qgram)",
		"CREATE TABLE query_qgrams (token VARCHAR(64), qgram VARCHAR(16))",
		"CREATE TABLE query_qgramsize (token VARCHAR(64), size INT)",
		"CREATE TABLE jac_sim (tid INT, token2 VARCHAR(64), sim DOUBLE)",
	}
	for _, s := range stmts {
		if err := b.exec(s); err != nil {
			return nil, err
		}
	}
	if err := gesFilterTables(b); err != nil {
		return nil, err
	}
	idf, err := loadIDF(b.db)
	if err != nil {
		return nil, err
	}
	registerGESScore(b.db, idf, cfg.GESCins)
	b.wDur += time.Since(t0)
	return b, nil
}

// selectGESJaccard runs the B.4.1 filtering pipeline and verifies candidates.
func (b *base) selectGESJaccard(query string) ([]core.Match, error) {
	if err := b.setQueryWords(query); err != nil {
		return nil, err
	}
	q := b.cfg.WordQ
	padArg := sqldb.String(pad(q))
	steps := []struct {
		sql  string
		args []sqldb.Value
	}{
		{sql: "DELETE FROM query_qgrams"},
		{
			sql: `INSERT INTO query_qgrams (token, qgram)
			      SELECT T.token, SUBSTRING(CONCAT(?, UPPER(T.token), ?), N.i, ?) AS qgram
			      FROM integers N INNER JOIN query_words T ON N.i <= LENGTH(T.token) + ?
			      GROUP BY T.token, qgram`,
			args: []sqldb.Value{padArg, padArg, sqldb.Int(int64(q)), sqldb.Int(int64(q - 1))},
		},
		{sql: "DELETE FROM query_qgramsize"},
		{sql: `INSERT INTO query_qgramsize (token, size)
		       SELECT T.token, COUNT(*) FROM query_qgrams T GROUP BY T.token`},
		{sql: "DELETE FROM jac_sim"},
		{sql: `INSERT INTO jac_sim (tid, token2, sim)
		       SELECT BS.tid, Q.token, COUNT(*) / (BS.size + QS.size - COUNT(*))
		       FROM base_qgramstokensize BS, query_qgrams Q, query_qgramsize QS
		       WHERE BS.qgram = Q.qgram AND Q.token = QS.token
		       GROUP BY BS.tid, BS.token, Q.token, BS.size, QS.size`},
		{sql: "DELETE FROM maxsim_t"},
		{sql: `INSERT INTO maxsim_t (tid, token2, maxsim)
		       SELECT J.tid, J.token2, MAX(J.sim) FROM jac_sim J GROUP BY J.tid, J.token2`},
	}
	for _, s := range steps {
		if err := b.exec(s.sql, s.args...); err != nil {
			return nil, err
		}
	}
	if err := b.refreshQueryIDF(); err != nil {
		return nil, err
	}
	return b.candidateScores(query, q, b.cfg.GESThreshold)
}

// prepGESapx builds signatures for every (record, word) pair for the
// min-hash variant of Appendix B.4.2: signatures are computed in SQL as
// per-slot minima of a hash UDF (standing in for the paper's CONV/HEX
// arithmetic hash), stored like BASE_MINHASHSIGNATURE, and compared with a
// fid/value equi-join.
func prepGESapx(records []core.Record, cfg core.Config) (*base, error) {
	b, err := wordPrep(records, cfg)
	if err != nil {
		return nil, err
	}
	family := minhash.NewFamily(cfg.MinHashSize(), cfg.MinHashSeed)
	b.db.RegisterFunc("MHASH", func(args []sqldb.Value) (sqldb.Value, error) {
		if len(args) != 2 {
			return sqldb.Null(), fmt.Errorf("MHASH takes 2 arguments")
		}
		if args[0].IsNull() || args[1].IsNull() {
			return sqldb.Null(), nil
		}
		return sqldb.Int(int64(family.HashValue(int(args[0].AsInt()), args[1].AsString()))), nil
	})
	t0 := time.Now()
	p := pad(cfg.WordQ)
	if err := b.exec("CREATE TABLE base_qgrams (tid INT, token VARCHAR(64), qgram VARCHAR(16))"); err != nil {
		return nil, err
	}
	err = b.exec(`
		INSERT INTO base_qgrams (tid, token, qgram)
		SELECT T.tid, T.token,
		       SUBSTRING(CONCAT(?, UPPER(T.token), ?), N.i, ?) AS qgram
		FROM integers N INNER JOIN base_words T ON N.i <= LENGTH(T.token) + ?
		GROUP BY T.tid, T.token, qgram`,
		sqldb.String(p), sqldb.String(p), sqldb.Int(int64(cfg.WordQ)), sqldb.Int(int64(cfg.WordQ-1)))
	if err != nil {
		return nil, err
	}
	b.tokDur += time.Since(t0)
	t0 = time.Now()
	if err := b.exec("CREATE TABLE fids (fid INT)"); err != nil {
		return nil, err
	}
	fidRows := make([][]sqldb.Value, cfg.MinHashSize())
	for i := range fidRows {
		fidRows[i] = []sqldb.Value{sqldb.Int(int64(i))}
	}
	if err := b.db.BulkInsert("fids", fidRows); err != nil {
		return nil, err
	}
	stmts := []string{
		"CREATE TABLE base_mh (tid INT, token VARCHAR(64), fid INT, value BIGINT)",
		`INSERT INTO base_mh (tid, token, fid, value)
		 SELECT Q.tid, Q.token, F.fid, MIN(MHASH(F.fid, Q.qgram))
		 FROM base_qgrams Q, fids F
		 GROUP BY Q.tid, Q.token, F.fid`,
		"CREATE INDEX bmh_value ON base_mh (value)",
		"CREATE TABLE query_qgrams (token VARCHAR(64), qgram VARCHAR(16))",
		"CREATE TABLE query_mh (token VARCHAR(64), fid INT, value BIGINT)",
		"CREATE TABLE mh_sim (tid INT, token2 VARCHAR(64), sim DOUBLE)",
	}
	for _, s := range stmts {
		if err := b.exec(s); err != nil {
			return nil, err
		}
	}
	if err := gesFilterTables(b); err != nil {
		return nil, err
	}
	idf, err := loadIDF(b.db)
	if err != nil {
		return nil, err
	}
	registerGESScore(b.db, idf, cfg.GESCins)
	b.wDur += time.Since(t0)
	return b, nil
}

// selectGESapx estimates word similarities from signature agreement and
// verifies surviving candidates with exact GES.
func (b *base) selectGESapx(query string) ([]core.Match, error) {
	if err := b.setQueryWords(query); err != nil {
		return nil, err
	}
	q := b.cfg.WordQ
	padArg := sqldb.String(pad(q))
	steps := []struct {
		sql  string
		args []sqldb.Value
	}{
		{sql: "DELETE FROM query_qgrams"},
		{
			sql: `INSERT INTO query_qgrams (token, qgram)
			      SELECT T.token, SUBSTRING(CONCAT(?, UPPER(T.token), ?), N.i, ?) AS qgram
			      FROM integers N INNER JOIN query_words T ON N.i <= LENGTH(T.token) + ?
			      GROUP BY T.token, qgram`,
			args: []sqldb.Value{padArg, padArg, sqldb.Int(int64(q)), sqldb.Int(int64(q - 1))},
		},
		{sql: "DELETE FROM query_mh"},
		{sql: `INSERT INTO query_mh (token, fid, value)
		       SELECT Q.token, F.fid, MIN(MHASH(F.fid, Q.qgram))
		       FROM query_qgrams Q, fids F
		       GROUP BY Q.token, F.fid`},
		{sql: "DELETE FROM mh_sim"},
		{
			sql: `INSERT INTO mh_sim (tid, token2, sim)
			      SELECT B.tid, Q.token, COUNT(*) / ?
			      FROM base_mh B, query_mh Q
			      WHERE B.fid = Q.fid AND B.value = Q.value
			      GROUP BY B.tid, B.token, Q.token`,
			args: []sqldb.Value{sqldb.Float(float64(b.cfg.MinHashSize()))},
		},
		{sql: "DELETE FROM maxsim_t"},
		{sql: `INSERT INTO maxsim_t (tid, token2, maxsim)
		       SELECT M.tid, M.token2, MAX(M.sim) FROM mh_sim M GROUP BY M.tid, M.token2`},
	}
	for _, s := range steps {
		if err := b.exec(s.sql, s.args...); err != nil {
			return nil, err
		}
	}
	if err := b.refreshQueryIDF(); err != nil {
		return nil, err
	}
	return b.candidateScores(query, q, b.cfg.GESThreshold)
}

// prepSoftTFIDF builds the word tf-idf weight tables of SoftTFIDF (Appendix
// B.4.3) and registers the JAROWINKLER UDF that its CLOSE cross product
// calls.
func prepSoftTFIDF(records []core.Record, cfg core.Config) (*base, error) {
	b, err := wordPrep(records, cfg)
	if err != nil {
		return nil, err
	}
	b.db.RegisterFunc("JAROWINKLER", func(args []sqldb.Value) (sqldb.Value, error) {
		if len(args) != 2 {
			return sqldb.Null(), fmt.Errorf("JAROWINKLER takes 2 arguments")
		}
		if args[0].IsNull() || args[1].IsNull() {
			return sqldb.Null(), nil
		}
		return sqldb.Float(strutil.JaroWinkler(args[0].AsString(), args[1].AsString())), nil
	})
	t0 := time.Now()
	stmts := []string{
		"CREATE TABLE base_tf (tid INT, token VARCHAR(64), tf INT)",
		`INSERT INTO base_tf (tid, token, tf)
		 SELECT T.tid, T.token, COUNT(*) FROM base_words T GROUP BY T.tid, T.token`,
		"CREATE TABLE base_length (tid INT, len DOUBLE)",
		`INSERT INTO base_length (tid, len)
		 SELECT T.tid, SQRT(SUM(I.idf * I.idf * T.tf * T.tf))
		 FROM base_idf I, base_tf T WHERE I.token = T.token GROUP BY T.tid`,
		"CREATE TABLE base_weights (tid INT, token VARCHAR(64), weight DOUBLE)",
		`INSERT INTO base_weights (tid, token, weight)
		 SELECT T.tid, T.token, I.idf * T.tf / L.len
		 FROM base_idf I, base_tf T, base_length L
		 WHERE I.token = T.token AND T.tid = L.tid AND L.len > 0`,
		"CREATE TABLE query_tf (token VARCHAR(64), tf INT)",
		"CREATE TABLE query_weights (token VARCHAR(64), weight DOUBLE)",
		"CREATE TABLE close_sim (tid INT, token1 VARCHAR(64), token2 VARCHAR(64), sim DOUBLE)",
		"CREATE TABLE maxsim_t (tid INT, token2 VARCHAR(64), maxsim DOUBLE)",
		"CREATE TABLE maxtoken (tid INT, token1 VARCHAR(64), token2 VARCHAR(64), maxsim DOUBLE)",
	}
	for _, s := range stmts {
		if err := b.exec(s); err != nil {
			return nil, err
		}
	}
	b.wDur += time.Since(t0)
	return b, nil
}

// selectSoftTFIDF runs the Figure 4.7 pipeline: CLOSE via the UDF cross
// product, per-query-word maxima, argmax rows (MAXSIM/MAXTOKEN), then the
// weighted sum.
func (b *base) selectSoftTFIDF(query string) ([]core.Match, error) {
	if err := b.setQueryWords(query); err != nil {
		return nil, err
	}
	steps := []struct {
		sql  string
		args []sqldb.Value
	}{
		{sql: "DELETE FROM query_tf"},
		{sql: `INSERT INTO query_tf (token, tf)
		       SELECT T.token, COUNT(*) FROM query_words T GROUP BY T.token`},
		{sql: "DELETE FROM query_weights"},
		{sql: `INSERT INTO query_weights (token, weight)
		       SELECT T.token, I.idf * T.tf / QL.len
		       FROM query_tf T, base_idf I,
		            (SELECT SQRT(SUM(I2.idf * I2.idf * T2.tf * T2.tf)) AS len
		             FROM query_tf T2, base_idf I2 WHERE T2.token = I2.token) QL
		       WHERE T.token = I.token AND QL.len > 0`},
		{sql: "DELETE FROM close_sim"},
		{
			sql: `INSERT INTO close_sim (tid, token1, token2, sim)
			      SELECT R1.tid, R1.token, R2.token, JAROWINKLER(R1.token, R2.token)
			      FROM base_words R1, query_words R2
			      WHERE JAROWINKLER(R1.token, R2.token) >= ?`,
			args: []sqldb.Value{sqldb.Float(b.cfg.SoftTFIDFTheta)},
		},
		{sql: "DELETE FROM maxsim_t"},
		{sql: `INSERT INTO maxsim_t (tid, token2, maxsim)
		       SELECT C.tid, C.token2, MAX(C.sim) FROM close_sim C GROUP BY C.tid, C.token2`},
		{sql: "DELETE FROM maxtoken"},
		{sql: `INSERT INTO maxtoken (tid, token1, token2, maxsim)
		       SELECT CS.tid, CS.token1, CS.token2, MS.maxsim
		       FROM close_sim CS, maxsim_t MS
		       WHERE CS.tid = MS.tid AND CS.token2 = MS.token2 AND MS.maxsim = CS.sim`},
	}
	for _, s := range steps {
		if err := b.exec(s.sql, s.args...); err != nil {
			return nil, err
		}
	}
	rows, err := b.db.Query(`
		SELECT TM.tid, SUM(WQ.weight * WB.weight * TM.maxsim) AS score
		FROM maxtoken TM, query_weights WQ, base_weights WB
		WHERE TM.token2 = WQ.token AND TM.tid = WB.tid AND TM.token1 = WB.token
		GROUP BY TM.tid`)
	if err != nil {
		return nil, err
	}
	return matches(rows), nil
}
