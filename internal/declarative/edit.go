package declarative

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/sqldb"
	"repro/internal/strutil"
)

// prepEditDistance prepares the edit predicate (§4.4, following Gravano et
// al. [11]), whose q-gram count and length filters expressed in SQL generate
// a candidate set with no false negatives and whose edit-similarity UDF
// verifies exact scores — the same UDF-based design the paper uses. It
// tokenizes the base relation and stores the normalized strings plus gram
// counts used by the filters.
func prepEditDistance(records []core.Record, cfg core.Config) (*base, error) {
	b, err := multisetPrep(records, cfg)
	if err != nil {
		return nil, err
	}
	registerEditSim(b.db)
	t0 := time.Now()
	p := pad(cfg.Q)
	stmts := []struct {
		sql  string
		args []sqldb.Value
	}{
		{sql: "CREATE TABLE base_edit (tid INT, norm VARCHAR(255), len INT, grams INT)"},
		{
			// norm replaces spaces with the pad sequence and upper-cases,
			// exactly the string whose padded windows are base_tokens.
			sql: `INSERT INTO base_edit (tid, norm, len, grams)
			      SELECT tid, REPLACE(UPPER(string), ' ', ?),
			             LENGTH(REPLACE(UPPER(string), ' ', ?)),
			             LENGTH(REPLACE(UPPER(string), ' ', ?)) + ?
			      FROM base_table`,
			args: []sqldb.Value{
				sqldb.String(p), sqldb.String(p), sqldb.String(p),
				sqldb.Int(int64(cfg.Q - 1)),
			},
		},
		{sql: "CREATE TABLE query_edit (norm VARCHAR(255), len INT, grams INT)"},
		{sql: "CREATE INDEX bt_token ON base_tokens (token)"},
		{sql: "CREATE INDEX be_tid ON base_edit (tid)"},
	}
	for _, s := range stmts {
		if err := b.exec(s.sql, s.args...); err != nil {
			return nil, err
		}
	}
	b.wDur = time.Since(t0)
	return b, nil
}

// registerEditSim installs the edit-similarity UDF: 1 − lev(a,b)/max(|a|,|b|).
func registerEditSim(db *sqldb.DB) {
	db.RegisterFunc("EDITSIM", func(args []sqldb.Value) (sqldb.Value, error) {
		if len(args) != 2 {
			return sqldb.Null(), fmt.Errorf("EDITSIM takes 2 arguments")
		}
		if args[0].IsNull() || args[1].IsNull() {
			return sqldb.Null(), nil
		}
		return sqldb.Float(strutil.EditSimilarity(args[0].AsString(), args[1].AsString())), nil
	})
}

// selectEditDistance generates candidates with the SQL count/length filters
// (θ > 0) or scores the whole base relation (θ = 0), verifying with the UDF.
func (b *base) selectEditDistance(query string) ([]core.Match, error) {
	if err := b.setQuery(query, b.cfg.Q); err != nil {
		return nil, err
	}
	padArg := sqldb.String(pad(b.cfg.Q))
	steps := []struct {
		sql  string
		args []sqldb.Value
	}{
		{sql: "DELETE FROM query_edit"},
		{
			sql: `INSERT INTO query_edit (norm, len, grams)
			      SELECT REPLACE(UPPER(string), ' ', ?),
			             LENGTH(REPLACE(UPPER(string), ' ', ?)),
			             LENGTH(REPLACE(UPPER(string), ' ', ?)) + ?
			      FROM query_table`,
			args: []sqldb.Value{padArg, padArg, padArg, sqldb.Int(int64(b.cfg.Q - 1))},
		},
	}
	for _, s := range steps {
		if err := b.exec(s.sql, s.args...); err != nil {
			return nil, err
		}
	}

	if b.cfg.EditTheta <= 0 {
		rows, err := b.db.Query(`
			SELECT BE.tid, EDITSIM(QE.norm, BE.norm) AS score
			FROM base_edit BE, query_edit QE`)
		if err != nil {
			return nil, err
		}
		return matches(rows), nil
	}

	theta := sqldb.Float(b.cfg.EditTheta)
	q := sqldb.Int(int64(b.cfg.Q))
	rows, err := b.db.Query(`
		SELECT F.tid, EDITSIM(QE.norm, BE.norm) AS score
		FROM (SELECT R1.tid AS tid, COUNT(*) AS common
		      FROM base_tokens R1, query_tokens R2
		      WHERE R1.token = R2.token
		      GROUP BY R1.tid) F,
		     base_edit BE, query_edit QE
		WHERE BE.tid = F.tid
		  AND ABS(BE.len - QE.len) <= FLOOR((1.0 - ?) * GREATEST(BE.len, QE.len))
		  AND F.common >= GREATEST(BE.grams, QE.grams)
		                  - ? * FLOOR((1.0 - ?) * GREATEST(BE.len, QE.len))
		  AND EDITSIM(QE.norm, BE.norm) >= ?`,
		theta, q, theta, theta)
	if err != nil {
		return nil, err
	}
	return matches(rows), nil
}
