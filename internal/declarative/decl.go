// Package declarative implements every benchmark predicate as SQL executed
// by the sqldb engine, following the statements of the thesis appendices
// (A: data preparation, B: per-predicate preprocessing and query SQL). It is
// the paper's contribution — approximate selections realized purely with
// declarative statements plus the UDFs the paper itself assumes (edit
// similarity, Jaro–Winkler, min-hash values).
//
// Every predicate here is differentially tested against its in-memory twin
// in package native: scores must agree to floating-point re-association.
package declarative

import (
	"fmt"
	"strings"
	"time"
	"unicode"

	"repro/internal/core"
	"repro/internal/sqldb"
)

// base carries the machinery shared by all declarative predicates: the
// database holding the relations, the configuration, and preprocessing
// phase timings.
type base struct {
	db           *sqldb.DB
	cfg          core.Config
	tokDur, wDur time.Duration
}

// normalize collapses whitespace runs to single spaces, mirroring the
// tokenizer contract of the native implementations. The SQL of Appendix A
// assumes single-space-separated strings.
func normalize(s string) string {
	return strings.Join(strings.FieldsFunc(s, unicode.IsSpace), " ")
}

// pad returns the q-gram pad sequence of q−1 '$' characters.
func pad(q int) string {
	if q <= 1 {
		return ""
	}
	return strings.Repeat("$", q-1)
}

// newBase loads the base relation and the INTEGERS helper table used by the
// Appendix A tokenization statements.
func newBase(records []core.Record, cfg core.Config) (*base, error) {
	if cfg.Q < 1 || cfg.WordQ < 1 {
		return nil, fmt.Errorf("declarative: q-gram sizes must be ≥ 1")
	}
	db := sqldb.New()
	if _, err := db.Exec("CREATE TABLE base_table (tid INT, string VARCHAR(255))"); err != nil {
		return nil, err
	}
	maxLen := 0
	rows := make([][]sqldb.Value, 0, len(records))
	seen := make(map[int]bool, len(records))
	for _, r := range records {
		if seen[r.TID] {
			return nil, fmt.Errorf("declarative: duplicate TID %d", r.TID)
		}
		seen[r.TID] = true
		text := normalize(r.Text)
		if n := len([]rune(text)); n > maxLen {
			maxLen = n
		}
		rows = append(rows, []sqldb.Value{sqldb.Int(int64(r.TID)), sqldb.String(text)})
	}
	if err := db.BulkInsert("base_table", rows); err != nil {
		return nil, err
	}
	if _, err := db.Exec("CREATE TABLE integers (i INT)"); err != nil {
		return nil, err
	}
	// Enough positions to cover padded, space-expanded strings.
	limit := (maxLen+2)*max(cfg.Q, cfg.WordQ) + 4
	ints := make([][]sqldb.Value, 0, limit)
	for i := 1; i <= limit; i++ {
		ints = append(ints, []sqldb.Value{sqldb.Int(int64(i))})
	}
	if err := db.BulkInsert("integers", ints); err != nil {
		return nil, err
	}
	if _, err := db.Exec("CREATE TABLE query_table (string VARCHAR(255))"); err != nil {
		return nil, err
	}
	return &base{db: db, cfg: cfg}, nil
}

// exec runs a statement, failing loudly on error (used for preprocessing).
func (b *base) exec(sql string, args ...sqldb.Value) error {
	if _, err := b.db.Exec(sql, args...); err != nil {
		return fmt.Errorf("declarative: %w", err)
	}
	return nil
}

// qgramSQL tokenizes src(tid, string) into dst(tid, token) with the
// INTEGERS join of Appendix A.1.
func (b *base) qgramSQL(src, dst string, q int) error {
	p := pad(q)
	return b.exec(fmt.Sprintf(`
		INSERT INTO %s (tid, token)
		SELECT B.tid,
		       SUBSTRING(CONCAT(?, UPPER(REPLACE(B.string, ' ', ?)), ?), N.i, ?)
		FROM integers N INNER JOIN %s B
		  ON N.i <= LENGTH(REPLACE(B.string, ' ', ?)) + ?`, dst, src),
		sqldb.String(p), sqldb.String(p), sqldb.String(p), sqldb.Int(int64(q)),
		sqldb.String(p), sqldb.Int(int64(q-1)))
}

// wordSQL tokenizes src(tid, string) into dst(tid, token) word tokens with
// the LOCATE joins of Appendix A.2 (upper-cased, as the combination
// predicates compare words case-insensitively).
func (b *base) wordSQL(src, dst string) error {
	return b.exec(fmt.Sprintf(`
		INSERT INTO %[1]s (tid, token)
		SELECT tid, UPPER(SUBSTRING(string, 1, LOCATE(' ', string) - 1))
		FROM %[2]s WHERE LOCATE(' ', string) > 0
		UNION ALL
		SELECT B.tid, UPPER(SUBSTRING(B.string, N1.i + 1, N2.i - N1.i - 1))
		FROM %[2]s B, integers N1, integers N2
		WHERE N1.i = LOCATE(' ', B.string, N1.i)
		  AND N2.i = LOCATE(' ', B.string, N1.i + 1)
		UNION ALL
		SELECT tid, UPPER(SUBSTRING(string, LENGTH(string) - LOCATE(' ', REVERSE(string)) + 2))
		FROM %[2]s WHERE LOCATE(' ', string) > 0
		UNION ALL
		SELECT tid, UPPER(string)
		FROM %[2]s WHERE LOCATE(' ', string) = 0 AND LENGTH(string) > 0`, dst, src))
}

// setQuery replaces the query string tables: query_table holds the
// normalized query, query_tokens its q-gram multiset (tokenized in SQL with
// the same Appendix A.1 statement, tid-less).
func (b *base) setQuery(query string, q int) error {
	if err := b.exec("DELETE FROM query_table"); err != nil {
		return err
	}
	if err := b.exec("INSERT INTO query_table (string) VALUES (?)", sqldb.String(normalize(query))); err != nil {
		return err
	}
	if err := b.exec("DELETE FROM query_tokens"); err != nil {
		return err
	}
	p := pad(q)
	return b.exec(`
		INSERT INTO query_tokens (token)
		SELECT SUBSTRING(CONCAT(?, UPPER(REPLACE(B.string, ' ', ?)), ?), N.i, ?)
		FROM integers N INNER JOIN query_table B
		  ON N.i <= LENGTH(REPLACE(B.string, ' ', ?)) + ?`,
		sqldb.String(p), sqldb.String(p), sqldb.String(p), sqldb.Int(int64(q)),
		sqldb.String(p), sqldb.Int(int64(q-1)))
}

// setQueryWords replaces query_words with the word tokens of the query.
func (b *base) setQueryWords(query string) error {
	if err := b.exec("DELETE FROM query_table"); err != nil {
		return err
	}
	if err := b.exec("INSERT INTO query_table (string) VALUES (?)", sqldb.String(normalize(query))); err != nil {
		return err
	}
	if err := b.exec("DELETE FROM query_words"); err != nil {
		return err
	}
	// tid-less variant of wordSQL over the single-row query_table.
	return b.exec(`
		INSERT INTO query_words (token)
		SELECT UPPER(SUBSTRING(string, 1, LOCATE(' ', string) - 1))
		FROM query_table WHERE LOCATE(' ', string) > 0
		UNION ALL
		SELECT UPPER(SUBSTRING(B.string, N1.i + 1, N2.i - N1.i - 1))
		FROM query_table B, integers N1, integers N2
		WHERE N1.i = LOCATE(' ', B.string, N1.i)
		  AND N2.i = LOCATE(' ', B.string, N1.i + 1)
		UNION ALL
		SELECT UPPER(SUBSTRING(string, LENGTH(string) - LOCATE(' ', REVERSE(string)) + 2))
		FROM query_table WHERE LOCATE(' ', string) > 0
		UNION ALL
		SELECT UPPER(string)
		FROM query_table WHERE LOCATE(' ', string) = 0 AND LENGTH(string) > 0`)
}

// matches reads a (tid, score) result set into the Select contract.
// NULL scores (division by a zero denominator, as MySQL produces for
// degenerate weight sums) are dropped, matching the native realizations.
func matches(rows *sqldb.Rows) []core.Match {
	out := make([]core.Match, 0, len(rows.Data))
	for _, r := range rows.Data {
		if r[1].IsNull() {
			continue
		}
		out = append(out, core.Match{TID: int(r[0].AsInt()), Score: r[1].AsFloat()})
	}
	core.SortMatches(out)
	return out
}

// PreprocessPhases implements core.Phased.
func (b *base) PreprocessPhases() (time.Duration, time.Duration) {
	return b.tokDur, b.wDur
}

// pruneSQL applies §5.6 IDF pruning to a token table: tokens with
// idf < min + rate·(max − min) are deleted, entirely in SQL, before any
// weight table is derived.
func (b *base) pruneSQL(tokTable string, rate float64) error {
	if rate <= 0 {
		return nil
	}
	stmts := []string{
		"CREATE TABLE prune_idf (token VARCHAR(16), idf DOUBLE)",
		fmt.Sprintf(`INSERT INTO prune_idf (token, idf)
			SELECT T.token, LOG(SZ.n) - LOG(COUNT(DISTINCT T.tid))
			FROM %s T, (SELECT COUNT(*) AS n FROM base_table) SZ
			GROUP BY T.token, SZ.n`, tokTable),
		"CREATE TABLE prune_bounds (lo DOUBLE, hi DOUBLE)",
		"INSERT INTO prune_bounds (lo, hi) SELECT MIN(idf), MAX(idf) FROM prune_idf",
	}
	for _, s := range stmts {
		if err := b.exec(s); err != nil {
			return err
		}
	}
	err := b.exec(fmt.Sprintf(`DELETE FROM %s WHERE token IN (
			SELECT P.token FROM prune_idf P, prune_bounds B
			WHERE P.idf < B.lo + ? * (B.hi - B.lo))`, tokTable),
		sqldb.Float(rate))
	if err != nil {
		return err
	}
	if err := b.exec("DROP TABLE prune_idf"); err != nil {
		return err
	}
	return b.exec("DROP TABLE prune_bounds")
}

// predicate is every declarative predicate: the database its
// preprocessing statements built and the statements one selection runs.
type predicate struct {
	*base
	name string
	sel  func(*base, string) ([]core.Match, error)
}

// Name implements core.Predicate.
func (p *predicate) Name() string { return p.name }

// Select implements core.Predicate.
func (p *predicate) Select(query string) ([]core.Match, error) { return p.sel(p.base, query) }

// predicates is the build table: each benchmark predicate's preprocessing
// (Appendix A and B statements) and its selection statements.
var predicates = map[string]struct {
	prep func([]core.Record, core.Config) (*base, error)
	sel  func(*base, string) ([]core.Match, error)
}{
	"IntersectSize":   {overlapPrep, (*base).selectIntersectSize},
	"Jaccard":         {prepJaccard, (*base).selectJaccard},
	"WeightedMatch":   {weightedOverlapPrep, (*base).selectWeightedMatch},
	"WeightedJaccard": {prepWeightedJaccard, (*base).selectWeightedJaccard},
	"Cosine":          {prepCosine, (*base).selectCosine},
	"BM25":            {prepBM25, (*base).selectBM25},
	"LM":              {prepLM, (*base).selectLM},
	"HMM":             {prepHMM, (*base).selectHMM},
	"EditDistance":    {prepEditDistance, (*base).selectEditDistance},
	"GES":             {prepGES, (*base).selectGES},
	"GESJaccard":      {prepGESJaccard, (*base).selectGESJaccard},
	"GESapx":          {prepGESapx, (*base).selectGESapx},
	"SoftTFIDF":       {prepSoftTFIDF, (*base).selectSoftTFIDF},
}

// Build constructs the named declarative predicate. Names match
// core.PredicateNames.
func Build(name string, records []core.Record, cfg core.Config) (core.Predicate, error) {
	def, ok := predicates[name]
	if !ok {
		return nil, fmt.Errorf("declarative: unknown predicate %q", name)
	}
	b, err := def.prep(records, cfg)
	if err != nil {
		return nil, err
	}
	return &predicate{base: b, name: name, sel: def.sel}, nil
}

// Builders is the registration table of the declarative realization: one
// BuilderFunc per benchmark predicate, in terms of which the facade's
// registry resolves New with WithRealization(Declarative).
//
// Declarative predicates share mutable query tables inside their SQL
// database, so they deliberately do not implement core.ConcurrentProber:
// batch probing over them serializes onto a single worker.
func Builders() map[string]core.BuilderFunc {
	out := make(map[string]core.BuilderFunc, len(core.PredicateNames))
	for _, name := range core.PredicateNames {
		out[name] = func(records []core.Record, cfg core.Config) (core.Predicate, error) {
			return Build(name, records, cfg)
		}
	}
	return out
}
