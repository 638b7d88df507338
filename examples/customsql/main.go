// Command customsql shows the extensibility story of the declarative
// framework: a *new* similarity predicate built purely from SQL on the
// exposed engine, exactly the way the paper's Chapter 4 realizes its
// predicates — and plugged into the facade through the predicate registry,
// so it is constructed with approxsel.New and probed through the same
// Select/TopK/SelectBatch machinery as the built-in thirteen.
//
// The predicate implemented here is Dice's coefficient
// (2|Q∩D| / (|Q|+|D|)), which the paper does not ship.
package main

import (
	"fmt"
	"log"
	"strings"
	"sync"

	approxsel "repro"
)

// dicePredicate realizes Dice's coefficient declaratively: the base
// relation is tokenized into padded q-grams with the Appendix A INTEGERS
// trick, and every Select scores candidates with one SQL statement. Select
// refills the shared query_tokens table, so mu holds one Select at a time:
// a Predicate must be safe for concurrent use.
type dicePredicate struct {
	db *approxsel.SQLDB
	q  int
	mu sync.Mutex
}

// newDice is the BuilderFunc registered under "Dice": it preprocesses the
// base relation into token tables on a fresh SQL engine.
func newDice(records []approxsel.Record, cfg approxsel.Config) (approxsel.Predicate, error) {
	db := approxsel.NewSQLDB()
	p := &dicePredicate{db: db, q: cfg.Q}

	exec := func(stmt string, args ...approxsel.SQLValue) error {
		_, err := db.Exec(stmt, args...)
		return err
	}

	// Schema + base relation, as in Appendix A.
	if err := exec("CREATE TABLE base_table (tid INT, string VARCHAR(255))"); err != nil {
		return nil, err
	}
	for _, r := range records {
		if err := exec("INSERT INTO base_table VALUES (?, ?)",
			approxsel.SQLInt(int64(r.TID)), approxsel.SQLString(r.Text)); err != nil {
			return nil, err
		}
	}

	// Tokenization in SQL with the INTEGERS trick: q-1 characters of '$'
	// padding on each side, so valid q-gram start positions run to
	// LENGTH + q - 1. The table covers the VARCHAR(255) schema bound, not
	// just the longest base string — Select tokenizes arbitrary queries
	// with it too.
	if err := exec("CREATE TABLE integers (i INT)"); err != nil {
		return nil, err
	}
	for i := 1; i <= 255+p.q; i++ {
		if err := exec("INSERT INTO integers VALUES (?)", approxsel.SQLInt(int64(i))); err != nil {
			return nil, err
		}
	}
	pad := strings.Repeat("$", p.q-1)
	for _, stmt := range []string{
		"CREATE TABLE base_tokens (tid INT, token VARCHAR(8))",
		fmt.Sprintf(`
			INSERT INTO base_tokens (tid, token)
			SELECT B.tid, SUBSTRING(CONCAT('%[1]s', UPPER(REPLACE(B.string, ' ', '$')), '%[1]s'), N.i, %[2]d)
			FROM integers N INNER JOIN base_table B
			  ON N.i <= LENGTH(REPLACE(B.string, ' ', '$')) + %[3]d`, pad, p.q, p.q-1),
		// Distinct tokens + per-record set sizes, then a token index.
		"CREATE TABLE base_distinct (tid INT, token VARCHAR(8))",
		"INSERT INTO base_distinct SELECT T.tid, T.token FROM base_tokens T GROUP BY T.tid, T.token",
		"CREATE TABLE base_card (tid INT, card INT)",
		"INSERT INTO base_card SELECT T.tid, COUNT(*) FROM base_distinct T GROUP BY T.tid",
		"CREATE INDEX bd_token ON base_distinct (token)",
		"CREATE TABLE query_tokens (token VARCHAR(8))",
	} {
		if err := exec(stmt); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Name implements approxsel.Predicate.
func (p *dicePredicate) Name() string { return "Dice" }

// Select implements approxsel.Predicate: the query string is tokenized into
// the QUERY_TOKENS table and candidates sharing a q-gram are scored and
// ranked by one declarative statement.
func (p *dicePredicate) Select(query string) ([]approxsel.Match, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, err := p.db.Exec("DELETE FROM query_tokens"); err != nil {
		return nil, err
	}
	pad := strings.Repeat("$", p.q-1)
	if _, err := p.db.Exec(fmt.Sprintf(`
		INSERT INTO query_tokens (token)
		SELECT SUBSTRING(CONCAT('%[1]s', UPPER(REPLACE(B.string, ' ', '$')), '%[1]s'), N.i, %[2]d) AS token
		FROM integers N INNER JOIN (SELECT ? AS string) B
		  ON N.i <= LENGTH(REPLACE(B.string, ' ', '$')) + %[3]d
		GROUP BY token`, pad, p.q, p.q-1), approxsel.SQLString(query)); err != nil {
		return nil, err
	}
	rows, err := p.db.Query(`
		SELECT D.tid, 2.0 * COUNT(*) / (C.card + QC.card) AS dice
		FROM base_distinct D, query_tokens Q, base_card C,
		     (SELECT COUNT(*) AS card FROM query_tokens) QC
		WHERE D.token = Q.token AND D.tid = C.tid
		GROUP BY D.tid, C.card, QC.card
		ORDER BY dice DESC, D.tid`)
	if err != nil {
		return nil, err
	}
	ms := make([]approxsel.Match, 0, len(rows.Data))
	for _, r := range rows.Data {
		ms = append(ms, approxsel.Match{TID: int(r[0].AsInt()), Score: r[1].AsFloat()})
	}
	return ms, nil
}

func main() {
	// Plug the predicate into the framework; from here on it behaves like
	// the built-in thirteen.
	if err := approxsel.Register("Dice", newDice); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered predicates: %s\n\n", strings.Join(approxsel.PredicateNames(), " "))

	companies := approxsel.CompanyNames(200, 5)
	records := make([]approxsel.Record, len(companies))
	for i, name := range companies {
		records[i] = approxsel.Record{TID: i + 1, Text: name}
	}
	p, err := approxsel.New("Dice", records)
	if err != nil {
		log.Fatal(err)
	}

	query := companies[17]
	fmt.Printf("query: %q\n\n", query)
	top, err := approxsel.TopK(p, query, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top 5 by Dice coefficient (user-defined declarative predicate):")
	for _, m := range top {
		fmt.Printf("  tid %-4d dice %.3f  %s\n", m.TID, m.Score, companies[m.TID-1])
	}
}
