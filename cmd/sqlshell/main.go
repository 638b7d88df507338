// Command sqlshell is an interactive shell over the bundled SQL engine —
// the substrate the declarative predicates run on. It preloads a small
// company relation tokenized into 2-grams so the paper's scoring queries
// can be tried by hand:
//
//	$ go run ./cmd/sqlshell
//	sql> SELECT R1.tid, COUNT(*) AS score
//	     FROM base_tokens R1, query_tokens R2
//	     WHERE R1.token = R2.token GROUP BY R1.tid ORDER BY score DESC;
//
// Statements end with a semicolon; \q quits, \t lists tables.
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/datasets"
	"repro/internal/sqldb"
	"repro/internal/strutil"
	"repro/internal/tokenize"
)

func main() {
	if err := run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "sqlshell: %v\n", err)
		os.Exit(1)
	}
}

// run seeds a database and runs the shell over it: statements read from in,
// prompts and results written to out, until \q or the end of in.
func run(in io.Reader, out io.Writer) error {
	db := sqldb.New()
	if err := seed(db); err != nil {
		return err
	}
	db.RegisterFunc("EDITSIM", func(args []sqldb.Value) (sqldb.Value, error) {
		if len(args) != 2 || args[0].IsNull() || args[1].IsNull() {
			return sqldb.Null(), nil
		}
		return sqldb.Float(strutil.EditSimilarity(args[0].AsString(), args[1].AsString())), nil
	})
	db.RegisterFunc("JAROWINKLER", func(args []sqldb.Value) (sqldb.Value, error) {
		if len(args) != 2 || args[0].IsNull() || args[1].IsNull() {
			return sqldb.Null(), nil
		}
		return sqldb.Float(strutil.JaroWinkler(args[0].AsString(), args[1].AsString())), nil
	})

	fmt.Fprintln(out, "sqldb shell — tables: base_table, base_tokens, query_tokens; UDFs: EDITSIM, JAROWINKLER")
	fmt.Fprintln(out, "end statements with ';'; \\t lists tables; \\q quits")
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	prompt := "sql> "
	for {
		fmt.Fprint(out, prompt)
		if !scanner.Scan() {
			fmt.Fprintln(out)
			return scanner.Err()
		}
		line := scanner.Text()
		switch strings.TrimSpace(line) {
		case `\q`, "exit", "quit":
			return nil
		case `\t`:
			for _, t := range db.TableNames() {
				tab := db.Table(t)
				fmt.Fprintf(out, "  %-20s %6d rows  (%s)\n", t, tab.NumRows(), strings.Join(tab.Columns(), ", "))
			}
			continue
		}
		pending.WriteString(line)
		pending.WriteString("\n")
		if !strings.Contains(line, ";") {
			prompt = "  -> "
			continue
		}
		prompt = "sql> "
		sqlText := pending.String()
		pending.Reset()
		execute(db, out, sqlText)
	}
}

// execute runs one statement (a script, unless it is a SELECT) and prints
// its rows, its affected-row count or its error.
func execute(db *sqldb.DB, out io.Writer, sqlText string) {
	trimmed := strings.TrimSpace(sqlText)
	if strings.HasPrefix(strings.ToUpper(trimmed), "SELECT") {
		rows, err := db.Query(strings.TrimSuffix(trimmed, ";"))
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return
		}
		fmt.Fprintln(out, strings.Join(rows.Cols, " | "))
		limit := min(len(rows.Data), 50)
		for _, r := range rows.Data[:limit] {
			cells := make([]string, len(r))
			for i, v := range r {
				cells[i] = v.AsString()
			}
			fmt.Fprintln(out, strings.Join(cells, " | "))
		}
		if limit < len(rows.Data) {
			fmt.Fprintf(out, "... (%d rows total)\n", len(rows.Data))
		}
		return
	}
	n, err := db.ExecScript(sqlText)
	if err != nil {
		fmt.Fprintln(out, "error:", err)
		return
	}
	fmt.Fprintf(out, "ok (%d rows affected)\n", n)
}

// seed loads a small tokenized company relation so scoring SQL can be
// written immediately.
func seed(db *sqldb.DB) error {
	stmts := []string{
		"CREATE TABLE base_table (tid INT, string VARCHAR(255))",
		"CREATE TABLE base_tokens (tid INT, token VARCHAR(8))",
		"CREATE TABLE query_tokens (token VARCHAR(8))",
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			return err
		}
	}
	names := datasets.CompanyNames(50, 1)
	var rows, tokRows [][]sqldb.Value
	for i, name := range names {
		tid := int64(i + 1)
		rows = append(rows, []sqldb.Value{sqldb.Int(tid), sqldb.String(name)})
		for _, g := range tokenize.QGrams(name, 2) {
			tokRows = append(tokRows, []sqldb.Value{sqldb.Int(tid), sqldb.String(g)})
		}
	}
	if err := db.BulkInsert("base_table", rows); err != nil {
		return err
	}
	if err := db.BulkInsert("base_tokens", tokRows); err != nil {
		return err
	}
	if err := db.CreateIndexOn("base_tokens", "token"); err != nil {
		return err
	}
	// Pre-fill query_tokens with the grams of the first company so a
	// scoring query works out of the box.
	var qRows [][]sqldb.Value
	for _, g := range tokenize.QGrams(names[0], 2) {
		qRows = append(qRows, []sqldb.Value{sqldb.String(g)})
	}
	return db.BulkInsert("query_tokens", qRows)
}
