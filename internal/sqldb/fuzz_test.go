package sqldb

import (
	"errors"
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// declarativeStatements returns every SQL text in internal/declarative: the
// string literals of its non-test sources that name a statement keyword.
// (The package imports this one, so its statements are read from source.)
func declarativeStatements(t testing.TB) []string {
	t.Helper()
	files, err := filepath.Glob("../declarative/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no sources of internal/declarative found: %v", err)
	}
	var out []string
	fset := gotoken.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := goparser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != gotoken.STRING {
				return true
			}
			s, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			for _, kw := range []string{"SELECT ", "INSERT ", "DELETE ", "CREATE ", "DROP "} {
				if strings.Contains(s, kw) {
					out = append(out, s)
					break
				}
			}
			return true
		})
	}
	return out
}

// FuzzParseSQL feeds the lexer and parser generated statements, seeded with
// every statement of the declarative realization: whatever the text, they
// return a statement or an error — no panic, no runaway recursion or
// allocation.
func FuzzParseSQL(f *testing.F) {
	seeds := declarativeStatements(f)
	if len(seeds) < 80 {
		f.Fatalf("only %d statements found in internal/declarative", len(seeds))
	}
	for _, s := range seeds {
		f.Add(s)
	}
	for _, s := range []string{
		"SELECT a.*, -b, NOT c, CASE WHEN x IS NOT NULL THEN 1 ELSE 'y' END FROM t a WHERE x BETWEEN 1 AND 2 OR y LIKE 'z%' ORDER BY 1 DESC LIMIT 3;",
		"SELECT DISTINCT x FROM (SELECT 1 AS x UNION ALL SELECT 2) d WHERE x NOT IN (1, 2) AND x IN (SELECT y FROM u)",
		"INSERT INTO t (a, b) VALUES (1, 'it''s'), (?, 2e-3); -- comment\n/* block */ DROP TABLE IF EXISTS t",
		"CREATE TABLE IF NOT EXISTS `t` (\"a\" BIGINT, b DOUBLE, c VARCHAR(8)); CREATE INDEX i ON t (a)",
		"((((((((((", "SELECT - - - - 1", "SELECT NOT NOT NOT 1", "'", "`", "1e", "SELECT f(", "SELECT CASE",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := lex(src)
		if err == nil && len(toks) > len(src)+1 {
			t.Fatalf("%d tokens from %d bytes", len(toks), len(src))
		}
		// Every '?' binds a NULL, so placeholder statements parse too.
		args := make([]Value, strings.Count(src, "?"))
		stmts, err := parseScript(src, args)
		if err == nil && len(stmts) > len(toks) {
			t.Fatalf("%d statements from %d tokens", len(stmts), len(toks))
		}
	})
}

// fuzzDB is the database FuzzExecSQL runs each script against: three small
// tables with NULLs in every column kind, an index, and a UDF that fails on
// 3, so INSERT ... SELECT can fail half-way.
func fuzzDB(t *testing.T) *DB {
	db := New()
	db.RegisterFunc("FAILON", func(args []Value) (Value, error) {
		if len(args) != 1 {
			return Null(), errors.New("FAILON takes one argument")
		}
		if args[0].AsInt() == 3 {
			return Null(), errors.New("boom")
		}
		return args[0], nil
	})
	for _, s := range []string{
		"CREATE TABLE a (k INT, s VARCHAR(8), f DOUBLE)",
		"CREATE TABLE b (k INT, t VARCHAR(8))",
		"CREATE TABLE c (x DOUBLE)",
		"CREATE INDEX b_k ON b (k)",
		"INSERT INTO a VALUES (1, 'x', 0.5), (2, NULL, 1.5), (NULL, 'y', NULL), (3, 'x', -0.0)",
		"INSERT INTO b VALUES (1, 'p'), (2, 'q'), (2, NULL), (NULL, 'r'), (3, 'p')",
		"INSERT INTO c VALUES (1.0), (2.5), (NULL)",
	} {
		mustExec(t, db, s)
	}
	return db
}

// fromItems counts the FROM items of every SELECT in st, subqueries and
// UNION ALL arms included: the exponent of the joined rows a statement can
// ask for.
func fromItems(st stmt) int {
	n := 0
	var sel func(*selectStmt)
	var ex func(expr)
	sel = func(s *selectStmt) {
		for ; s != nil; s = s.Union {
			n += len(s.From)
			for _, r := range s.From {
				if r.Sub != nil {
					sel(r.Sub)
				}
				ex(r.On)
			}
			for _, it := range s.Items {
				ex(it.Expr)
			}
			for _, e := range s.GroupBy {
				ex(e)
			}
			for _, o := range s.OrderBy {
				ex(o.Expr)
			}
			ex(s.Where)
			ex(s.Having)
			ex(s.Limit)
		}
	}
	ex = func(e expr) {
		switch x := e.(type) {
		case *unaryExpr:
			ex(x.X)
		case *binaryExpr:
			ex(x.L)
			ex(x.R)
		case *funcCall:
			for _, a := range x.Args {
				ex(a)
			}
		case *inExpr:
			if x.Sub != nil {
				sel(x.Sub)
			}
			ex(x.X)
			for _, a := range x.List {
				ex(a)
			}
		case *isNullExpr:
			ex(x.X)
		case *caseExpr:
			for _, w := range x.Whens {
				ex(w.Cond)
				ex(w.Then)
			}
			ex(x.Else)
		}
	}
	switch s := st.(type) {
	case *selectStmt:
		sel(s)
	case *insertStmt:
		sel(s.Select)
		for _, row := range s.Rows {
			for _, e := range row {
				ex(e)
			}
		}
	case *deleteStmt:
		ex(s.Where)
	}
	return n
}

// FuzzExecSQL executes generated scripts, statement by statement, against
// fuzzDB. Whatever a statement does — succeed, fail to plan, fail half-way —
// it must not panic, and afterwards every table must be consistent (see
// checkTables): columns of equal length and indexes equal to a rebuild.
// Scripts that could ask for more than a moment's work are skipped: more
// than eight statements or three FROM items in one, and tables past 32
// rows or 4 KiB of strings end the run.
func FuzzExecSQL(f *testing.F) {
	for _, s := range []string{
		"SELECT a.k, b.t FROM a, b WHERE a.k = b.k",
		"SELECT a.s, COUNT(*), SUM(f), MIN(s), MAX(b.t) FROM a, b WHERE a.k = b.k GROUP BY a.s HAVING COUNT(*) > 0 ORDER BY 2 DESC",
		"INSERT INTO b SELECT k + 1, s FROM a; DELETE FROM b WHERE k = 2; SELECT * FROM b WHERE k IN (SELECT k FROM a)",
		"INSERT INTO b SELECT FAILON(k), s FROM a",
		"INSERT INTO b (t) VALUES ('z'), (NULL); DELETE FROM b; INSERT INTO b SELECT * FROM b",
		"DELETE FROM a WHERE f IS NULL OR s = 'x'; INSERT INTO a (k) SELECT x FROM c",
		"CREATE INDEX a_s ON a (s); INSERT INTO a SELECT k, CONCAT(s, s), f * 2 FROM a WHERE k <> 1; SELECT * FROM a, b WHERE a.s = b.t",
		"DROP TABLE b; CREATE TABLE b (k DOUBLE, t INT); CREATE INDEX b_t ON b (t); INSERT INTO b VALUES (1.5, '7'), (NULL, 2.9)",
		"SELECT DISTINCT x FROM (SELECT k AS x FROM a UNION ALL SELECT x FROM c) d ORDER BY x LIMIT 2",
		"INSERT INTO c SELECT COUNT(*) FROM a WHERE k > 99; INSERT INTO c SELECT AVG(k) FROM b GROUP BY t",
		"SELECT c1.x, c2.x FROM c c1 INNER JOIN c c2 ON c1.x + 0 = c2.x + 0 AND c1.x <= c2.x",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmts, err := parseScript(src, make([]Value, strings.Count(src, "?")))
		if err != nil || len(stmts) > 8 {
			return
		}
		for _, st := range stmts {
			if fromItems(st) > 3 {
				return
			}
		}
		db := fuzzDB(t)
		for _, st := range stmts {
			db.mu.Lock()
			_, _ = db.execStmt(st) // an error is an outcome like any other
			db.mu.Unlock()
			checkTables(t, db)
			for _, tab := range db.tables {
				bytes := 0
				for i := range tab.rel.cols {
					for p := int32(0); p < int32(tab.rel.n); p++ {
						bytes += len(tab.rel.cols[i].value(p).S)
					}
				}
				if tab.rel.n > 32 || bytes > 4<<10 {
					return
				}
			}
		}
	})
}

// TestParserBoundsNesting: descent is recursive, so nesting is bounded and
// a pathological statement is a parse error, not a stack overflow (which Go
// cannot recover from). Found by reading the parser for FuzzParseSQL.
func TestParserBoundsNesting(t *testing.T) {
	const deep = 1 << 16
	for _, src := range []string{
		"SELECT " + strings.Repeat("(", deep) + "1" + strings.Repeat(")", deep),
		"SELECT " + strings.Repeat("NOT ", deep) + "1",
		"SELECT " + strings.Repeat("- ", deep) + "1",
		"SELECT " + strings.Repeat("f(", deep) + "1" + strings.Repeat(")", deep),
		"SELECT " + strings.Repeat("CASE WHEN ", deep) + "1",
		"SELECT 1 FROM " + strings.Repeat("(SELECT 1 FROM ", deep) + "t",
		"SELECT 1 WHERE 1 IN " + strings.Repeat("(SELECT 1 WHERE 1 IN ", deep) + "(1)",
	} {
		if _, err := parseScript(src, nil); err == nil || !strings.Contains(err.Error(), "nested more than") {
			t.Errorf("%.24s…: %v", src, err)
		}
	}
	// What the thesis' statements need stays far inside the bound.
	nested := "SELECT " + strings.Repeat("(", 100) + "1" + strings.Repeat(")", 100)
	if _, err := parseScript(nested, nil); err != nil {
		t.Errorf("100 parentheses: %v", err)
	}
}
