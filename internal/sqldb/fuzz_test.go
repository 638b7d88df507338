package sqldb

import (
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
