package sqldb

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// mustExec fails the test on error.
func mustExec(t *testing.T, db *DB, sql string, args ...Value) int {
	t.Helper()
	n, err := db.Exec(sql, args...)
	if err != nil {
		t.Fatalf("Exec(%s): %v", sql, err)
	}
	return n
}

func mustQuery(t *testing.T, db *DB, sql string, args ...Value) *Rows {
	t.Helper()
	rows, err := db.Query(sql, args...)
	if err != nil {
		t.Fatalf("Query(%s): %v", sql, err)
	}
	return rows
}

func newTestDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	mustExec(t, db, "CREATE TABLE people (id INT, name VARCHAR(64), age INT, score DOUBLE)")
	mustExec(t, db, `INSERT INTO people (id, name, age, score) VALUES
		(1, 'alice', 30, 1.5),
		(2, 'bob', 25, 2.5),
		(3, 'carol', 35, 3.5),
		(4, 'dave', 25, 4.5)`)
	return db
}

func TestCreateInsertSelect(t *testing.T) {
	db := newTestDB(t)
	rows := mustQuery(t, db, "SELECT id, name FROM people ORDER BY id")
	if len(rows.Data) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows.Data))
	}
	if rows.Data[0][1].AsString() != "alice" {
		t.Errorf("first row name = %v", rows.Data[0][1])
	}
	if got := rows.Cols; !reflect.DeepEqual(got, []string{"id", "name"}) {
		t.Errorf("cols = %v", got)
	}
}

func TestCreateTableIfNotExists(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INT)")
	if _, err := db.Exec("CREATE TABLE t (a INT)"); err == nil {
		t.Fatal("duplicate CREATE TABLE should fail")
	}
	mustExec(t, db, "CREATE TABLE IF NOT EXISTS t (a INT)")
}

func TestDropTable(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "DROP TABLE t")
	if _, err := db.Exec("DROP TABLE t"); err == nil {
		t.Fatal("dropping a missing table should fail")
	}
	mustExec(t, db, "DROP TABLE IF EXISTS t")
}

func TestWhereComparisons(t *testing.T) {
	db := newTestDB(t)
	cases := []struct {
		where string
		want  int
	}{
		{"age = 25", 2},
		{"age <> 25", 2},
		{"age != 25", 2},
		{"age < 30", 2},
		{"age <= 30", 3},
		{"age > 30", 1},
		{"age >= 30", 2},
		{"name = 'bob'", 1},
		{"age = 25 AND score > 3", 1},
		{"age = 25 OR age = 35", 3},
		{"NOT age = 25", 2},
		{"age IN (25, 35)", 3},
		{"age NOT IN (25, 35)", 1},
		{"name IS NULL", 0},
		{"name IS NOT NULL", 4},
	}
	for _, c := range cases {
		rows := mustQuery(t, db, "SELECT id FROM people WHERE "+c.where)
		if len(rows.Data) != c.want {
			t.Errorf("WHERE %s: got %d rows, want %d", c.where, len(rows.Data), c.want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	db := New()
	cases := []struct {
		expr string
		want Value
	}{
		{"1 + 2", Int(3)},
		{"7 - 2 * 3", Int(1)},
		{"(7 - 2) * 3", Int(15)},
		{"7 / 2", Float(3.5)},
		{"7 % 4", Int(3)},
		{"-5 + 2", Int(-3)},
		{"1.5 + 1", Float(2.5)},
		{"2 * 2.5", Float(5)},
		{"1 / 0", Null()}, // MySQL: division by zero is NULL
	}
	for _, c := range cases {
		rows := mustQuery(t, db, "SELECT "+c.expr)
		got := rows.Data[0][0]
		if got != c.want {
			t.Errorf("SELECT %s = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestScalarFunctions(t *testing.T) {
	db := New()
	cases := []struct {
		expr string
		want float64
	}{
		{"LOG(EXP(1))", 1},
		{"LOG(2, 8)", 3},
		{"EXP(0)", 1},
		{"SQRT(16)", 4},
		{"ABS(-3)", 3},
		{"POWER(2, 10)", 1024},
		{"POW(3, 2)", 9},
		{"MOD(10, 3)", 1},
		{"ROUND(2.6)", 3},
		{"ROUND(2.345, 2)", 2.35},
		{"FLOOR(2.9)", 2},
		{"CEIL(2.1)", 3},
		{"LEAST(3, 1, 2)", 1},
		{"GREATEST(3, 1, 2)", 3},
		{"LENGTH('hello')", 5},
		{"CHAR_LENGTH('héllo')", 5},
		{"LOCATE('l', 'hello')", 3},
		{"LOCATE('l', 'hello', 4)", 4},
		{"LOCATE('z', 'hello')", 0},
		{"LOCATE('l', 'héllo')", 3}, // positions count characters, not bytes
		{"LOCATE('ö', 'héllö wörld', 6)", 8},
		{"LOCATE('l', 'héllö wörld', 5)", 10},
		{"LOCATE('', 'hé', 3)", 3},
		{"LOCATE('h', 'hé', 4)", 0},
		{"COALESCE(NULL, 7)", 7},
		{"IFNULL(NULL, 9)", 9},
		{"IF(1 < 2, 10, 20)", 10},
	}
	for _, c := range cases {
		rows := mustQuery(t, db, "SELECT "+c.expr)
		if got := rows.Data[0][0].AsFloat(); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("SELECT %s = %v, want %v", c.expr, got, c.want)
		}
	}
	strCases := []struct {
		expr, want string
	}{
		{"UPPER('abc')", "ABC"},
		{"LOWER('ABC')", "abc"},
		{"CONCAT('a', 'b', 'c')", "abc"},
		{"SUBSTRING('hello', 2, 3)", "ell"},
		{"SUBSTRING('hello', 2)", "ello"},
		{"SUBSTRING('hello', -3, 2)", "ll"},
		{"SUBSTRING('héllö wörld', 2, 4)", "éllö"},
		{"SUBSTRING('héllö', -2)", "lö"},
		{"SUBSTRING('héllö', 6)", ""},
		{"SUBSTRING('héllö', 5, 9)", "ö"},
		{"REPLACE('a b c', ' ', '$')", "a$b$c"},
		{"REVERSE('abc')", "cba"},
		{"TRIM('  x  ')", "x"},
	}
	for _, c := range strCases {
		rows := mustQuery(t, db, "SELECT "+c.expr)
		if got := rows.Data[0][0].AsString(); got != c.want {
			t.Errorf("SELECT %s = %q, want %q", c.expr, got, c.want)
		}
	}
}

func TestLogOfNonPositiveIsNull(t *testing.T) {
	db := New()
	for _, e := range []string{"LOG(0)", "LOG(-1)", "SQRT(-1)"} {
		rows := mustQuery(t, db, "SELECT "+e)
		if !rows.Data[0][0].IsNull() {
			t.Errorf("%s should be NULL, got %v", e, rows.Data[0][0])
		}
	}
}

func TestGroupByAggregates(t *testing.T) {
	db := newTestDB(t)
	rows := mustQuery(t, db, `
		SELECT age, COUNT(*) AS n, SUM(score) AS total, AVG(score) AS mean,
		       MIN(score) AS lo, MAX(score) AS hi
		FROM people GROUP BY age ORDER BY age`)
	if len(rows.Data) != 3 {
		t.Fatalf("got %d groups, want 3", len(rows.Data))
	}
	// age=25: bob(2.5), dave(4.5)
	first := rows.Data[0]
	if first[0].AsInt() != 25 || first[1].AsInt() != 2 {
		t.Errorf("group 25: %v", first)
	}
	if got := first[2].AsFloat(); got != 7.0 {
		t.Errorf("SUM = %v, want 7", got)
	}
	if got := first[3].AsFloat(); got != 3.5 {
		t.Errorf("AVG = %v, want 3.5", got)
	}
	if first[4].AsFloat() != 2.5 || first[5].AsFloat() != 4.5 {
		t.Errorf("MIN/MAX = %v/%v", first[4], first[5])
	}
}

func TestCountDistinct(t *testing.T) {
	db := newTestDB(t)
	rows := mustQuery(t, db, "SELECT COUNT(DISTINCT age) FROM people")
	if got := rows.Data[0][0].AsInt(); got != 3 {
		t.Errorf("COUNT(DISTINCT age) = %d, want 3", got)
	}
}

func TestAggregateOverEmptyTable(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE empty (x INT)")
	rows := mustQuery(t, db, "SELECT COUNT(*), SUM(x), AVG(x), MIN(x) FROM empty")
	if len(rows.Data) != 1 {
		t.Fatalf("aggregate over empty table should return one row, got %d", len(rows.Data))
	}
	if rows.Data[0][0].AsInt() != 0 {
		t.Errorf("COUNT(*) = %v, want 0", rows.Data[0][0])
	}
	for i := 1; i < 4; i++ {
		if !rows.Data[0][i].IsNull() {
			t.Errorf("aggregate %d over empty input should be NULL, got %v", i, rows.Data[0][i])
		}
	}
}

func TestGroupByEmptyInputNoRows(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE empty (x INT)")
	rows := mustQuery(t, db, "SELECT x, COUNT(*) FROM empty GROUP BY x")
	if len(rows.Data) != 0 {
		t.Fatalf("GROUP BY over empty table should return no rows, got %d", len(rows.Data))
	}
}

func TestHavingWithAlias(t *testing.T) {
	// The paper's filtering queries use HAVING score >= θ where score is a
	// select alias that does not collide with a source column.
	db := newTestDB(t)
	rows := mustQuery(t, db, `
		SELECT age, SUM(score) AS total FROM people
		GROUP BY age HAVING total >= 3.5 ORDER BY age`)
	if len(rows.Data) != 2 {
		t.Fatalf("got %d groups, want 2 (25→7.0, 35→3.5): %v", len(rows.Data), rows.Data)
	}
}

func TestHavingAliasCollidesWithColumn(t *testing.T) {
	// When an alias collides with a real column, the source column wins
	// (substitution only applies to otherwise-unresolvable names).
	db := newTestDB(t)
	rows := mustQuery(t, db, `
		SELECT age, SUM(score) AS score FROM people
		GROUP BY age HAVING score >= 3.5 ORDER BY age`)
	if len(rows.Data) != 1 || rows.Data[0][0].AsInt() != 35 {
		t.Fatalf("collision should resolve to source column: %v", rows.Data)
	}
}

func TestHavingFiltersGroups(t *testing.T) {
	db := newTestDB(t)
	rows := mustQuery(t, db, `
		SELECT age, COUNT(*) AS n FROM people GROUP BY age HAVING COUNT(*) > 1`)
	if len(rows.Data) != 1 || rows.Data[0][0].AsInt() != 25 {
		t.Fatalf("HAVING COUNT(*) > 1: %v", rows.Data)
	}
}

func TestOrderByDescAndLimit(t *testing.T) {
	db := newTestDB(t)
	rows := mustQuery(t, db, "SELECT id FROM people ORDER BY score DESC LIMIT 2")
	if len(rows.Data) != 2 || rows.Data[0][0].AsInt() != 4 || rows.Data[1][0].AsInt() != 3 {
		t.Fatalf("ORDER BY DESC LIMIT: %v", rows.Data)
	}
}

func TestOrderByPosition(t *testing.T) {
	db := newTestDB(t)
	rows := mustQuery(t, db, "SELECT name, age FROM people ORDER BY 2 DESC, 1")
	if rows.Data[0][0].AsString() != "carol" {
		t.Fatalf("ORDER BY position: %v", rows.Data)
	}
}

func TestSelectDistinct(t *testing.T) {
	db := newTestDB(t)
	rows := mustQuery(t, db, "SELECT DISTINCT age FROM people ORDER BY age")
	if len(rows.Data) != 3 {
		t.Fatalf("DISTINCT: got %d, want 3", len(rows.Data))
	}
}

func TestJoinCommaSyntax(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE pets (owner INT, pet VARCHAR(32))")
	mustExec(t, db, "INSERT INTO pets VALUES (1,'cat'), (1,'dog'), (3,'fish')")
	rows := mustQuery(t, db, `
		SELECT P.name, T.pet FROM people P, pets T
		WHERE P.id = T.owner ORDER BY P.name, T.pet`)
	want := [][]string{{"alice", "cat"}, {"alice", "dog"}, {"carol", "fish"}}
	if len(rows.Data) != 3 {
		t.Fatalf("join rows = %v", rows.Data)
	}
	for i, w := range want {
		if rows.Data[i][0].AsString() != w[0] || rows.Data[i][1].AsString() != w[1] {
			t.Errorf("row %d = %v, want %v", i, rows.Data[i], w)
		}
	}
}

func TestInnerJoinOnSyntax(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE pets (owner INT, pet VARCHAR(32))")
	mustExec(t, db, "INSERT INTO pets VALUES (1,'cat'), (3,'fish')")
	rows := mustQuery(t, db, `
		SELECT P.name, T.pet FROM people P INNER JOIN pets T ON P.id = T.owner
		ORDER BY P.name`)
	if len(rows.Data) != 2 || rows.Data[0][0].AsString() != "alice" {
		t.Fatalf("INNER JOIN: %v", rows.Data)
	}
}

func TestJoinWithIndex(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE pets (owner INT, pet VARCHAR(32))")
	mustExec(t, db, "INSERT INTO pets VALUES (1,'cat'), (1,'dog'), (3,'fish')")
	mustExec(t, db, "CREATE INDEX pets_owner ON pets (owner)")
	rows := mustQuery(t, db, `
		SELECT P.name, T.pet FROM people P, pets T
		WHERE P.id = T.owner ORDER BY P.name, T.pet`)
	if len(rows.Data) != 3 {
		t.Fatalf("indexed join rows = %v", rows.Data)
	}
}

func TestThreeWayJoin(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE a (x INT)")
	mustExec(t, db, "CREATE TABLE b (x INT, y INT)")
	mustExec(t, db, "CREATE TABLE c (y INT, z VARCHAR(8))")
	mustExec(t, db, "INSERT INTO a VALUES (1), (2)")
	mustExec(t, db, "INSERT INTO b VALUES (1, 10), (2, 20), (3, 30)")
	mustExec(t, db, "INSERT INTO c VALUES (10, 'ten'), (20, 'twenty')")
	rows := mustQuery(t, db, `
		SELECT a.x, c.z FROM a, b, c WHERE a.x = b.x AND b.y = c.y ORDER BY a.x`)
	if len(rows.Data) != 2 || rows.Data[1][1].AsString() != "twenty" {
		t.Fatalf("three-way join: %v", rows.Data)
	}
}

func TestCrossJoinNoCondition(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE a (x INT)")
	mustExec(t, db, "CREATE TABLE b (y INT)")
	mustExec(t, db, "INSERT INTO a VALUES (1), (2)")
	mustExec(t, db, "INSERT INTO b VALUES (10), (20), (30)")
	rows := mustQuery(t, db, "SELECT x, y FROM a, b")
	if len(rows.Data) != 6 {
		t.Fatalf("cross join: got %d rows, want 6", len(rows.Data))
	}
}

func TestSelfJoinWithAliases(t *testing.T) {
	db := newTestDB(t)
	rows := mustQuery(t, db, `
		SELECT P1.name, P2.name FROM people P1, people P2
		WHERE P1.age = P2.age AND P1.id < P2.id`)
	if len(rows.Data) != 1 || rows.Data[0][0].AsString() != "bob" {
		t.Fatalf("self join: %v", rows.Data)
	}
}

func TestSubqueryInFrom(t *testing.T) {
	db := newTestDB(t)
	rows := mustQuery(t, db, `
		SELECT S.n FROM (SELECT COUNT(*) AS n FROM people) S`)
	if rows.Data[0][0].AsInt() != 4 {
		t.Fatalf("subquery in FROM: %v", rows.Data)
	}
}

func TestNestedSubqueries(t *testing.T) {
	db := newTestDB(t)
	rows := mustQuery(t, db, `
		SELECT T.age, T.n FROM (
			SELECT S.age AS age, COUNT(*) AS n
			FROM (SELECT age FROM people WHERE age < 35) S
			GROUP BY S.age
		) T ORDER BY T.age`)
	if len(rows.Data) != 2 || rows.Data[0][1].AsInt() != 2 {
		t.Fatalf("nested subqueries: %v", rows.Data)
	}
}

func TestInSubquery(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE vip (id INT)")
	mustExec(t, db, "INSERT INTO vip VALUES (1), (3)")
	rows := mustQuery(t, db, "SELECT name FROM people WHERE id IN (SELECT id FROM vip) ORDER BY name")
	if len(rows.Data) != 2 || rows.Data[0][0].AsString() != "alice" {
		t.Fatalf("IN subquery: %v", rows.Data)
	}
	rows = mustQuery(t, db, "SELECT name FROM people WHERE id NOT IN (SELECT id FROM vip) ORDER BY name")
	if len(rows.Data) != 2 || rows.Data[0][0].AsString() != "bob" {
		t.Fatalf("NOT IN subquery: %v", rows.Data)
	}
}

func TestUnionAll(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE a (x INT)")
	mustExec(t, db, "INSERT INTO a VALUES (1), (2)")
	rows := mustQuery(t, db, "SELECT x FROM a UNION ALL SELECT x + 10 FROM a UNION ALL SELECT 99")
	if len(rows.Data) != 5 {
		t.Fatalf("UNION ALL: got %d rows, want 5", len(rows.Data))
	}
}

func TestInsertSelect(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE adults (id INT, name VARCHAR(64))")
	n := mustExec(t, db, "INSERT INTO adults (id, name) SELECT id, name FROM people WHERE age >= 30")
	if n != 2 {
		t.Fatalf("INSERT SELECT affected %d, want 2", n)
	}
	rows := mustQuery(t, db, "SELECT COUNT(*) FROM adults")
	if rows.Data[0][0].AsInt() != 2 {
		t.Fatalf("adults count: %v", rows.Data)
	}
}

func TestInsertSelectSameTable(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (x INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2)")
	mustExec(t, db, "INSERT INTO t SELECT x + 10 FROM t")
	rows := mustQuery(t, db, "SELECT COUNT(*) FROM t")
	if rows.Data[0][0].AsInt() != 4 {
		t.Fatalf("self insert-select: %v", rows.Data)
	}
}

func TestDelete(t *testing.T) {
	db := newTestDB(t)
	n := mustExec(t, db, "DELETE FROM people WHERE age = 25")
	if n != 2 {
		t.Fatalf("DELETE affected %d, want 2", n)
	}
	rows := mustQuery(t, db, "SELECT COUNT(*) FROM people")
	if rows.Data[0][0].AsInt() != 2 {
		t.Fatalf("after delete: %v", rows.Data)
	}
	n = mustExec(t, db, "DELETE FROM people")
	if n != 2 {
		t.Fatalf("DELETE all affected %d, want 2", n)
	}
}

func TestDeleteMaintainsIndex(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE INDEX people_age ON people (age)")
	mustExec(t, db, "DELETE FROM people WHERE age = 25")
	// Index-backed join must not see deleted rows.
	mustExec(t, db, "CREATE TABLE probe (age INT)")
	mustExec(t, db, "INSERT INTO probe VALUES (25), (30)")
	rows := mustQuery(t, db, "SELECT P.name FROM probe R, people P WHERE R.age = P.age")
	if len(rows.Data) != 1 || rows.Data[0][0].AsString() != "alice" {
		t.Fatalf("index after delete: %v", rows.Data)
	}
}

func TestPlaceholders(t *testing.T) {
	db := newTestDB(t)
	rows := mustQuery(t, db, "SELECT name FROM people WHERE age = ? AND score > ?", Int(25), Float(3))
	if len(rows.Data) != 1 || rows.Data[0][0].AsString() != "dave" {
		t.Fatalf("placeholders: %v", rows.Data)
	}
	if _, err := db.Query("SELECT ? ", Int(1), Int(2)); err == nil {
		t.Fatal("extra arguments should error")
	}
	if _, err := db.Query("SELECT ? + ?", Int(1)); err == nil {
		t.Fatal("missing arguments should error")
	}
}

func TestStringEscapes(t *testing.T) {
	db := New()
	rows := mustQuery(t, db, "SELECT 'it''s', 'a\\'b'")
	if rows.Data[0][0].AsString() != "it's" || rows.Data[0][1].AsString() != "a'b" {
		t.Fatalf("escapes: %v", rows.Data)
	}
}

func TestComments(t *testing.T) {
	db := newTestDB(t)
	rows := mustQuery(t, db, `
		-- leading comment
		SELECT id /* block */ FROM people -- trailing
		WHERE id = 1`)
	if len(rows.Data) != 1 {
		t.Fatalf("comments: %v", rows.Data)
	}
}

func TestUDF(t *testing.T) {
	db := newTestDB(t)
	db.RegisterFunc("DOUBLEIT", func(args []Value) (Value, error) {
		if len(args) != 1 {
			return Null(), fmt.Errorf("DOUBLEIT takes 1 arg")
		}
		return Float(2 * args[0].AsFloat()), nil
	})
	rows := mustQuery(t, db, "SELECT DOUBLEIT(score) FROM people WHERE id = 1")
	if got := rows.Data[0][0].AsFloat(); got != 3.0 {
		t.Fatalf("UDF: %v", got)
	}
	if _, err := db.Query("SELECT NOSUCHFUNC(1)"); err == nil {
		t.Fatal("unknown function should error")
	}
}

func TestCaseExpression(t *testing.T) {
	db := newTestDB(t)
	rows := mustQuery(t, db, `
		SELECT name, CASE WHEN age < 30 THEN 'young' ELSE 'old' END AS bucket
		FROM people ORDER BY id`)
	if rows.Data[0][1].AsString() != "old" || rows.Data[1][1].AsString() != "young" {
		t.Fatalf("CASE: %v", rows.Data)
	}
}

func TestExecScript(t *testing.T) {
	db := New()
	_, err := db.ExecScript(`
		CREATE TABLE t (x INT);
		INSERT INTO t VALUES (1), (2);
		INSERT INTO t VALUES (3);
	`)
	if err != nil {
		t.Fatal(err)
	}
	rows := mustQuery(t, db, "SELECT COUNT(*) FROM t")
	if rows.Data[0][0].AsInt() != 3 {
		t.Fatalf("ExecScript: %v", rows.Data)
	}
}

func TestUnionAllMismatchedArity(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Query("SELECT id FROM people UNION ALL SELECT id, name FROM people"); err == nil {
		t.Fatal("mismatched UNION arity should error")
	}
}

func TestParseErrors(t *testing.T) {
	db := New()
	bad := []string{
		"",
		"SELEC 1",
		"SELECT FROM",
		"SELECT 1 FROM (SELECT 2)", // derived table without alias
		"CREATE TABLE t (x BLOB)",
		"SELECT 1 UNION SELECT 2", // only UNION ALL
		"INSERT INTO t",
		"SELECT * FROM t WHERE",
		"SELECT 'unterminated",
		"SELECT 1 2",
	}
	for _, sql := range bad {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("Exec(%q) should fail", sql)
		}
	}
}

func TestUnknownTableAndColumn(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Query("SELECT * FROM nosuch"); err == nil {
		t.Fatal("unknown table should error")
	}
	if _, err := db.Query("SELECT nosuch FROM people"); err == nil {
		t.Fatal("unknown column should error")
	}
	if _, err := db.Query("SELECT x.id FROM people"); err == nil {
		t.Fatal("unknown qualifier should error")
	}
}

func TestAmbiguousColumn(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Query("SELECT id FROM people P1, people P2 WHERE P1.id = P2.id"); err == nil {
		t.Fatal("ambiguous column should error")
	}
}

func TestStarQualified(t *testing.T) {
	db := newTestDB(t)
	rows := mustQuery(t, db, "SELECT P.* FROM people P WHERE P.id = 1")
	if len(rows.Cols) != 4 {
		t.Fatalf("qualified star: cols = %v", rows.Cols)
	}
}

func TestNullOrderingAscFirst(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (x INT, tag VARCHAR(4))")
	mustExec(t, db, "INSERT INTO t VALUES (2,'b'), (NULL,'n'), (1,'a')")
	rows := mustQuery(t, db, "SELECT tag FROM t ORDER BY x")
	got := []string{rows.Data[0][0].AsString(), rows.Data[1][0].AsString(), rows.Data[2][0].AsString()}
	if !reflect.DeepEqual(got, []string{"n", "a", "b"}) {
		t.Fatalf("NULL ordering: %v", got)
	}
}

func TestNullArithmeticPropagates(t *testing.T) {
	db := New()
	rows := mustQuery(t, db, "SELECT NULL + 1, CONCAT('a', NULL), UPPER(NULL)")
	for i := range rows.Data[0] {
		if !rows.Data[0][i].IsNull() {
			t.Errorf("expr %d should be NULL, got %v", i, rows.Data[0][i])
		}
	}
}

func TestAggregateInsideExpression(t *testing.T) {
	// The Jaccard SQL uses COUNT(*)/(S1.len+S2.len-COUNT(*)).
	db := New()
	mustExec(t, db, "CREATE TABLE t (g INT, v INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1,5), (1,5), (2,7)")
	rows := mustQuery(t, db, `
		SELECT g, COUNT(*)/(v + 2 - COUNT(*)) AS score FROM t GROUP BY g ORDER BY g`)
	if got := rows.Data[0][1].AsFloat(); math.Abs(got-2.0/5.0) > 1e-12 {
		t.Fatalf("agg inside expr: %v", got)
	}
	// An aggregate is one on either side of IN.
	for _, q := range []string{"SELECT COUNT(*) IN (3) FROM t", "SELECT 3 IN (COUNT(*)) FROM t"} {
		rows := mustQuery(t, db, q)
		if len(rows.Data) != 1 || rows.Data[0][0].AsInt() != 1 {
			t.Fatalf("%s: %v", q, rows.Data)
		}
	}
}

func TestBulkInsertAndTableAccessors(t *testing.T) {
	db := New()
	if err := db.CreateTable("bulk", []string{"tid", "token"}, []Kind{KindInt, KindString}); err != nil {
		t.Fatal(err)
	}
	err := db.BulkInsert("bulk", [][]Value{
		{Int(1), String("ab")},
		{Int(1), String("bc")},
	})
	if err != nil {
		t.Fatal(err)
	}
	tab := db.Table("bulk")
	if tab == nil || tab.NumRows() != 2 {
		t.Fatalf("bulk table: %+v", tab)
	}
	if !reflect.DeepEqual(tab.Columns(), []string{"tid", "token"}) {
		t.Fatalf("columns: %v", tab.Columns())
	}
	if err := db.BulkInsert("bulk", [][]Value{{Int(1)}}); err == nil {
		t.Fatal("short row should error")
	}
	if err := db.BulkInsert("nosuch", nil); err == nil {
		t.Fatal("unknown table should error")
	}
}

func TestCreateIndexOnErrors(t *testing.T) {
	db := newTestDB(t)
	if err := db.CreateIndexOn("nosuch", "x"); err == nil {
		t.Fatal("unknown table")
	}
	if err := db.CreateIndexOn("people", "nosuch"); err == nil {
		t.Fatal("unknown column")
	}
	if err := db.CreateIndexOn("people", "age"); err != nil {
		t.Fatal(err)
	}
	// Idempotent.
	if err := db.CreateIndexOn("people", "age"); err != nil {
		t.Fatal(err)
	}
}

// TestPaperQGramGenerationSQL runs the paper's Appendix A.1 q-gram
// generation statement almost verbatim (INTEGERS-table join) and checks the
// produced grams against the tokenize package's contract.
func TestPaperQGramGenerationSQL(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE integers (i INT)")
	for i := 1; i <= 64; i++ {
		mustExec(t, db, "INSERT INTO integers VALUES (?)", Int(int64(i)))
	}
	mustExec(t, db, "CREATE TABLE base_table (tid INT, string VARCHAR(255))")
	mustExec(t, db, "INSERT INTO base_table VALUES (1, 'db lab')")
	mustExec(t, db, "CREATE TABLE base_tokens (tid INT, token VARCHAR(8))")
	// q = 3: pad with q-1 = 2 '$'s.
	q := 3
	mustExec(t, db, `
		INSERT INTO base_tokens (tid, token)
		SELECT tid, SUBSTRING(CONCAT('$$', UPPER(REPLACE(string, ' ', '$$')), '$$'), integers.i, ?)
		FROM integers INNER JOIN base_table
		ON integers.i <= LENGTH(REPLACE(string, ' ', '$$')) + ?`, Int(int64(q)), Int(int64(q-1)))
	rows := mustQuery(t, db, "SELECT token FROM base_tokens ORDER BY token")
	want := []string{"$$D", "$$L", "$DB", "$LA", "AB$", "B$$", "B$$", "DB$", "LAB"}
	var got []string
	for _, r := range rows.Data {
		got = append(got, r[0].AsString())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SQL q-gram generation:\n got %v\nwant %v", got, want)
	}
}

// TestPaperIntersectQuery exercises the exact SQL shape of Figure 4.1.
func TestPaperIntersectQuery(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE base_tokens (tid INT, token VARCHAR(8))")
	mustExec(t, db, "CREATE TABLE query_tokens (token VARCHAR(8))")
	mustExec(t, db, "CREATE INDEX bt_token ON base_tokens (token)")
	mustExec(t, db, "INSERT INTO base_tokens VALUES (1,'ab'),(1,'bc'),(2,'ab'),(2,'xy'),(3,'zz')")
	mustExec(t, db, "INSERT INTO query_tokens VALUES ('ab'),('bc'),('qq')")
	rows := mustQuery(t, db, `
		SELECT R1.tid, COUNT(*) AS score
		FROM base_tokens R1, query_tokens R2
		WHERE R1.token = R2.token
		GROUP BY R1.tid
		ORDER BY score DESC, R1.tid`)
	if len(rows.Data) != 2 {
		t.Fatalf("intersect: %v", rows.Data)
	}
	if rows.Data[0][0].AsInt() != 1 || rows.Data[0][1].AsInt() != 2 {
		t.Fatalf("intersect first: %v", rows.Data[0])
	}
	if rows.Data[1][0].AsInt() != 2 || rows.Data[1][1].AsInt() != 1 {
		t.Fatalf("intersect second: %v", rows.Data[1])
	}
}

func TestStringsOfKeywordsAsIdentifiers(t *testing.T) {
	// 'score', 'token' etc. are not reserved; quoted identifiers work too.
	db := New()
	mustExec(t, db, "CREATE TABLE `select_like` (token VARCHAR(4))")
	mustExec(t, db, "INSERT INTO select_like VALUES ('x')")
	rows := mustQuery(t, db, "SELECT token FROM select_like")
	if len(rows.Data) != 1 {
		t.Fatalf("quoted ident: %v", rows.Data)
	}
}

func TestColumnIndexHelper(t *testing.T) {
	db := newTestDB(t)
	rows := mustQuery(t, db, "SELECT id, name AS who FROM people LIMIT 1")
	if rows.ColumnIndex("who") != 1 || rows.ColumnIndex("id") != 0 || rows.ColumnIndex("zzz") != -1 {
		t.Fatalf("ColumnIndex: %v", rows.Cols)
	}
}

func TestValueHelpers(t *testing.T) {
	if !Null().IsNull() || Int(1).IsNull() {
		t.Fatal("IsNull")
	}
	if Bool(true).AsInt() != 1 || Bool(false).AsInt() != 0 {
		t.Fatal("Bool")
	}
	if Int(3).AsFloat() != 3 || Float(2.5).AsInt() != 2 {
		t.Fatal("conversions")
	}
	if String("1.5").AsFloat() != 1.5 || String("7").AsInt() != 7 {
		t.Fatal("string numeric coercion")
	}
	if Int(42).AsString() != "42" {
		t.Fatal("AsString")
	}
	if !strings.Contains(Kind(99).String(), "Kind") {
		t.Fatal("Kind.String fallback")
	}
	if KindInt.String() != "INT" || KindNull.String() != "NULL" || KindFloat.String() != "DOUBLE" || KindString.String() != "VARCHAR" {
		t.Fatal("Kind.String")
	}
}

func TestCompareMixedTypes(t *testing.T) {
	if cmp, ok := Compare(Int(1), Float(1.0)); !ok || cmp != 0 {
		t.Fatal("1 = 1.0")
	}
	if cmp, ok := Compare(Int(2), Float(1.5)); !ok || cmp != 1 {
		t.Fatal("2 > 1.5")
	}
	if _, ok := Compare(Null(), Int(1)); ok {
		t.Fatal("NULL compare should be unknown")
	}
	if cmp, ok := Compare(String("a"), String("b")); !ok || cmp != -1 {
		t.Fatal("string compare")
	}
	// Numeric/string comparison coerces to numbers, as MySQL does.
	if cmp, ok := Compare(String("10"), Int(9)); !ok || cmp != 1 {
		t.Fatal("string/number compare")
	}
}

func TestQueryRejectsNonSelect(t *testing.T) {
	db := New()
	if _, err := db.Query("CREATE TABLE t (x INT)"); err == nil {
		t.Fatal("Query on DDL should error")
	}
}

func TestTableNames(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE b (x INT)")
	mustExec(t, db, "CREATE TABLE a (x INT)")
	if got := db.TableNames(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("TableNames: %v", got)
	}
}

// TestConcurrentQueriesProbeOneIndex runs index nested-loop joins and IN
// subqueries from several goroutines at once over one database: readers
// share a table's index and the string dictionary and must each get the
// sequential answer (run with -race).
func TestConcurrentQueriesProbeOneIndex(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE tokens (tid INT, token VARCHAR(8), w DOUBLE)")
	mustExec(t, db, "CREATE TABLE q (token VARCHAR(8))")
	var rows [][]Value
	for tid := 0; tid < 200; tid++ {
		for k := 0; k < 5; k++ {
			rows = append(rows, []Value{Int(int64(tid)), String(fmt.Sprintf("t%d", (tid+k*3)%40)), Float(float64(k) / 8)})
		}
	}
	if err := db.BulkInsert("tokens", rows); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE INDEX tok ON tokens (token)")
	mustExec(t, db, "CREATE INDEX tid ON tokens (tid)")
	mustExec(t, db, "INSERT INTO q VALUES ('t1'), ('t7'), ('t33'), ('none')")
	stmts := []string{
		"SELECT T.tid, SUM(T.w) FROM tokens T, q WHERE T.token = q.token GROUP BY T.tid",
		"SELECT A.tid, COUNT(*) FROM tokens A, (SELECT tid FROM tokens WHERE w > 0.3) B WHERE A.tid = B.tid GROUP BY A.tid",
		"SELECT COUNT(*) FROM tokens WHERE token IN (SELECT token FROM q)",
		// A computed probe key looks its string up in the dictionary.
		"SELECT q.token, COUNT(*) FROM q, tokens T WHERE T.token = LOWER(q.token) GROUP BY q.token",
	}
	want := make([]string, len(stmts))
	for i, s := range stmts {
		want[i] = fmt.Sprint(mustQuery(t, db, s).Data)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				i := (g + round) % len(stmts)
				got, err := db.Query(stmts[i])
				if err != nil {
					t.Error(err)
					return
				}
				if s := fmt.Sprint(got.Data); s != want[i] {
					t.Errorf("goroutine %d: %s gave %.80s…, sequentially %.80s…", g, stmts[i], s, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
