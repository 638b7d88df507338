package sqldb

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// TestExpressionEquiJoin checks hash joins on computed keys — the feature
// the Appendix A.2 word tokenizer depends on.
func TestExpressionEquiJoin(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE a (x INT)")
	mustExec(t, db, "CREATE TABLE b (y INT)")
	mustExec(t, db, "INSERT INTO a VALUES (1), (2), (3)")
	mustExec(t, db, "INSERT INTO b VALUES (2), (4), (6), (7)")
	rows := mustQuery(t, db, "SELECT a.x, b.y FROM a, b WHERE b.y = a.x * 2 ORDER BY a.x")
	if len(rows.Data) != 3 {
		t.Fatalf("expression join: %v", rows.Data)
	}
	for _, r := range rows.Data {
		if r[1].AsInt() != 2*r[0].AsInt() {
			t.Fatalf("join condition violated: %v", r)
		}
	}
}

// TestWordTokenizerSQLPlan runs the full Appendix A.2 statement shape on a
// multi-word relation and checks the planner handles the three-way join
// with LOCATE-computed keys.
func TestWordTokenizerSQLPlan(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE base_table (tid INT, string VARCHAR(64))")
	mustExec(t, db, "INSERT INTO base_table VALUES (1, 'a bb ccc dddd'), (2, 'solo')")
	mustExec(t, db, "CREATE TABLE integers (i INT)")
	for i := 1; i <= 20; i++ {
		mustExec(t, db, "INSERT INTO integers VALUES (?)", Int(int64(i)))
	}
	rows := mustQuery(t, db, `
		SELECT B.tid, SUBSTRING(B.string, N1.i + 1, N2.i - N1.i - 1) AS w
		FROM base_table B, integers N1, integers N2
		WHERE N1.i = LOCATE(' ', B.string, N1.i)
		  AND N2.i = LOCATE(' ', B.string, N1.i + 1)
		ORDER BY w`)
	var got []string
	for _, r := range rows.Data {
		got = append(got, r[1].AsString())
	}
	if !reflect.DeepEqual(got, []string{"bb", "ccc"}) {
		t.Fatalf("inner words: %v", got)
	}
}

// TestIndexJoinAndHashJoinAgree verifies the two join strategies produce
// identical results on random data.
func TestIndexJoinAndHashJoinAgree(t *testing.T) {
	build := func(indexed bool) *Rows {
		db := New()
		mustExec(t, db, "CREATE TABLE big (k INT, v INT)")
		mustExec(t, db, "CREATE TABLE small (k INT)")
		for i := 0; i < 200; i++ {
			mustExec(t, db, "INSERT INTO big VALUES (?, ?)", Int(int64(i%17)), Int(int64(i)))
		}
		for i := 0; i < 5; i++ {
			mustExec(t, db, "INSERT INTO small VALUES (?)", Int(int64(i*3)))
		}
		if indexed {
			mustExec(t, db, "CREATE INDEX big_k ON big (k)")
		}
		return mustQuery(t, db, `
			SELECT B.k, B.v FROM small S, big B WHERE S.k = B.k ORDER BY B.k, B.v`)
	}
	a, b := build(true), build(false)
	if !reflect.DeepEqual(a.Data, b.Data) {
		t.Fatalf("index join and hash join disagree:\n%v\n%v", a.Data, b.Data)
	}
}

// TestLargeIntJoinKeysNoCollision exercises the >2^53 join-key encoding the
// min-hash tables rely on.
func TestLargeIntJoinKeysNoCollision(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE a (v BIGINT)")
	mustExec(t, db, "CREATE TABLE b (v BIGINT)")
	// Two values that collide when squeezed through float64.
	v1 := int64(1) << 60
	v2 := v1 + 1
	mustExec(t, db, "INSERT INTO a VALUES (?)", Int(v1))
	mustExec(t, db, "INSERT INTO b VALUES (?), (?)", Int(v1), Int(v2))
	rows := mustQuery(t, db, "SELECT b.v FROM a, b WHERE a.v = b.v")
	if len(rows.Data) != 1 || rows.Data[0][0].AsInt() != v1 {
		t.Fatalf("large int join: %v", rows.Data)
	}
	// Same via an index.
	mustExec(t, db, "CREATE INDEX b_v ON b (v)")
	rows = mustQuery(t, db, "SELECT b.v FROM a, b WHERE a.v = b.v")
	if len(rows.Data) != 1 {
		t.Fatalf("large int index join: %v", rows.Data)
	}
}

// TestGroupByDistinctLargeInts checks COUNT(DISTINCT) over values beyond
// 2^53.
func TestGroupByDistinctLargeInts(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (v BIGINT)")
	v := int64(1) << 60
	mustExec(t, db, "INSERT INTO t VALUES (?), (?), (?)", Int(v), Int(v+1), Int(v))
	rows := mustQuery(t, db, "SELECT COUNT(DISTINCT v) FROM t")
	if rows.Data[0][0].AsInt() != 2 {
		t.Fatalf("distinct large ints: %v", rows.Data)
	}
}

// keyWordOf returns v's key component in k.
func keyWordOf(k *keyIndex, v Value) keyWord {
	w, _ := k.word(v, true)
	return w
}

func TestHashKeyConsistentWithCompare(t *testing.T) {
	// Equal values (per Compare) must have equal key words; distinct
	// numerics must not collide.
	k := &keyIndex{dict: newDict()}
	f := func(i int64, g float64) bool {
		iv, fv := Int(i), Float(g)
		cmp, ok := Compare(iv, fv)
		if !ok {
			return true
		}
		keysEqual := keyWordOf(k, iv) == keyWordOf(k, fv)
		if cmp == 0 && !keysEqual {
			return false
		}
		if cmp != 0 && keysEqual {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 5000}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestHashKeyIntFloatBoundary(t *testing.T) {
	cases := []struct {
		a, b  Value
		equal bool
	}{
		{Int(1), Float(1.0), true},
		{Int(0), Float(0), true},
		{Int(0), Float(math.Copysign(0, -1)), false},
		{Int(-7), Float(-7), true},
		{Int(1 << 60), Int(1<<60 + 1), false},
		{Int(1 << 60), Float(float64(int64(1) << 60)), true},
		{Int(math.MinInt64), Float(-(1 << 63)), true},
		// 2^63 is no int64: it keys by its bits, apart from every INT.
		{Int(math.MaxInt64), Float(1 << 63), false},
		{String("x"), String("x"), true},
		{String("x"), String("y"), false},
		{Null(), Null(), true},
	}
	k := &keyIndex{dict: newDict()}
	for _, c := range cases {
		if got := keyWordOf(k, c.a) == keyWordOf(k, c.b); got != c.equal {
			t.Errorf("key word of %v == key word of %v: got %v, want %v", c.a, c.b, got, c.equal)
		}
	}
}

// TestKeyWordsInjective encodes every one- and two-component key over a set
// of values — VARCHARs read from a column with their codes among them, and
// strings no table holds — and allows two keys the same words only when
// their components are numerically or textually equal.
func TestKeyWordsInjective(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (s VARCHAR(4))")
	mustExec(t, db, "INSERT INTO t VALUES ('a'), ('b'), (''), (NULL)")
	vals := []Value{
		Null(), Int(0), Int(1), Int(-1), Int(1 << 60), Int(1<<60 + 1),
		Float(0.5), Float(1.5), Float(-2.25), Float(math.Copysign(0, -1)),
		String(""), String("a"), String("ab"), String("b"), Int(42), Float(42),
	}
	col := &db.tables["t"].rel.cols[0]
	for i := int32(0); i < int32(db.tables["t"].rel.n); i++ {
		vals = append(vals, col.value(i)) // with their codes
	}
	same := func(a, b []Value) bool {
		for i := range a {
			if a[i].IsNull() != b[i].IsNull() {
				return false
			}
			if cmp, ok := Compare(a[i], b[i]); ok && cmp != 0 {
				return false
			}
		}
		return true
	}
	for _, arity := range []int{1, 2} {
		k := &keyIndex{dict: db.dict}
		enc := map[string][]Value{}
		var keys [][]Value
		for _, v := range vals {
			if arity == 1 {
				keys = append(keys, []Value{v})
				continue
			}
			for _, w := range vals {
				keys = append(keys, []Value{v, w})
			}
		}
		for _, key := range keys {
			buf := k.scratch(arity)
			for i, v := range key {
				k.put(buf, i, v)
			}
			words := fmt.Sprint(buf)
			if prev, ok := enc[words]; ok {
				if !same(prev, key) {
					t.Errorf("keys %v and %v have the same words %s", prev, key, words)
				}
				continue
			}
			enc[words] = key
		}
	}
}

func TestFilterPushdownBeforeJoin(t *testing.T) {
	// A single-relation filter combined with a join must not change results
	// relative to filtering after a cross product.
	db := New()
	mustExec(t, db, "CREATE TABLE l (x INT)")
	mustExec(t, db, "CREATE TABLE r (x INT, tag VARCHAR(4))")
	mustExec(t, db, "INSERT INTO l VALUES (1), (2), (3), (4)")
	mustExec(t, db, "INSERT INTO r VALUES (1,'a'), (2,'b'), (3,'c'), (4,'d')")
	rows := mustQuery(t, db, `
		SELECT r.tag FROM l, r WHERE l.x = r.x AND l.x > 2 ORDER BY r.tag`)
	var got []string
	for _, row := range rows.Data {
		got = append(got, row[0].AsString())
	}
	if !reflect.DeepEqual(got, []string{"c", "d"}) {
		t.Fatalf("pushdown: %v", got)
	}
}

func TestOrderByExpression(t *testing.T) {
	db := newTestDB(t)
	rows := mustQuery(t, db, "SELECT name FROM people ORDER BY age * -1, name")
	if rows.Data[0][0].AsString() != "carol" {
		t.Fatalf("order by expression: %v", rows.Data)
	}
}

func TestOrderByAliasSubstitution(t *testing.T) {
	db := newTestDB(t)
	rows := mustQuery(t, db, `
		SELECT age, COUNT(*) AS cnt FROM people GROUP BY age ORDER BY cnt DESC, age`)
	if rows.Data[0][0].AsInt() != 25 {
		t.Fatalf("order by alias: %v", rows.Data)
	}
}

func TestGroupByAliasSubstitution(t *testing.T) {
	// Appendix A.3 shape: GROUP BY references a select alias.
	db := New()
	mustExec(t, db, "CREATE TABLE t (s VARCHAR(8))")
	mustExec(t, db, "INSERT INTO t VALUES ('ab'), ('ab'), ('cd')")
	rows := mustQuery(t, db, `
		SELECT UPPER(s) AS u, COUNT(*) FROM t GROUP BY u ORDER BY u`)
	if len(rows.Data) != 2 || rows.Data[0][0].AsString() != "AB" || rows.Data[0][1].AsInt() != 2 {
		t.Fatalf("group by alias: %v", rows.Data)
	}
}

func TestUDFErrorPropagates(t *testing.T) {
	db := newTestDB(t)
	db.RegisterFunc("BOOM", func(args []Value) (Value, error) {
		return Null(), fmt.Errorf("boom")
	})
	if _, err := db.Query("SELECT BOOM(id) FROM people"); err == nil {
		t.Fatal("UDF error should propagate")
	}
	// Also inside WHERE during a join filter.
	if _, err := db.Query("SELECT P1.id FROM people P1, people P2 WHERE BOOM(P1.id) = P2.id"); err == nil {
		t.Fatal("UDF error in join should propagate")
	}
}

func TestArityErrors(t *testing.T) {
	db := New()
	for _, q := range []string{
		"SELECT LOG()",
		"SELECT SQRT(1, 2)",
		"SELECT SUBSTRING('a')",
		"SELECT MOD(1)",
	} {
		if _, err := db.Query(q); err == nil {
			t.Errorf("%s should fail arity check", q)
		}
	}
}

func TestLimitExpression(t *testing.T) {
	db := newTestDB(t)
	rows := mustQuery(t, db, "SELECT id FROM people ORDER BY id LIMIT 1 + 1")
	if len(rows.Data) != 2 {
		t.Fatalf("limit expression: %v", rows.Data)
	}
	rows = mustQuery(t, db, "SELECT id FROM people LIMIT 0")
	if len(rows.Data) != 0 {
		t.Fatalf("limit 0: %v", rows.Data)
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	db := New()
	rows := mustQuery(t, db, "SELECT 1 + 2 AS three, 'x'")
	if len(rows.Data) != 1 || rows.Data[0][0].AsInt() != 3 {
		t.Fatalf("select without from: %v", rows.Data)
	}
	if rows.Cols[0] != "three" {
		t.Fatalf("alias: %v", rows.Cols)
	}
}

func TestNullJoinKeysNeverMatch(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE a (x INT)")
	mustExec(t, db, "CREATE TABLE b (x INT)")
	mustExec(t, db, "INSERT INTO a VALUES (NULL), (1)")
	mustExec(t, db, "INSERT INTO b VALUES (NULL), (1)")
	rows := mustQuery(t, db, "SELECT a.x FROM a, b WHERE a.x = b.x")
	if len(rows.Data) != 1 || rows.Data[0][0].AsInt() != 1 {
		t.Fatalf("NULL join keys: %v", rows.Data)
	}
	// Index path.
	mustExec(t, db, "CREATE INDEX b_x ON b (x)")
	rows = mustQuery(t, db, "SELECT a.x FROM a, b WHERE a.x = b.x")
	if len(rows.Data) != 1 {
		t.Fatalf("NULL index join keys: %v", rows.Data)
	}
}

func TestSumOverflowToFloatMix(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (v DOUBLE)")
	mustExec(t, db, "INSERT INTO t VALUES (0.5), (1.5)")
	rows := mustQuery(t, db, "SELECT SUM(v), AVG(v) FROM t")
	if math.Abs(rows.Data[0][0].AsFloat()-2.0) > 1e-12 || math.Abs(rows.Data[0][1].AsFloat()-1.0) > 1e-12 {
		t.Fatalf("float aggregates: %v", rows.Data)
	}
}

func TestMinMaxStrings(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (s VARCHAR(4))")
	mustExec(t, db, "INSERT INTO t VALUES ('b'), ('a'), ('c')")
	rows := mustQuery(t, db, "SELECT MIN(s), MAX(s) FROM t")
	if rows.Data[0][0].AsString() != "a" || rows.Data[0][1].AsString() != "c" {
		t.Fatalf("string min/max: %v", rows.Data)
	}
}

func TestDeleteWithInSubquery(t *testing.T) {
	// The pruning SQL deletes by IN (subquery).
	db := New()
	mustExec(t, db, "CREATE TABLE toks (token VARCHAR(4))")
	mustExec(t, db, "CREATE TABLE bad (token VARCHAR(4))")
	mustExec(t, db, "INSERT INTO toks VALUES ('a'), ('b'), ('c'), ('b')")
	mustExec(t, db, "INSERT INTO bad VALUES ('b')")
	n := mustExec(t, db, "DELETE FROM toks WHERE token IN (SELECT token FROM bad)")
	if n != 2 {
		t.Fatalf("deleted %d, want 2", n)
	}
	rows := mustQuery(t, db, "SELECT COUNT(*) FROM toks")
	if rows.Data[0][0].AsInt() != 2 {
		t.Fatalf("remaining: %v", rows.Data)
	}
}

func TestCrossJoinOfThreeSmallTables(t *testing.T) {
	db := New()
	for _, name := range []string{"a", "b", "c"} {
		mustExec(t, db, fmt.Sprintf("CREATE TABLE %s (v INT)", name))
		mustExec(t, db, fmt.Sprintf("INSERT INTO %s VALUES (1), (2)", name))
	}
	rows := mustQuery(t, db, "SELECT a.v, b.v, c.v FROM a, b, c")
	if len(rows.Data) != 8 {
		t.Fatalf("3-way cross: %d rows", len(rows.Data))
	}
}

func TestGreatestLeastWithStrings(t *testing.T) {
	db := New()
	rows := mustQuery(t, db, "SELECT GREATEST('a', 'c', 'b'), LEAST(3, 1.5)")
	if rows.Data[0][0].AsString() != "c" || rows.Data[0][1].AsFloat() != 1.5 {
		t.Fatalf("greatest/least: %v", rows.Data)
	}
}

func TestLikeOperator(t *testing.T) {
	db := newTestDB(t)
	cases := []struct {
		where string
		want  int
	}{
		{"name LIKE 'a%'", 1},      // alice
		{"name LIKE '%o%'", 2},     // bob, carol
		{"name LIKE '_ob'", 1},     // bob
		{"name LIKE 'ALICE'", 1},   // case-insensitive
		{"name NOT LIKE '%a%'", 1}, // bob
		{"name LIKE '%'", 4},       // everything
		{"name LIKE ''", 0},        // nothing matches empty pattern
	}
	for _, c := range cases {
		rows := mustQuery(t, db, "SELECT id FROM people WHERE "+c.where)
		if len(rows.Data) != c.want {
			t.Errorf("WHERE %s: got %d rows, want %d", c.where, len(rows.Data), c.want)
		}
	}
}

func TestBetweenOperator(t *testing.T) {
	db := newTestDB(t)
	rows := mustQuery(t, db, "SELECT id FROM people WHERE age BETWEEN 25 AND 30 ORDER BY id")
	if len(rows.Data) != 3 {
		t.Fatalf("BETWEEN: %v", rows.Data)
	}
	rows = mustQuery(t, db, "SELECT id FROM people WHERE age NOT BETWEEN 25 AND 30")
	if len(rows.Data) != 1 || rows.Data[0][0].AsInt() != 3 {
		t.Fatalf("NOT BETWEEN: %v", rows.Data)
	}
	// BETWEEN binds tighter than logical AND.
	rows = mustQuery(t, db, "SELECT id FROM people WHERE age BETWEEN 25 AND 30 AND score > 2")
	if len(rows.Data) != 2 {
		t.Fatalf("BETWEEN + AND: %v", rows.Data)
	}
}

func TestLikeMatchUnit(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"hello", "h%o", true},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false},
		{"", "%", true},
		{"", "", true},
		{"abc", "%%c", true},
		{"abc", "a%b%c%", true},
		{"mississippi", "%iss%pi", true}, // the final "pi" satisfies the suffix
		{"mississippi", "%iss%pix", false},
		{"mississippi", "%iss%ppi", true},
	}
	for _, c := range cases {
		if got := likeMatch([]rune(c.s), []rune(c.pat)); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.pat, got, c.want)
		}
	}
}

func TestModAndNegativeRounding(t *testing.T) {
	db := New()
	rows := mustQuery(t, db, "SELECT MOD(-7, 3), FLOOR(-1.5), CEIL(-1.5), ABS(-2.5)")
	if rows.Data[0][0].AsInt() != -1 { // Go/MySQL: sign of dividend
		t.Fatalf("mod: %v", rows.Data[0][0])
	}
	if rows.Data[0][1].AsInt() != -2 || rows.Data[0][2].AsInt() != -1 {
		t.Fatalf("floor/ceil: %v", rows.Data)
	}
	if rows.Data[0][3].AsFloat() != 2.5 {
		t.Fatalf("abs: %v", rows.Data)
	}
}

// planOf plans the SELECT of a statement (a SELECT, or an INSERT ... SELECT)
// with its projection, so that the plan counts the projection's memo sites,
// and runs it into a discarding sink, so that hash stages have decided
// their build side. It returns the first UNION ALL arm's plan.
func planOf(t *testing.T, db *DB, sql string, args ...Value) *selectPlan {
	t.Helper()
	return queryOf(t, db, sql, args...).arms[0].plan
}

// queryOf plans and runs a statement's SELECT as planOf does, and returns
// every arm.
func queryOf(t *testing.T, db *DB, sql string, args ...Value) *query {
	t.Helper()
	st, err := parseSQL(sql, args)
	if err != nil {
		t.Fatalf("parse %s: %v", sql, err)
	}
	sel, ok := st.(*selectStmt)
	if ins, isInsert := st.(*insertStmt); isInsert {
		sel, ok = ins.Select, ins.Select != nil
	}
	if !ok {
		t.Fatalf("%s has no SELECT", sql)
	}
	q, err := db.planQuery(sel)
	if err != nil {
		t.Fatalf("plan %s: %v", sql, err)
	}
	if err := q.run(func([]*vec, []int32) {}); err != nil {
		t.Fatalf("run %s: %v", sql, err)
	}
	return q
}

// TestDeclarativeScoringPlans answers ROADMAP's question about the
// declarative realization: the scoring statements of internal/declarative
// (copied here; the package cannot be imported from this one) reach their
// base relation through the CREATE INDEX index on its token / q-gram
// column, starting from the query side.
func TestDeclarativeScoringPlans(t *testing.T) {
	db := New()
	for _, s := range []string{
		"CREATE TABLE base_tokensddl (tid INT, token VARCHAR(16), ddl INT)",
		"CREATE INDEX btd_token ON base_tokensddl (token)",
		"CREATE TABLE base_weights (tid INT, token VARCHAR(16), weight DOUBLE)",
		"CREATE INDEX bw_token ON base_weights (token)",
		"CREATE TABLE base_pm (tid INT, token VARCHAR(16), pm DOUBLE, cfcs DOUBLE)",
		"CREATE INDEX bpm_token ON base_pm (token)",
		"CREATE TABLE base_sumcompm (tid INT, sumcompm DOUBLE)",
		"CREATE INDEX bsc_tid ON base_sumcompm (tid)",
		"CREATE TABLE base_qgramstokensize (tid INT, token VARCHAR(64), qgram VARCHAR(16), size INT)",
		"CREATE INDEX bqts_qgram ON base_qgramstokensize (qgram)",
		"CREATE TABLE query_tokens (token VARCHAR(16))",
		"CREATE TABLE query_tokens_d (token VARCHAR(16))",
		"CREATE TABLE query_qgrams (token VARCHAR(64), qgram VARCHAR(16))",
		"CREATE TABLE query_qgramsize (token VARCHAR(64), size INT)",
		"CREATE TABLE jac_sim (tid INT, token2 VARCHAR(64), sim DOUBLE)",
		"INSERT INTO query_tokens VALUES ('ab'), ('bc'), ('ab')",
		"INSERT INTO query_tokens_d VALUES ('ab'), ('bc')",
		"INSERT INTO query_qgrams VALUES ('w', '$w'), ('w', 'w$'), ('v', '$v'), ('v', 'v$')",
		"INSERT INTO query_qgramsize VALUES ('w', 2), ('v', 2)",
	} {
		mustExec(t, db, s)
	}
	for tid := 1; tid <= 6; tid++ {
		for _, tok := range []string{"ab", "bc", "cd"} {
			id := Int(int64(tid))
			mustExec(t, db, "INSERT INTO base_tokensddl VALUES (?, ?, 3)", id, String(tok))
			mustExec(t, db, "INSERT INTO base_weights VALUES (?, ?, 0.5)", id, String(tok))
			mustExec(t, db, "INSERT INTO base_pm VALUES (?, ?, 0.25, 0.125)", id, String(tok))
			mustExec(t, db, "INSERT INTO base_qgramstokensize VALUES (?, 'w', ?, 2)", id, String("$"+tok[:1]))
		}
		mustExec(t, db, "INSERT INTO base_sumcompm VALUES (?, -1.5)", Int(int64(tid)))
	}

	cases := []struct {
		name, sql, want string
		args            []Value
	}{
		{"Jaccard", `
			SELECT S1.tid, COUNT(*) / (S1.ddl + S2.ddl - COUNT(*)) AS score
			FROM base_tokensddl S1, query_tokens_d R2,
			     (SELECT COUNT(*) AS ddl FROM query_tokens_d) S2
			WHERE S1.token = R2.token
			GROUP BY S1.tid, S1.ddl, S2.ddl`,
			"scan s2 → cross query_tokens_d → index-nlj base_tokensddl(token) ← r2.token", nil},
		{"BM25", `
			SELECT B.tid, SUM(B.weight * S.mtf) AS score
			FROM base_weights B,
			     (SELECT T.token, COUNT(*) * (? + 1) / (? + COUNT(*)) AS mtf
			      FROM query_tokens T GROUP BY T.token) S
			WHERE B.token = S.token
			GROUP BY B.tid`,
			"scan s → index-nlj base_weights(token) ← s.token", []Value{Float(8), Float(8)}},
		{"LM inner", `
			SELECT P1.tid AS tid,
			       SUM(LOG(P1.pm)) - SUM(LOG(1.0 - P1.pm)) - SUM(LOG(P1.cfcs)) AS score
			FROM base_pm P1, query_tokens T2
			WHERE P1.token = T2.token
			GROUP BY P1.tid`,
			"scan query_tokens → index-nlj base_pm(token) ← t2.token", nil},
		{"LM outer", `
			SELECT B1.tid, EXP(B1.score + B2.sumcompm) AS score
			FROM (SELECT P1.tid AS tid, SUM(LOG(P1.pm)) AS score
			      FROM base_pm P1, query_tokens T2
			      WHERE P1.token = T2.token
			      GROUP BY P1.tid) B1,
			     base_sumcompm B2
			WHERE B1.tid = B2.tid`,
			"scan b1 → index-nlj base_sumcompm(tid) ← b1.tid", nil},
		{"HMM", `
			SELECT W1.tid, EXP(SUM(LOG(W1.weight))) AS score
			FROM base_weights W1, query_tokens T2
			WHERE W1.token = T2.token
			GROUP BY W1.tid`,
			"scan query_tokens → index-nlj base_weights(token) ← t2.token", nil},
		{"GESJaccard jac_sim", `
			INSERT INTO jac_sim (tid, token2, sim)
			SELECT BS.tid, Q.token, COUNT(*) / (BS.size + QS.size - COUNT(*))
			FROM base_qgramstokensize BS, query_qgrams Q, query_qgramsize QS
			WHERE BS.qgram = Q.qgram AND Q.token = QS.token
			GROUP BY BS.tid, BS.token, Q.token, BS.size, QS.size`,
			"scan query_qgramsize → hash query_qgrams: q.token = qs.token [built on upstream]" +
				" → index-nlj base_qgramstokensize(qgram) ← q.qgram", nil},
	}
	for _, c := range cases {
		if got := planOf(t, db, c.sql, c.args...).String(); got != c.want {
			t.Errorf("%s plan:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}

// TestTokenizerJoinIsStreamedCross pins the Appendix A.1 tokenization
// statement: its only conjunct is an inequality, so the INTEGERS join is a
// cross stage, which checks the inequality before it binds a pair. The
// ON condition's B.string side runs once per base_table row, and the
// projection's, which reads only the rescanned base_table, is memoized: a
// counting stand-in for REPLACE runs once per base_table row at each of its
// two sites, not once per (integer, record) pair, and the tokens stay the
// same.
func TestTokenizerJoinIsStreamedCross(t *testing.T) {
	db := New()
	calls := 0
	db.RegisterFunc("COUNTED_REPLACE", func(args []Value) (Value, error) {
		calls++
		return builtinFuncs["REPLACE"].impl(args)
	})
	mustExec(t, db, "CREATE TABLE base_table (tid INT, string VARCHAR(64))")
	mustExec(t, db, "CREATE TABLE integers (i INT)")
	mustExec(t, db, "CREATE TABLE base_tokens (tid INT, token VARCHAR(16))")
	mustExec(t, db, "CREATE TABLE counted_tokens (tid INT, token VARCHAR(16))")
	mustExec(t, db, `INSERT INTO base_table VALUES (1, 'ab cd'), (2, 'x'), (3, 'yz'), (4, 'pqr'),
		(5, 'st'), (6, 'u v'), (7, 'w'), (8, 'mn'), (9, 'o')`)
	mustExec(t, db, "INSERT INTO integers VALUES (1), (2), (3), (4), (5), (6), (7), (8)")
	stmt := func(dst, replace string) string {
		return fmt.Sprintf(`
			INSERT INTO %s (tid, token)
			SELECT B.tid,
			       SUBSTRING(CONCAT(?, UPPER(%[2]s(B.string, ' ', ?)), ?), N.i, ?)
			FROM integers N INNER JOIN base_table B
			  ON N.i <= LENGTH(%[2]s(B.string, ' ', ?)) + ?`, dst, replace)
	}
	args := []Value{String("$"), String("$"), String("$"), Int(2), String("$"), Int(1)}
	p := planOf(t, db, stmt("base_tokens", "REPLACE"), args...)
	const plan = `scan integers → cross base_table [n.i <= (LENGTH(REPLACE(b.string, " ", "$")) + 1)] [memo 1]`
	if got := p.String(); got != plan {
		t.Fatalf("plan %s, want %s", got, plan)
	}
	if st := p.stages[1]; st.cmp == nil || len(st.filters) != 0 {
		t.Fatalf("the ON condition should be the cross stage's pre-bind comparison, not one of its %d filters", len(st.filters))
	}
	// 'ab cd' pads to '$AB$CD$': six 2-grams.
	mustExec(t, db, stmt("base_tokens", "REPLACE"), args...)
	rows := mustQuery(t, db, "SELECT COUNT(*) FROM base_tokens WHERE tid = 1")
	if rows.Data[0][0].AsInt() != 6 {
		t.Fatalf("q-grams of record 1: %v", rows.Data)
	}
	n := mustExec(t, db, stmt("counted_tokens", "COUNTED_REPLACE"), args...)
	if calls != 2*9 {
		t.Errorf("%d calls for 9 records at 2 sites: want one per record and site, not one per pair (8 × 9 at the ON condition alone)", calls)
	}
	want := mustQuery(t, db, "SELECT tid, token FROM base_tokens")
	if got := mustQuery(t, db, "SELECT tid, token FROM counted_tokens"); n != len(want.Data) || !reflect.DeepEqual(got.Data, want.Data) {
		t.Fatalf("memoized tokens differ:\n got %v\nwant %v", got.Data, want.Data)
	}
}

// TestIndexJoinedItemIsNotMemoized: in LM's SUM(LOG(P1.pm)) the function
// reads the index-joined last item, whose rows are not expected to repeat,
// so the site is not memoized and the function runs once per joined row,
// even when a repeated query token joins the same rows twice.
func TestIndexJoinedItemIsNotMemoized(t *testing.T) {
	db := New()
	calls := 0
	db.RegisterFunc("COUNTED_LOG", func(args []Value) (Value, error) {
		calls++
		return builtinFuncs["LOG"].impl(args)
	})
	mustExec(t, db, "CREATE TABLE base_pm (tid INT, token VARCHAR(8), pm DOUBLE)")
	mustExec(t, db, "CREATE TABLE query_tokens (token VARCHAR(8))")
	mustExec(t, db, "CREATE INDEX base_pm_token ON base_pm (token)")
	mustExec(t, db, "INSERT INTO base_pm VALUES (1, 'ab', 0.5), (1, 'cd', 0.25), (2, 'ab', 0.125), (3, 'ef', 0.5)")
	mustExec(t, db, "INSERT INTO query_tokens VALUES ('ab'), ('cd'), ('ab')")
	const stmt = `
		SELECT P1.tid, SUM(COUNTED_LOG(P1.pm)) AS score
		FROM base_pm P1, query_tokens T2
		WHERE P1.token = T2.token
		GROUP BY P1.tid`
	if got, want := planOf(t, db, stmt).String(), "scan query_tokens → index-nlj base_pm(token) ← t2.token"; got != want {
		t.Fatalf("plan %s, want %s", got, want)
	}
	calls = 0
	rows := mustQuery(t, db, stmt)
	if calls != 5 {
		t.Errorf("%d calls, want one per joined row (5)", calls)
	}
	if len(rows.Data) != 2 || rows.Data[0][1].AsFloat() != 2*math.Log(0.5)+math.Log(0.25) || rows.Data[1][1].AsFloat() != 2*math.Log(0.125) {
		t.Fatalf("scores %v", rows.Data)
	}
}

// TestMemoKeepsFailuresAndNulls: a memoized subexpression fails the
// statement with the error the function returned, caches no error, reaches
// a function only on the rows the unmemoized plan reaches, and hands a
// NULL it computed back as NULL.
func TestMemoKeepsFailuresAndNulls(t *testing.T) {
	db := New()
	boom := errors.New("boom")
	calls := 0
	db.RegisterFunc("FAILON", func(args []Value) (Value, error) {
		calls++
		switch args[0].AsInt() {
		case 3:
			return Null(), boom
		case 2:
			return Null(), nil
		}
		return args[0], nil
	})
	mustExec(t, db, "CREATE TABLE a (k INT)")
	mustExec(t, db, "CREATE TABLE b (k INT)")
	mustExec(t, db, "CREATE TABLE dst (k INT, v INT)")
	mustExec(t, db, "CREATE INDEX dst_v ON dst (v)")
	mustExec(t, db, "INSERT INTO a VALUES (1), (2)")
	mustExec(t, db, "INSERT INTO b VALUES (1), (2), (3), (4)")
	mustExec(t, db, "INSERT INTO dst VALUES (0, 0)")

	const lazy = "SELECT a.k, FAILON(b.k) + 1 FROM a, b WHERE b.k <= a.k"
	if got, want := planOf(t, db, lazy).String(), "scan a → cross b [b.k <= a.k] [memo 1]"; got != want {
		t.Fatalf("plan %s, want %s", got, want)
	}
	const failing = "INSERT INTO dst SELECT a.k, FAILON(b.k) + 1 FROM a, b WHERE a.k <= b.k"
	for try := 0; try < 2; try++ { // a second run fails again: no memo outlives its statement
		if _, err := db.Exec(failing); !errors.Is(err, boom) {
			t.Fatalf("run %d: err %v, want %v", try, err, boom)
		}
		checkTables(t, db)
		if n := db.Table("dst").NumRows(); n != 1 {
			t.Fatalf("the failed insert left %d rows", n)
		}
	}

	// b.k = 3 never passes the filter, so FAILON never sees it; b.k = 1
	// passes for both rows of a and is computed once.
	calls = 0
	rows := mustQuery(t, db, lazy)
	if len(rows.Data) != 3 || calls != 2 {
		t.Fatalf("%d rows from %d calls, want 3 from 2: %v", len(rows.Data), calls, rows.Data)
	}

	// FAILON(2) is NULL, computed once and read back as NULL for each a.
	calls = 0
	rows = mustQuery(t, db, "SELECT a.k, b.k, FAILON(b.k) + 1 FROM a, b WHERE b.k <> 3")
	if len(rows.Data) != 6 || calls != 3 {
		t.Fatalf("%d rows from %d calls, want 6 from 3", len(rows.Data), calls)
	}
	for _, r := range rows.Data {
		if r[2].IsNull() != (r[1].AsInt() == 2) {
			t.Errorf("row %v: FAILON(%v) + 1 should be NULL exactly for b.k = 2", r, r[1])
		}
	}
}

// TestHashStageReportsBuildSide checks both outcomes of the build-on-the-
// smaller-input rule: a hash stage holds back at most as many upstream
// frames as its relation has rows before it decides.
func TestHashStageReportsBuildSide(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE few (k INT)")
	mustExec(t, db, "CREATE TABLE many (k INT)")
	mustExec(t, db, "CREATE TABLE most (k INT)")
	mustExec(t, db, "INSERT INTO few VALUES (1), (2)")
	mustExec(t, db, "INSERT INTO many VALUES (1), (1), (2), (3)")
	mustExec(t, db, "INSERT INTO most VALUES (1), (2), (2), (2), (3), (3)")

	p := planOf(t, db, "SELECT few.k FROM few, many WHERE few.k = many.k")
	if got, want := p.String(), "scan few → hash many: many.k = few.k [built on upstream]"; got != want {
		t.Errorf("plan %s, want %s", got, want)
	}
	// few ⋈ most yields four frames, as many as many has rows: many is not
	// the larger side, so the table goes on it once the fourth frame arrives.
	p = planOf(t, db, "SELECT few.k FROM many, most, few WHERE many.k = most.k AND few.k + 0 = most.k + 0")
	want := "scan few → hash most: (most.k + 0) = (few.k + 0) [built on upstream]" +
		" → hash many: many.k = most.k [built on many]"
	if got := p.String(); got != want {
		t.Errorf("plan %s, want %s", got, want)
	}
	if held := p.stages[2].hash.held; held != nil {
		t.Errorf("a probing hash stage keeps %d batches of held frames", len(held))
	}
}

// TestIdenticalAggregatesShareOneAccumulator: Jaccard's score expression
// names COUNT(*) twice; both references read one slot, fed once per row.
func TestIdenticalAggregatesShareOneAccumulator(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE s (tid INT, ddl INT, w DOUBLE)")
	mustExec(t, db, "INSERT INTO s VALUES (1, 4, 0.5), (1, 4, 1.5), (2, 3, 2.0)")
	st, err := parseSQL(`SELECT tid, COUNT(*) / (ddl + 2 - COUNT(*)), SUM(w) + SUM(w), SUM(w * 2), COUNT(w)
		FROM s GROUP BY tid, ddl ORDER BY tid`, nil)
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*selectStmt)
	p, err := db.planSelect(sel)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := db.compileProjection(sel, p)
	if err != nil {
		t.Fatal(err)
	}
	var calls []string
	for _, a := range pr.aggs {
		calls = append(calls, exprString(a.call))
	}
	if want := []string{"COUNT(*)", "SUM(w)", "SUM((w * 2))", "COUNT(w)"}; !reflect.DeepEqual(calls, want) {
		t.Fatalf("accumulators %v, want %v", calls, want)
	}
	rows := mustQuery(t, db, `SELECT tid, COUNT(*) / (ddl + 2 - COUNT(*)), SUM(w) + SUM(w)
		FROM s GROUP BY tid, ddl ORDER BY tid`)
	if rows.Data[0][1].AsFloat() != 2.0/4 || rows.Data[0][2].AsFloat() != 4 || rows.Data[1][1].AsFloat() != 1.0/4 {
		t.Fatalf("shared accumulators give %v", rows.Data)
	}
}

// TestScalarFuncArgsValidOnlyDuringCall registers a UDF that breaks the
// ScalarFunc contract by keeping its args slice: by the next call the
// engine has refilled the same buffer, which is what the contract warns of.
// A UDF that copies the value out sees every row.
func TestScalarFuncArgsValidOnlyDuringCall(t *testing.T) {
	db := newTestDB(t)
	var kept [][]Value
	var copied []Value
	db.RegisterFunc("KEEP", func(args []Value) (Value, error) {
		kept = append(kept, args)
		copied = append(copied, args[0])
		return args[0], nil
	})
	rows := mustQuery(t, db, "SELECT KEEP(name) FROM people")
	if len(rows.Data) != 4 || len(kept) != 4 {
		t.Fatalf("%d rows, %d calls", len(rows.Data), len(kept))
	}
	for i, name := range []string{"alice", "bob", "carol", "dave"} {
		if rows.Data[i][0].AsString() != name || copied[i].AsString() != name {
			t.Errorf("row %d: result %v, copied %v, want %s", i, rows.Data[i][0], copied[i], name)
		}
		if got := kept[i][0].AsString(); got != "dave" {
			t.Errorf("retained slice %d reads %q: one buffer per call site, so every retained slice reads the last row", i, got)
		}
	}
}
