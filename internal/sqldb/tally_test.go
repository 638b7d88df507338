package sqldb

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
)

const tallyPath = "testdata/stage_tally.txt"

// digest is a result's row count and a hash of its rows, in order, with
// every DOUBLE to ten significant digits: the last bits of LOG and EXP
// differ between build targets (GOARCH=386 runs this test too).
func digest(rows *Rows) string {
	h := fnv.New64a()
	for _, row := range rows.Data {
		for _, v := range row {
			if v.Kind == KindFloat {
				v = String(strconv.FormatFloat(v.F, 'g', 10, 64))
			}
			fmt.Fprint(h, v, " ")
		}
		fmt.Fprintln(h)
	}
	return fmt.Sprintf("%d rows %016x", len(rows.Data), h.Sum64())
}

// tallyRelation is the fixed relation of TestScoringStageTally: 1 200
// records of two to five words drawn from sixteen, seed 1, so that every
// scoring join below runs past several batches of rows.
func tallyRelation() [][]Value {
	rng := rand.New(rand.NewSource(1))
	vocab := make([]string, 16)
	for i := range vocab {
		w := make([]byte, 3+rng.Intn(4))
		for j := range w {
			w[j] = byte('a' + rng.Intn(8))
		}
		vocab[i] = string(w)
	}
	rows := make([][]Value, 1200)
	for i := range rows {
		words := make([]string, 2+rng.Intn(4))
		for j := range words {
			words[j] = vocab[rng.Intn(len(vocab))]
		}
		rows[i] = []Value{Int(int64(i + 1)), String(strings.Join(words, " "))}
	}
	return rows
}

// TestScoringStageTally runs the declarative realization's tokenizers and
// scoring statements (copied from internal/declarative, which cannot be
// imported here) over tallyRelation and pins, per statement and UNION ALL
// arm, the plan and its tally — rows out of each stage and memo hits — in
// testdata/stage_tally.txt. Any change of work shows as a diff; an
// intended one is re-pinned by deleting the file and running the test
// twice.
func TestScoringStageTally(t *testing.T) {
	db := New()
	// A pure stand-in for Jaro–Winkler: shared leading letters over the
	// longer length.
	db.RegisterFunc("JAROWINKLER", func(args []Value) (Value, error) {
		a, b := args[0].AsString(), args[1].AsString()
		n := 0
		for n < len(a) && n < len(b) && a[n] == b[n] {
			n++
		}
		return Float(float64(n) / float64(max(len(a), len(b)))), nil
	})
	for _, s := range []string{
		"CREATE TABLE base_table (tid INT, string VARCHAR(64))",
		"CREATE TABLE integers (i INT)",
		"CREATE TABLE query_table (string VARCHAR(64))",
		"CREATE TABLE base_tokens (tid INT, token VARCHAR(16))",
		"CREATE TABLE base_words (tid INT, token VARCHAR(64))",
		"CREATE TABLE query_tokens (token VARCHAR(16))",
		"CREATE TABLE query_tokens_d (token VARCHAR(16))",
		"CREATE TABLE query_words (token VARCHAR(64))",
		"CREATE TABLE base_tokensddl (tid INT, token VARCHAR(16), ddl INT)",
		"CREATE TABLE base_weights (tid INT, token VARCHAR(64), weight DOUBLE)",
		"CREATE TABLE base_pm (tid INT, token VARCHAR(16), pm DOUBLE, cfcs DOUBLE)",
		"CREATE TABLE base_sumcompm (tid INT, sumcompm DOUBLE)",
		"CREATE TABLE base_qgrams (tid INT, token VARCHAR(64), qgram VARCHAR(16))",
		"CREATE TABLE base_tokensize (tid INT, token VARCHAR(64), size INT)",
		"CREATE TABLE base_qgramstokensize (tid INT, token VARCHAR(64), qgram VARCHAR(16), size INT)",
		"CREATE TABLE query_qgrams (token VARCHAR(64), qgram VARCHAR(16))",
		"CREATE TABLE query_qgramsize (token VARCHAR(64), size INT)",
		"CREATE TABLE jac_sim (tid INT, token2 VARCHAR(64), sim DOUBLE)",
		"CREATE TABLE close_sim (tid INT, token1 VARCHAR(64), token2 VARCHAR(64), sim DOUBLE)",
	} {
		mustExec(t, db, s)
	}
	rel := tallyRelation()
	if err := db.BulkInsert("base_table", rel); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 64; i++ {
		mustExec(t, db, "INSERT INTO integers VALUES (?)", Int(int64(i)))
	}
	mustExec(t, db, "INSERT INTO query_table VALUES (?)", String(rel[6][1].S+" "+strings.Fields(rel[6][1].S)[0]))

	const qgrams = `
		INSERT INTO %s
		SELECT %s SUBSTRING(CONCAT(?, UPPER(REPLACE(B.string, ' ', ?)), ?), N.i, ?)
		FROM integers N INNER JOIN %s B
		  ON N.i <= LENGTH(REPLACE(B.string, ' ', ?)) + ?`
	qargs := []Value{String("$"), String("$"), String("$"), Int(2), String("$"), Int(1)}
	const words = `
		INSERT INTO %[1]s
		SELECT %[3]s UPPER(SUBSTRING(string, 1, LOCATE(' ', string) - 1))
		FROM %[2]s WHERE LOCATE(' ', string) > 0
		UNION ALL
		SELECT %[4]s UPPER(SUBSTRING(B.string, N1.i + 1, N2.i - N1.i - 1))
		FROM %[2]s B, integers N1, integers N2
		WHERE N1.i = LOCATE(' ', B.string, N1.i)
		  AND N2.i = LOCATE(' ', B.string, N1.i + 1)
		UNION ALL
		SELECT %[3]s UPPER(SUBSTRING(string, LENGTH(string) - LOCATE(' ', REVERSE(string)) + 2))
		FROM %[2]s WHERE LOCATE(' ', string) > 0
		UNION ALL
		SELECT %[3]s UPPER(string)
		FROM %[2]s WHERE LOCATE(' ', string) = 0 AND LENGTH(string) > 0`
	const wordQgrams = `
		INSERT INTO %s
		SELECT %s SUBSTRING(CONCAT(?, UPPER(T.token), ?), N.i, ?) AS qgram
		FROM integers N INNER JOIN %s T ON N.i <= LENGTH(T.token) + ?
		GROUP BY %s qgram`
	wargs := []Value{String("$"), String("$"), Int(2), Int(1)}
	steps := []struct {
		name, sql string
		args      []Value
	}{
		{"A.1 base q-grams", fmt.Sprintf(qgrams, "base_tokens", "B.tid,", "base_table"), qargs},
		{"A.1 query q-grams", fmt.Sprintf(qgrams, "query_tokens", "", "query_table"), qargs},
		{"query q-grams distinct", "INSERT INTO query_tokens_d SELECT DISTINCT token FROM query_tokens", nil},
		{"A.2 base words", fmt.Sprintf(words, "base_words", "base_table", "tid,", "B.tid,"), nil},
		{"A.2 query words", fmt.Sprintf(words, "query_words", "query_table", "", ""), nil},
		{"ddl", `INSERT INTO base_tokensddl
			SELECT T.tid, T.token, D.ddl
			FROM base_tokens T, (SELECT tid, COUNT(DISTINCT token) AS ddl FROM base_tokens GROUP BY tid) D
			WHERE T.tid = D.tid`, nil},
		{"weights", `INSERT INTO base_weights
			SELECT T.tid, T.token, COUNT(*) * 0.5 FROM base_words T GROUP BY T.tid, T.token`, nil},
		{"pm", `INSERT INTO base_pm
			SELECT T.tid, T.token, 1.0 / (2 + COUNT(*)), 0.125 FROM base_tokens T GROUP BY T.tid, T.token`, nil},
		{"sumcompm", `INSERT INTO base_sumcompm
			SELECT P.tid, SUM(LOG(1.0 - P.pm)) FROM base_pm P GROUP BY P.tid`, nil},
		{"A.3 base word q-grams", fmt.Sprintf(wordQgrams, "base_qgrams", "T.tid, T.token,", "base_words", "T.tid, T.token,"), wargs},
		{"A.3 query word q-grams", fmt.Sprintf(wordQgrams, "query_qgrams", "T.token,", "query_words", "T.token,"), wargs},
		{"token sizes", `INSERT INTO base_tokensize
			SELECT T.tid, T.token, COUNT(*) FROM base_qgrams T GROUP BY T.tid, T.token`, nil},
		{"q-gram token sizes", `INSERT INTO base_qgramstokensize
			SELECT T.tid, T.token, T.qgram, S.size
			FROM base_qgrams T, base_tokensize S
			WHERE T.tid = S.tid AND T.token = S.token`, nil},
		{"query token sizes", `INSERT INTO query_qgramsize
			SELECT T.token, COUNT(*) FROM query_qgrams T GROUP BY T.token`, nil},
		{"indexes", `CREATE INDEX btd_token ON base_tokensddl (token)`, nil},
		{"", `CREATE INDEX bw_token ON base_weights (token)`, nil},
		{"", `CREATE INDEX bpm_token ON base_pm (token)`, nil},
		{"", `CREATE INDEX bsc_tid ON base_sumcompm (tid)`, nil},
		{"", `CREATE INDEX bqts_qgram ON base_qgramstokensize (qgram)`, nil},
		{"Jaccard", `
			SELECT S1.tid, COUNT(*) / (S1.ddl + S2.ddl - COUNT(*)) AS score
			FROM base_tokensddl S1, query_tokens_d R2,
			     (SELECT COUNT(*) AS ddl FROM query_tokens_d) S2
			WHERE S1.token = R2.token
			GROUP BY S1.tid, S1.ddl, S2.ddl`, nil},
		{"BM25", `
			SELECT B.tid, SUM(B.weight * S.mtf) AS score
			FROM base_weights B,
			     (SELECT T.token, COUNT(*) * (? + 1) / (? + COUNT(*)) AS mtf
			      FROM query_words T GROUP BY T.token) S
			WHERE B.token = S.token
			GROUP BY B.tid`, []Value{Float(8), Float(8)}},
		{"LM inner", `
			SELECT P1.tid AS tid,
			       SUM(LOG(P1.pm)) - SUM(LOG(1.0 - P1.pm)) - SUM(LOG(P1.cfcs)) AS score
			FROM base_pm P1, query_tokens T2
			WHERE P1.token = T2.token
			GROUP BY P1.tid`, nil},
		{"LM", `
			SELECT B1.tid, EXP(B1.score + B2.sumcompm) AS score
			FROM (SELECT P1.tid AS tid,
			             SUM(LOG(P1.pm)) - SUM(LOG(1.0 - P1.pm)) - SUM(LOG(P1.cfcs)) AS score
			      FROM base_pm P1, query_tokens T2
			      WHERE P1.token = T2.token
			      GROUP BY P1.tid) B1,
			     base_sumcompm B2
			WHERE B1.tid = B2.tid`, nil},
		{"HMM", `
			SELECT W1.tid, EXP(SUM(LOG(W1.weight))) AS score
			FROM base_weights W1, query_words T2
			WHERE W1.token = T2.token
			GROUP BY W1.tid`, nil},
		{"GESJaccard jac_sim", `
			INSERT INTO jac_sim (tid, token2, sim)
			SELECT BS.tid, Q.token, COUNT(*) / (BS.size + QS.size - COUNT(*))
			FROM base_qgramstokensize BS, query_qgrams Q, query_qgramsize QS
			WHERE BS.qgram = Q.qgram AND Q.token = QS.token
			GROUP BY BS.tid, BS.token, Q.token, BS.size, QS.size`, nil},
		{"SoftTFIDF close_sim", `
			INSERT INTO close_sim (tid, token1, token2, sim)
			SELECT R1.tid, R1.token, R2.token, JAROWINKLER(R1.token, R2.token)
			FROM base_words R1, query_words R2
			WHERE JAROWINKLER(R1.token, R2.token) >= ?`, []Value{Float(0.5)}},
		{"ordered top", `
			SELECT DISTINCT C.tid, C.sim FROM close_sim C
			ORDER BY C.sim DESC, C.tid LIMIT 1500`, nil},
	}
	var got []string
	for _, s := range steps {
		sql := strings.TrimSpace(s.sql)
		isSelect := strings.HasPrefix(sql, "SELECT")
		if isSelect || strings.HasPrefix(sql, "INSERT") {
			for i, a := range queryOf(t, db, s.sql, s.args...).arms {
				got = append(got, fmt.Sprintf("%s [%d]\t%s\t%s", s.name, i, a.plan, a.plan.tally()))
			}
		}
		if isSelect {
			got = append(got, s.name+" rows\t"+digest(mustQuery(t, db, s.sql, s.args...)))
			continue
		}
		mustExec(t, db, s.sql, s.args...)
	}
	for _, name := range db.TableNames() {
		got = append(got, "table "+name+"\t"+digest(mustQuery(t, db, "SELECT * FROM "+name)))
	}

	want, err := os.ReadFile(tallyPath)
	if os.IsNotExist(err) {
		if err := os.WriteFile(tallyPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s (%d lines); run the test again", tallyPath, len(got))
	}
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d tally lines, %d computed", len(wantLines), len(got))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("tally changed:\n got %s\nwant %s", got[i], wantLines[i])
		}
	}
}
