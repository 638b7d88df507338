package sqldb

import (
	"fmt"
	"testing"
)

// BenchmarkKeyIndex prices the key path over 100 000 rows: a GROUP BY on an
// (INT, VARCHAR) key, the shape of every (tid, token) relation, and one on
// GESJaccard's five-component (tid, token, token, size, size) key. Each
// row's key is found once, so ns/op over rows is the cost of a find.
func BenchmarkKeyIndex(b *testing.B) {
	const n = 100_000
	db := New()
	if _, err := db.Exec("CREATE TABLE t (tid INT, token VARCHAR(16), token2 VARCHAR(16), size INT, size2 INT)"); err != nil {
		b.Fatal(err)
	}
	rows := make([][]Value, n)
	for i := range rows {
		tok, tok2 := fmt.Sprintf("tok%03d", i%700), fmt.Sprintf("w%02d", i*7%90)
		rows[i] = []Value{Int(int64(i / 8)), String(tok), String(tok2), Int(int64(len(tok))), Int(int64(i % 5))}
	}
	if err := db.BulkInsert("t", rows); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct{ name, sql string }{
		{"int-varchar", "SELECT tid, token, COUNT(*) FROM t GROUP BY tid, token"},
		{"gesjaccard-5", "SELECT tid, token, token2, size, size2, COUNT(*) FROM t GROUP BY tid, token, token2, size, size2"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.Exec(bc.sql); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
		})
	}
}
