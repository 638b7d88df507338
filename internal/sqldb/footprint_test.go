package sqldb

import (
	"fmt"
	"runtime"
	"testing"
)

// These tests hold the storage to its cost model: a row is a position in
// typed column vectors, so loading or deriving rows allocates only when a
// vector grows, and a stored row costs its cells plus one int32 per index.

// TestBulkInsertAllocatesOnlyForGrowth loads N and then 2N rows into an
// indexed table: the extra N rows may add only the few reallocations of the
// column vectors and the index chain, never an allocation per row.
func TestBulkInsertAllocatesOnlyForGrowth(t *testing.T) {
	const n = 4000
	tokens := make([]string, 100)
	for i := range tokens {
		tokens[i] = fmt.Sprintf("t%02d", i)
	}
	allocs := func(rows int) float64 {
		data := make([][]Value, rows)
		for i := range data {
			data[i] = []Value{Int(int64(i)), String(tokens[i%len(tokens)]), Float(float64(i) / 4)}
		}
		return testing.AllocsPerRun(3, func() {
			db := New()
			if err := db.CreateTable("t", []string{"id", "s", "f"}, []Kind{KindInt, KindString, KindFloat}); err != nil {
				t.Fatal(err)
			}
			if err := db.CreateIndexOn("t", "s"); err != nil {
				t.Fatal(err)
			}
			if err := db.BulkInsert("t", data); err != nil {
				t.Fatal(err)
			}
		})
	}
	once, twice := allocs(n), allocs(2*n)
	if twice > once+40 {
		t.Errorf("BulkInsert allocates per row: %v allocations for %d rows, %v for %d", once, n, twice, 2*n)
	}
}

// TestInsertSelectGroupByAllocatesOnlyForGrowth derives N and then 2N
// groups into a table with INSERT ... SELECT ... GROUP BY. Output rows go
// straight into the target's columns through one reused buffer, so doubling
// the groups adds only slice and map growth and one group slab per 256
// groups.
func TestInsertSelectGroupByAllocatesOnlyForGrowth(t *testing.T) {
	const n = 4000
	allocs := func(groups int) float64 {
		db := New()
		mustExec(t, db, "CREATE TABLE src (k INT, v DOUBLE)")
		data := make([][]Value, 2*groups)
		for i := range data {
			data[i] = []Value{Int(int64(i / 2)), Float(float64(i))}
		}
		if err := db.BulkInsert("src", data); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			mustExec(t, db, "CREATE TABLE dst (k INT, n INT, s DOUBLE)")
			if got := mustExec(t, db, "INSERT INTO dst SELECT k, COUNT(*), SUM(v) FROM src GROUP BY k"); got != groups {
				t.Fatalf("%d rows inserted, want %d", got, groups)
			}
			mustExec(t, db, "DROP TABLE dst")
		})
	}
	once, twice := allocs(n), allocs(2*n)
	if twice > once+n/50 {
		t.Errorf("INSERT ... SELECT ... GROUP BY allocates per row: %v allocations for %d groups, %v for %d", once, n, twice, 2*n)
	}
}

// TestTableRetainsCellsNotRows stores 100 000 (INT, VARCHAR, DOUBLE) rows
// with an index on the VARCHAR column: 8 + 16 + 8 bytes of cells and a
// 4-byte index chain link per row, plus the vectors' spare capacity, must
// stay within 48 bytes a row. The strings are shared, so their bytes are
// not counted.
func TestTableRetainsCellsNotRows(t *testing.T) {
	const n, batch = 100_000, 1000
	tokens := make([]string, 700)
	for i := range tokens {
		tokens[i] = fmt.Sprintf("tok%03d", i)
	}
	before := heapInUse()
	db := New()
	if err := db.CreateTable("t", []string{"id", "s", "f"}, []Kind{KindInt, KindString, KindFloat}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndexOn("t", "s"); err != nil {
		t.Fatal(err)
	}
	rows := make([][]Value, batch)
	for i := range rows {
		rows[i] = make([]Value, 3)
	}
	for start := 0; start < n; start += batch {
		for i, row := range rows {
			id := start + i
			row[0], row[1], row[2] = Int(int64(id)), String(tokens[id*7%len(tokens)]), Float(float64(id)/8)
		}
		if err := db.BulkInsert("t", rows); err != nil {
			t.Fatal(err)
		}
	}
	rows = nil
	perRow := (float64(heapInUse()) - float64(before)) / n
	runtime.KeepAlive(db)
	runtime.KeepAlive(tokens)
	if perRow > 48 {
		t.Errorf("a stored row retains %.1f bytes, want at most 48", perRow)
	}
	t.Logf("%.1f bytes retained per row", perRow)
}

// heapInUse returns the live heap after a full collection.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
