package sqldb

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"
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
// with an index on the VARCHAR column: 8 + 4 + 8 bytes of cells — a VARCHAR
// is a 4-byte dictionary code — and a 4-byte index chain link per row, plus
// the vectors' spare capacity, must stay within 32 bytes a row. The 700
// distinct strings are interned once, so their bytes are not counted.
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
	if perRow > 32 {
		t.Errorf("a stored row retains %.1f bytes, want at most 32", perRow)
	}
	t.Logf("%.1f bytes retained per row", perRow)
}

// TestValueCarriesCodeInPadding: a VARCHAR's dictionary code rides in the
// padding after Kind, so a Value — a Rows cell, a memoized result, a
// derived table's cell — costs what it did without one (40 bytes on 64-bit
// platforms). Where an int64 is 4-byte aligned there is no such padding.
func TestValueCarriesCodeInPadding(t *testing.T) {
	type bare struct {
		Kind Kind
		I    int64
		F    float64
		S    string
	}
	if unsafe.Alignof(int64(0)) < 8 {
		t.Skip("no padding after Kind")
	}
	if got, want := unsafe.Sizeof(Value{}), unsafe.Sizeof(bare{}); got != want {
		t.Errorf("a Value takes %d bytes, want %d", got, want)
	}
}

// TestDropTableReleasesColumnsAndIndexes loads 100 000 (INT, VARCHAR,
// DOUBLE) rows into an indexed table, reads it through an index join and an
// INSERT ... SELECT ... GROUP BY, and drops it: the heap must return to
// within 1 MiB of what it was before the table existed. A derived table
// must not pin its source, and nothing the catalog owns may outlive a
// dropped relation — the premise of the declarative predicates dropping
// their preprocessing intermediates.
func TestDropTableReleasesColumnsAndIndexes(t *testing.T) {
	const n, batch = 100_000, 1000
	tokens := make([]string, 500)
	for i := range tokens {
		tokens[i] = fmt.Sprintf("tok%03d", i)
	}
	db := New()
	mustExec(t, db, "CREATE TABLE probe (s VARCHAR(8))")
	mustExec(t, db, "INSERT INTO probe VALUES (?), (?)", String(tokens[3]), String(tokens[444]))
	mustExec(t, db, "CREATE TABLE g (s VARCHAR(8), n INT, f DOUBLE)")
	before := heapInUse()

	mustExec(t, db, "CREATE TABLE t (id INT, s VARCHAR(8), f DOUBLE)")
	mustExec(t, db, "CREATE INDEX t_s ON t (s)")
	rows := make([][]Value, batch)
	for i := range rows {
		rows[i] = make([]Value, 3)
	}
	for start := 0; start < n; start += batch {
		for i, row := range rows {
			id := start + i
			row[0], row[1], row[2] = Int(int64(id)), String(tokens[id%len(tokens)]), Float(float64(id)/8)
		}
		if err := db.BulkInsert("t", rows); err != nil {
			t.Fatal(err)
		}
	}
	rows = nil
	join := "SELECT T.id, T.f FROM probe P, t T WHERE T.s = P.s"
	if got, want := planOf(t, db, join).String(), "scan probe → index-nlj t(s) ← p.s"; got != want {
		t.Fatalf("plan %q, want %q", got, want)
	}
	if got := mustQuery(t, db, join); len(got.Data) != 2*n/len(tokens) {
		t.Fatalf("index join returned %d rows, want %d", len(got.Data), 2*n/len(tokens))
	}
	if got := mustExec(t, db, "INSERT INTO g SELECT s, COUNT(*), SUM(f) FROM t GROUP BY s"); got != len(tokens) {
		t.Fatalf("%d groups inserted, want %d", got, len(tokens))
	}
	loaded := heapInUse()
	mustExec(t, db, "DROP TABLE t")

	after := heapInUse()
	runtime.KeepAlive(db)
	runtime.KeepAlive(tokens)
	mib := func(heap uint64) float64 { return (float64(heap) - float64(before)) / (1 << 20) }
	if mib(after) > 1 {
		t.Errorf("heap after DROP TABLE is %.2f MiB above its level before CREATE TABLE (%.2f MiB while loaded), want at most 1",
			mib(after), mib(loaded))
	}
	t.Logf("%.2f MiB loaded, %.2f MiB left after DROP TABLE", mib(loaded), mib(after))
}

// heapInUse returns the live heap after a full collection.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
