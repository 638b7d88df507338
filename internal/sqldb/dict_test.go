package sqldb

import (
	"fmt"
	"runtime"
	"testing"
)

// TestUDFRetainedValueKeepsItsString keeps a Value a registered function
// was passed across statements that free its string's code and hand the
// code to another string: the kept Value must still join as the string it
// holds, through a hash join and through an index.
func TestUDFRetainedValueKeepsItsString(t *testing.T) {
	db := New()
	var kept *Value
	db.RegisterFunc("KEEP", func(args []Value) (Value, error) {
		if kept == nil {
			v := args[0]
			kept = &v
		}
		return *kept, nil
	})
	mustExec(t, db, "CREATE TABLE a (s VARCHAR(8))")
	mustExec(t, db, "CREATE TABLE b (s VARCHAR(8))")
	mustExec(t, db, "INSERT INTO a VALUES ('foo')")
	rows := mustQuery(t, db, "SELECT KEEP(s), s FROM a")
	for _, cell := range rows.Data[0] {
		if cell != String("foo") {
			t.Errorf("Rows cell %#v, want %#v", cell, String("foo"))
		}
	}
	mustExec(t, db, "DELETE FROM a")
	mustExec(t, db, "INSERT INTO b VALUES ('bar')")
	mustExec(t, db, "INSERT INTO a VALUES ('zzz')")
	join := "SELECT a.s, b.s FROM a, b WHERE KEEP(a.s) = b.s"
	if got := mustQuery(t, db, join); len(got.Data) != 0 {
		t.Errorf("hash join: KEEP('foo') matched %v", got.Data)
	}
	mustExec(t, db, "CREATE INDEX b_s ON b (s)")
	if got := mustQuery(t, db, join); len(got.Data) != 0 {
		t.Errorf("index join: KEEP('foo') matched %v", got.Data)
	}
	checkTables(t, db)
}

// TestDictionaryFlatUnderQueryStream runs the shape of a declarative
// select 100 000 times: empty the query table, insert one string never
// seen before, join it through an index into a 2 000-row base table. The
// query's string is freed with its row, so the dictionary's live codes
// come back to where they were every round and the heap stays flat.
func TestDictionaryFlatUnderQueryStream(t *testing.T) {
	if testing.Short() {
		t.Skip("100 000 statements")
	}
	const rounds, n = 100_000, 2000
	db := New()
	mustExec(t, db, "CREATE TABLE base (tid INT, token VARCHAR(16))")
	mustExec(t, db, "CREATE INDEX base_token ON base (token)")
	mustExec(t, db, "CREATE TABLE q (token VARCHAR(16))")
	rows := make([][]Value, n)
	for i := range rows {
		rows[i] = []Value{Int(int64(i)), String(fmt.Sprintf("b%d", i%700))}
	}
	if err := db.BulkInsert("base", rows); err != nil {
		t.Fatal(err)
	}
	rows = nil
	baseline, _ := db.DictionarySize()
	before := heapInUse()
	join := "SELECT B.tid FROM q Q, base B WHERE B.token = Q.token"
	if got, want := planOf(t, db, join).String(), "scan q → index-nlj base(token) ← q.token"; got != want {
		t.Fatalf("plan %q, want %q", got, want)
	}
	for i := 0; i < rounds; i++ {
		mustExec(t, db, "DELETE FROM q")
		if held, _ := db.DictionarySize(); held != baseline {
			t.Fatalf("round %d: %d live codes after DELETE, want %d", i, held, baseline)
		}
		// Beside the new string, a base token, so every join matches.
		j := i % 700
		mustExec(t, db, "INSERT INTO q VALUES (?), (?)", String(fmt.Sprintf("q%d", i)), String(fmt.Sprintf("b%d", j)))
		want := (n - j + 699) / 700
		if got := mustExec(t, db, join); got != want {
			t.Fatalf("round %d: join returned %d rows, want %d", i, got, want)
		}
	}
	mustExec(t, db, "DELETE FROM q")
	after := heapInUse()
	_, codes := db.DictionarySize()
	runtime.KeepAlive(db)
	grew := (float64(after) - float64(before)) / (1 << 20)
	if grew > 1 {
		t.Errorf("heap grew %.2f MiB over %d queries, want at most 1", grew, rounds)
	}
	t.Logf("heap %+.3f MiB over %d queries; %d codes for %d strings", grew, rounds, codes, baseline)
	if held, _ := db.DictionarySize(); held != baseline || codes > baseline+2 {
		t.Errorf("dictionary holds %d strings in %d codes after the stream, want %d strings in at most %d codes", held, codes, baseline, baseline+2)
	}
	checkTables(t, db)
}
