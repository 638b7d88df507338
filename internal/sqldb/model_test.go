package sqldb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// These tests run randomized relational workloads through the engine and
// through a plain-Go model of the same semantics, as a lightweight fuzzer
// for the join/aggregation pipeline the declarative predicates depend on.

type modelRow struct {
	g int64
	a int64 // -1 encodes NULL in the generator
	b float64
	s string
}

func randomModel(rng *rand.Rand, n int) []modelRow {
	rows := make([]modelRow, n)
	for i := range rows {
		rows[i] = modelRow{
			g: int64(rng.Intn(5)),
			a: int64(rng.Intn(12)) - 1, // -1 → NULL
			b: math.Round(rng.Float64()*100) / 4,
			s: string(rune('a' + rng.Intn(6))),
		}
	}
	return rows
}

func loadModel(t *testing.T, db *DB, rows []modelRow) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE t (g INT, a INT, b DOUBLE, s VARCHAR(4))")
	for _, r := range rows {
		av := Int(r.a)
		if r.a < 0 {
			av = Null()
		}
		mustExec(t, db, "INSERT INTO t VALUES (?, ?, ?, ?)",
			Int(r.g), av, Float(r.b), String(r.s))
	}
}

// checkTables fails unless every table of db is consistent: each column
// holds one value per row, no NULL bit is set past the last row, every
// index equals one rebuilt from the rows, and the dictionary counts exactly
// the cells that hold each code.
func checkTables(t testing.TB, db *DB) {
	t.Helper()
	held := make([]int32, len(db.dict.strs))
	for name, tab := range db.tables {
		for i := range tab.rel.cols {
			c := &tab.rel.cols[i]
			if n := max(len(c.ints), len(c.floats), len(c.codes), len(c.vals)); n != tab.rel.n {
				t.Fatalf("table %s column %d holds %d values for %d rows", name, i, n, tab.rel.n)
			}
			for p := tab.rel.n; p < len(c.nulls)*64; p++ {
				if c.isNull(int32(p)) {
					t.Fatalf("table %s column %d: NULL bit %d set past the last row (%d rows)", name, i, p, tab.rel.n)
				}
			}
			for _, code := range c.codes {
				if code == 0 || int(code) >= len(held) {
					t.Fatalf("table %s column %d holds code %d of a dictionary of %d", name, i, code, len(held))
				}
				if code > 0 {
					held[code]++
				}
			}
		}
		for col, ix := range tab.indexes {
			fresh := &index{col: ix.col}
			fresh.rebuild(&tab.rel)
			got := []any{ix.keys.stride, ix.keys.n, ix.keys.words, ix.keys.slots, ix.keys.local, ix.head, ix.tail, ix.next}
			want := []any{fresh.keys.stride, fresh.keys.n, fresh.keys.words, fresh.keys.slots, fresh.keys.local, fresh.head, fresh.tail, fresh.next}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("index %s(%s) differs from a rebuild:\n got %v\nwant %v", name, col, got, want)
			}
		}
	}
	d, live := db.dict, 0
	for code := 1; code < len(held); code++ {
		s := d.strs[code]
		if d.refs[code] != held[code] {
			t.Fatalf("dictionary code %d (%q) counts %d cells, %d hold it", code, s, d.refs[code], held[code])
		}
		if held[code] == 0 {
			if s != "" || !slices.Contains(d.free, int32(code)) {
				t.Fatalf("dictionary code %d is held by no cell but keeps %q or is not free", code, s)
			}
			continue
		}
		live++
		if got, ok := d.codes[s]; !ok || got != int32(code) {
			t.Fatalf("dictionary code %d holds %q, which maps to %d (present %v)", code, s, got, ok)
		}
	}
	if live != d.live() || live+len(d.free) != len(held)-1 {
		t.Fatalf("dictionary has %d live codes and %d free of %d, but maps %d strings", live, len(d.free), len(held)-1, d.live())
	}
}

func TestRandomizedGroupByAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		rows := randomModel(rng, 1+rng.Intn(60))
		db := New()
		loadModel(t, db, rows)
		threshold := int64(rng.Intn(10))

		got := mustQuery(t, db, `
			SELECT g, COUNT(*) AS n, COUNT(a) AS na, SUM(a) AS sa,
			       AVG(b) AS ab, MIN(a) AS mina, MAX(s) AS maxs
			FROM t WHERE g >= ? GROUP BY g ORDER BY g`, Int(threshold))

		// Go model.
		type agg struct {
			n, na, sa int64
			sb        float64
			mina      int64
			maxs      string
			hasA      bool
		}
		model := map[int64]*agg{}
		for _, r := range rows {
			if r.g < threshold {
				continue
			}
			m, ok := model[r.g]
			if !ok {
				m = &agg{mina: 1 << 40}
				model[r.g] = m
			}
			m.n++
			m.sb += r.b
			if r.a >= 0 {
				m.na++
				m.sa += r.a
				m.hasA = true
				if r.a < m.mina {
					m.mina = r.a
				}
			}
			if r.s > m.maxs {
				m.maxs = r.s
			}
		}
		var keys []int64
		for k := range model {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

		if len(got.Data) != len(keys) {
			t.Fatalf("trial %d: %d groups, want %d", trial, len(got.Data), len(keys))
		}
		for i, k := range keys {
			m := model[k]
			row := got.Data[i]
			if row[0].AsInt() != k || row[1].AsInt() != m.n || row[2].AsInt() != m.na {
				t.Fatalf("trial %d group %d: counts %v, want n=%d na=%d", trial, k, row, m.n, m.na)
			}
			if m.hasA {
				if row[3].AsInt() != m.sa || row[5].AsInt() != m.mina {
					t.Fatalf("trial %d group %d: sum/min %v, want %d/%d", trial, k, row, m.sa, m.mina)
				}
			} else if !row[3].IsNull() || !row[5].IsNull() {
				t.Fatalf("trial %d group %d: SUM/MIN over all-NULL should be NULL: %v", trial, k, row)
			}
			if math.Abs(row[4].AsFloat()-m.sb/float64(m.n)) > 1e-9 {
				t.Fatalf("trial %d group %d: avg %v, want %v", trial, k, row[4], m.sb/float64(m.n))
			}
			if row[6].AsString() != m.maxs {
				t.Fatalf("trial %d group %d: max %v, want %s", trial, k, row[6], m.maxs)
			}
		}
	}
}

func TestRandomizedJoinAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		rows := randomModel(rng, 1+rng.Intn(40))
		db := New()
		loadModel(t, db, rows)
		mustExec(t, db, "CREATE TABLE u (k INT, v INT)")
		nu := 1 + rng.Intn(30)
		type urow struct{ k, v int64 }
		var us []urow
		for i := 0; i < nu; i++ {
			u := urow{k: int64(rng.Intn(12)) - 1, v: int64(rng.Intn(20))}
			us = append(us, u)
			mustExec(t, db, "INSERT INTO u VALUES (?, ?)", Int(u.k), Int(u.v))
		}
		if trial%2 == 0 {
			mustExec(t, db, "CREATE INDEX u_k ON u (k)")
		}
		vmin := int64(rng.Intn(15))

		got := mustQuery(t, db, `
			SELECT t.g, COUNT(*) AS n FROM t, u
			WHERE t.a = u.k AND u.v >= ? GROUP BY t.g ORDER BY t.g`, Int(vmin))

		model := map[int64]int64{}
		for _, r := range rows {
			if r.a < 0 {
				continue
			}
			for _, u := range us {
				if u.k == r.a && u.v >= vmin {
					model[r.g]++
				}
			}
		}
		var keys []int64
		for k := range model {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		if len(got.Data) != len(keys) {
			t.Fatalf("trial %d: %d groups, want %d (model %v, rows %v)", trial, len(got.Data), len(keys), model, got.Data)
		}
		for i, k := range keys {
			if got.Data[i][0].AsInt() != k || got.Data[i][1].AsInt() != model[k] {
				t.Fatalf("trial %d: group %d count %v, want %d", trial, k, got.Data[i], model[k])
			}
		}
	}
}

func TestRandomizedDistinctOrderLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		rows := randomModel(rng, 1+rng.Intn(50))
		db := New()
		loadModel(t, db, rows)
		limit := 1 + rng.Intn(6)
		got := mustQuery(t, db, fmt.Sprintf(
			"SELECT DISTINCT g FROM t ORDER BY g DESC LIMIT %d", limit))

		set := map[int64]bool{}
		for _, r := range rows {
			set[r.g] = true
		}
		var want []int64
		for k := range set {
			want = append(want, k)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] > want[j] })
		if len(want) > limit {
			want = want[:limit]
		}
		if len(got.Data) != len(want) {
			t.Fatalf("trial %d: %d rows, want %d", trial, len(got.Data), len(want))
		}
		for i, k := range want {
			if got.Data[i][0].AsInt() != k {
				t.Fatalf("trial %d: row %d = %v, want %d", trial, i, got.Data[i], k)
			}
		}
	}
}

func TestRandomizedUnionAllAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		rows := randomModel(rng, 1+rng.Intn(30))
		db := New()
		loadModel(t, db, rows)
		got := mustQuery(t, db, `
			SELECT g FROM t WHERE g < 2
			UNION ALL
			SELECT g FROM t WHERE g >= 2`)
		if len(got.Data) != len(rows) {
			t.Fatalf("trial %d: UNION ALL partition returned %d rows, want %d", trial, len(got.Data), len(rows))
		}
	}
}

// TestRandomizedThreeWayJoinAgainstModel drives the streaming executor
// through every stage kind: random three-relation joins (one relation a
// derived table, NULLs among the keys, indexes on half the trials, HAVING
// on the groups) against a brute-force triple loop. Relation sizes vary
// enough that hash stages build on either side.
func TestRandomizedThreeWayJoinAgainstModel(t *testing.T) {
	type arow struct{ k, x int64 }    // k = -1 encodes NULL
	type brow struct{ k, j, y int64 } // k, j = -1 encode NULL
	type crow struct{ j, z int64 }
	shapes := []struct {
		where string
		match func(a arow, b brow, c crow) bool
	}{
		{"a.k = b.k AND b.j = d.j AND a.x <> b.y", func(a arow, b brow, c crow) bool {
			return a.k >= 0 && a.k == b.k && b.j >= 0 && b.j == c.j && a.x != b.y
		}},
		{"a.k < b.k AND b.j = d.j", func(a arow, b brow, c crow) bool {
			return a.k >= 0 && b.k >= 0 && a.k < b.k && b.j >= 0 && b.j == c.j
		}},
		{"a.k = b.k AND d.z > a.x", func(a arow, b brow, c crow) bool {
			return a.k >= 0 && a.k == b.k && c.z > a.x
		}},
		{"a.k + 1 = b.k + 1 AND d.j = b.j AND d.z = b.y", func(a arow, b brow, c crow) bool {
			return a.k >= 0 && a.k == b.k && b.j >= 0 && b.j == c.j && c.z == b.y
		}},
	}
	null := func(v int64) Value {
		if v < 0 {
			return Null()
		}
		return Int(v)
	}
	// What the trials' plans must cover between them: every stage kind, a
	// hash table on the upstream frames and one on the stage's own relation.
	marks := []string{"index-nlj", "cross", "hash", "built on upstream", "built on d]"}
	seen := map[string]bool{}
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 120; trial++ {
		db := New()
		mustExec(t, db, "CREATE TABLE a (k INT, x INT)")
		mustExec(t, db, "CREATE TABLE b (k INT, j INT, y INT)")
		mustExec(t, db, "CREATE TABLE c (j INT, z INT)")
		as := make([]arow, rng.Intn(14))
		for i := range as {
			as[i] = arow{int64(rng.Intn(7)) - 1, int64(rng.Intn(5))}
			mustExec(t, db, "INSERT INTO a VALUES (?, ?)", null(as[i].k), Int(as[i].x))
		}
		bs := make([]brow, rng.Intn(40))
		for i := range bs {
			bs[i] = brow{int64(rng.Intn(7)) - 1, int64(rng.Intn(6)) - 1, int64(rng.Intn(5))}
			mustExec(t, db, "INSERT INTO b VALUES (?, ?, ?)", null(bs[i].k), null(bs[i].j), Int(bs[i].y))
		}
		cs := make([]crow, rng.Intn(16))
		for i := range cs {
			cs[i] = crow{int64(rng.Intn(5)), int64(rng.Intn(5))}
			mustExec(t, db, "INSERT INTO c VALUES (?, ?)", Int(cs[i].j), Int(cs[i].z))
		}
		if trial%2 == 0 {
			mustExec(t, db, "CREATE INDEX b_k ON b (k)")
			mustExec(t, db, "CREATE INDEX a_k ON a (k)")
		}
		shape := shapes[trial%len(shapes)]
		zmin, nmin := int64(rng.Intn(3)), int64(1+rng.Intn(3))
		sql := `SELECT a.x, COUNT(*) AS n, SUM(d.z) AS s
			FROM a, b, (SELECT j, z FROM c WHERE z >= ?) d
			WHERE ` + shape.where + `
			GROUP BY a.x HAVING n >= ? ORDER BY a.x`
		got := mustQuery(t, db, sql, Int(zmin), Int(nmin))

		type agg struct{ n, s int64 }
		model := map[int64]*agg{}
		for _, a := range as {
			for _, b := range bs {
				for _, c := range cs {
					if c.z < zmin || !shape.match(a, b, c) {
						continue
					}
					if model[a.x] == nil {
						model[a.x] = &agg{}
					}
					model[a.x].n++
					model[a.x].s += c.z
				}
			}
		}
		var keys []int64
		for x, m := range model {
			if m.n >= nmin {
				keys = append(keys, x)
			}
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		plan := planOf(t, db, sql, Int(zmin), Int(nmin)).String()
		if len(got.Data) != len(keys) {
			t.Fatalf("trial %d (%s): %d groups, want %d: %v", trial, plan, len(got.Data), len(keys), got.Data)
		}
		for i, x := range keys {
			row := got.Data[i]
			if row[0].AsInt() != x || row[1].AsInt() != model[x].n || row[2].AsInt() != model[x].s {
				t.Fatalf("trial %d (%s): group %v, want x=%d n=%d s=%d", trial, plan, row, x, model[x].n, model[x].s)
			}
		}
		for _, mark := range marks {
			if strings.Contains(plan, mark) {
				seen[mark] = true
			}
		}
	}
	for _, mark := range marks {
		if !seen[mark] {
			t.Errorf("no trial planned %q: the generator no longer covers it", mark)
		}
	}
}

// TestEmissionOrderWithoutOrderBy pins the order in which joined rows leave
// the pipeline — outer order, then bucket or heap order — which is what
// keeps float SUMs associating the same way from run to run and release to
// release.
func TestEmissionOrderWithoutOrderBy(t *testing.T) {
	load := func(indexed bool) *DB {
		db := New()
		mustExec(t, db, "CREATE TABLE q (k INT, tag VARCHAR(4))")
		mustExec(t, db, "CREATE TABLE p (k INT, v INT)")
		mustExec(t, db, "INSERT INTO q VALUES (2, 'x'), (1, 'y'), (2, 'z')")
		mustExec(t, db, "INSERT INTO p VALUES (1, 10), (2, 20), (3, 30), (2, 21), (1, 11)")
		if indexed {
			mustExec(t, db, "CREATE INDEX p_k ON p (k)")
		}
		return db
	}
	render := func(rows *Rows) string {
		var parts []string
		for _, r := range rows.Data {
			parts = append(parts, r[0].AsString()+r[1].AsString())
		}
		return strings.Join(parts, " ")
	}
	// Index nested loop: q in heap order, each bucket in heap order.
	got := render(mustQuery(t, load(true), "SELECT q.tag, p.v FROM p, q WHERE p.k = q.k"))
	if want := "x20 x21 y10 y11 z20 z21"; got != want {
		t.Errorf("index join emitted %s, want %s", got, want)
	}
	// Hash join with q (3 rows) upstream of p (5 rows): the table is built on
	// the upstream frames and p streams, so p's heap order leads.
	got = render(mustQuery(t, load(false), "SELECT q.tag, p.v FROM p, q WHERE p.k = q.k"))
	if want := "y10 x20 z20 x21 z21 y11"; got != want {
		t.Errorf("hash join built on upstream emitted %s, want %s", got, want)
	}
	// Hash join with the table on the stage's relation: upstream order, then
	// the relation's heap order — the index join's order.
	// (Upstream must be no smaller than the relation: five rows each.)
	db := load(false)
	mustExec(t, db, "INSERT INTO q VALUES (3, 'u'), (9, 'w')")
	got = render(mustQuery(t, db, "SELECT q.tag, p.v FROM q, p WHERE p.k = q.k"))
	if want := "x20 x21 y10 y11 z20 z21 u30"; got != want {
		t.Errorf("hash join built on the relation emitted %s, want %s", got, want)
	}
	// Groups leave in first-seen order.
	got = render(mustQuery(t, load(true), "SELECT q.tag, SUM(p.v) FROM p, q WHERE p.k = q.k GROUP BY q.tag"))
	if want := "x41 y21 z41"; got != want {
		t.Errorf("groups emitted %s, want %s", got, want)
	}
}

// TestInsertSelectFromTargetSeesOnlyOldRows: a statement that reads the
// table it inserts into inserts exactly what the rows present before it
// produce, whether it scans the heap or probes the table's index.
func TestInsertSelectFromTargetSeesOnlyOldRows(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		db := New()
		mustExec(t, db, "CREATE TABLE t (k INT, v INT)")
		mustExec(t, db, "INSERT INTO t VALUES (1, 1), (1, 2), (2, 3)")
		if indexed {
			mustExec(t, db, "CREATE INDEX t_k ON t (k)")
		}
		// The self-join on k has 2·2 + 1 = 5 rows.
		if n := mustExec(t, db, "INSERT INTO t SELECT a.k, a.v + 100 FROM t a, t b WHERE a.k = b.k"); n != 5 {
			t.Fatalf("indexed=%v: inserted %d rows, want 5", indexed, n)
		}
		if n := mustExec(t, db, "INSERT INTO t SELECT k, v FROM t UNION ALL SELECT k, v FROM t WHERE v > 100"); n != 8+5 {
			t.Fatalf("indexed=%v: union inserted %d rows, want 13", indexed, n)
		}
		rows := mustQuery(t, db, "SELECT COUNT(*), SUM(v) FROM t WHERE k = 1")
		// k = 1 holds v ∈ {1, 2, 101, 101, 102, 102}, then all six again,
		// then the four over 100 once more.
		if rows.Data[0][0].AsInt() != 16 || rows.Data[0][1].AsInt() != 2*409+406 {
			t.Fatalf("indexed=%v: %v", indexed, rows.Data)
		}
	}
	// A failing INSERT ... SELECT leaves nothing behind, index included.
	db := New()
	db.RegisterFunc("FAILON", func(args []Value) (Value, error) {
		if args[0].AsInt() == 3 {
			return Null(), fmt.Errorf("boom")
		}
		return args[0], nil
	})
	mustExec(t, db, "CREATE TABLE src (v INT)")
	mustExec(t, db, "CREATE TABLE dst (v INT)")
	mustExec(t, db, "CREATE INDEX dst_v ON dst (v)")
	mustExec(t, db, "INSERT INTO src VALUES (1), (2), (3), (4)")
	mustExec(t, db, "INSERT INTO dst VALUES (1)")
	if _, err := db.Exec("INSERT INTO dst SELECT FAILON(v) FROM src"); err == nil {
		t.Fatal("the UDF error should fail the statement")
	}
	rows := mustQuery(t, db, "SELECT COUNT(*) FROM dst D, src S WHERE D.v = S.v")
	if db.Table("dst").NumRows() != 1 || rows.Data[0][0].AsInt() != 1 {
		t.Fatalf("failed insert left %d rows, join sees %v", db.Table("dst").NumRows(), rows.Data)
	}
	checkTables(t, db)
}

// TestRandomizedWritesAgainstModel runs random INSERTs, DELETEs (some with
// a condition, some of everything) and INSERT ... SELECTs that fail half-way
// against a slice of rows: after every statement the table reads back as
// the slice, in order, and both its indexes equal a rebuild.
func TestRandomizedWritesAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 20; trial++ {
		rows := randomModel(rng, rng.Intn(20))
		db := New()
		db.RegisterFunc("FAILON", func(args []Value) (Value, error) {
			if args[0].AsInt() == 3 {
				return Null(), fmt.Errorf("boom")
			}
			return args[0], nil
		})
		loadModel(t, db, rows)
		mustExec(t, db, "CREATE INDEX t_s ON t (s)")
		mustExec(t, db, "CREATE INDEX t_a ON t (a)")
		for step := 0; step < 25; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				add := randomModel(rng, 1+rng.Intn(8))
				for _, r := range add {
					av := Int(r.a)
					if r.a < 0 {
						av = Null()
					}
					mustExec(t, db, "INSERT INTO t VALUES (?, ?, ?, ?)", Int(r.g), av, Float(r.b), String(r.s))
				}
				rows = append(rows, add...)
			case op < 7:
				g := int64(rng.Intn(5))
				mustExec(t, db, "DELETE FROM t WHERE g = ? OR a IS NULL", Int(g))
				kept := rows[:0:0]
				for _, r := range rows {
					if r.g != g && r.a >= 0 {
						kept = append(kept, r)
					}
				}
				rows = kept
			case op < 9:
				// FAILON(g) fails on the first row with g = 3, if there is one.
				_, err := db.Exec("INSERT INTO t SELECT FAILON(g), a, b, s FROM (SELECT * FROM t) d")
				fails := false
				for _, r := range rows {
					fails = fails || r.g == 3
				}
				if (err != nil) != fails {
					t.Fatalf("trial %d step %d: INSERT ... SELECT err = %v, want failure %v", trial, step, err, fails)
				}
				if !fails {
					rows = append(rows, rows...)
				}
			default:
				mustExec(t, db, "DELETE FROM t")
				rows = nil
			}
			checkTables(t, db)
			got := mustQuery(t, db, "SELECT g, a, b, s FROM t")
			if len(got.Data) != len(rows) {
				t.Fatalf("trial %d step %d: %d rows, model has %d", trial, step, len(got.Data), len(rows))
			}
			for i, r := range rows {
				row := got.Data[i]
				if row[0].AsInt() != r.g || row[1].IsNull() != (r.a < 0) || r.a >= 0 && row[1].AsInt() != r.a ||
					row[2].AsFloat() != r.b || row[3].AsString() != r.s {
					t.Fatalf("trial %d step %d: row %d is %v, model %+v", trial, step, i, row, r)
				}
			}
		}
	}
}

// TestTokenJoinAllocatesPerGroupNotPerJoinedRow holds the executor to its
// cost model on the statement every declarative predicate scores with:
// doubling the postings of every token doubles the joined rows and leaves
// the groups alone, and must leave the allocation count alone too.
func TestTokenJoinAllocatesPerGroupNotPerJoinedRow(t *testing.T) {
	const tids, tokens = 300, 40
	allocs := func(copies int) float64 {
		db := New()
		mustExec(t, db, "CREATE TABLE tokens (tid INT, token VARCHAR(16))")
		mustExec(t, db, "CREATE TABLE qtokens (token VARCHAR(16))")
		var rows [][]Value
		for tid := 0; tid < tids; tid++ {
			for k := 0; k < 8; k++ {
				for c := 0; c < copies; c++ {
					rows = append(rows, []Value{Int(int64(tid)), String(fmt.Sprintf("t%02d", (tid+k*7)%tokens))})
				}
			}
		}
		if err := db.BulkInsert("tokens", rows); err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, "CREATE INDEX t_token ON tokens (token)")
		for k := 0; k < tokens; k += 2 {
			mustExec(t, db, "INSERT INTO qtokens VALUES (?)", String(fmt.Sprintf("t%02d", k)))
		}
		var groups int
		n := testing.AllocsPerRun(5, func() {
			got := mustQuery(t, db, `SELECT R1.tid, COUNT(*) AS score, SUM(R1.tid * 0.5) FROM tokens R1, qtokens R2
				WHERE R1.token = R2.token GROUP BY R1.tid`)
			groups = len(got.Data)
		})
		if groups != tids {
			t.Fatalf("%d groups, want %d", groups, tids)
		}
		return n
	}
	// (The race detector's runtime adds the odd allocation of its own.)
	once, twice := allocs(1), allocs(2)
	if twice > once+8 {
		t.Errorf("allocations follow the joined rows: %v per select with 1 200 joined rows, %v with 2 400", once, twice)
	}
	// One output row per group, the group slabs and map growth, and a
	// constant for parsing and planning.
	if ceiling := float64(2*tids + 200); once > ceiling {
		t.Errorf("%v allocations per select, ceiling %v", once, ceiling)
	}
}

// value returns column c of r as the engine stores it: a is NULL
// when negative.
func (r modelRow) value(c byte) Value {
	switch c {
	case 'g':
		return Int(r.g)
	case 'a':
		if r.a < 0 {
			return Null()
		}
		return Int(r.a)
	case 'b':
		return Float(r.b)
	}
	return String(r.s)
}

// TestBatchBoundariesAgainstModel runs relations of one row short of a
// batch, exactly one, one past and two past, through the typed kernels,
// grouping, a join, DISTINCT, ORDER BY and LIMIT, against a plain-Go model
// that evaluates each row with the Value semantics (arith, Compare).
func TestBatchBoundariesAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, n := range []int{batchSize - 1, batchSize, batchSize + 1, 2*batchSize + 1} {
		rows := randomModel(rng, n)
		db := New()
		mustExec(t, db, "CREATE TABLE t (g INT, a INT, b DOUBLE, s VARCHAR(4))")
		load := make([][]Value, n)
		for i, r := range rows {
			load[i] = []Value{r.value('g'), r.value('a'), r.value('b'), r.value('s')}
		}
		if err := db.BulkInsert("t", load); err != nil {
			t.Fatal(err)
		}

		// Typed loops against the Value semantics, frame by frame.
		got := mustQuery(t, db, `SELECT a + g, a - g, a * g, a / g, a % g, b * a, b % a, a - b,
			a < b, a = g, b >= g, -a, -b, LOG(b), SQRT(a), EXP(a / 4) FROM t`)
		if len(got.Data) != n {
			t.Fatalf("n=%d: %d rows", n, len(got.Data))
		}
		for i, r := range rows {
			a, b, g := r.value('a'), r.value('b'), r.value('g')
			var want []Value
			for _, o := range []struct {
				op   string
				l, r Value
			}{{"+", a, g}, {"-", a, g}, {"*", a, g}, {"/", a, g}, {"%", a, g}, {"*", b, a}, {"%", b, a}, {"-", a, b}} {
				v, _ := arith(o.op, o.l, o.r)
				want = append(want, v)
			}
			for _, c := range []struct {
				l, r Value
				op   string
			}{{a, b, "<"}, {a, g, "="}, {b, g, ">="}} {
				cmp, ok := Compare(c.l, c.r)
				if !ok {
					want = append(want, Null())
				} else {
					want = append(want, Bool(cmpHolds[c.op][cmp+1]))
				}
			}
			neg, _ := arith("*", a, Int(-1))
			want = append(want, neg, Float(-b.F))
			for _, f := range []struct {
				name string
				x    Value
			}{{"LOG", b}, {"SQRT", a}} {
				v, _ := builtinFuncs[f.name].impl([]Value{f.x})
				want = append(want, v)
			}
			quarter, _ := arith("/", a, Int(4))
			e, _ := builtinFuncs["EXP"].impl([]Value{quarter})
			want = append(want, e)
			if !reflect.DeepEqual(got.Data[i], want) {
				t.Fatalf("n=%d row %d (%+v):\n got %v\nwant %v", n, i, r, got.Data[i], want)
			}
		}

		// Grouping and aggregation, and ORDER BY's stability: groups come
		// out in first-seen order, which a stable sort on a constant keeps.
		agg := mustQuery(t, db, `SELECT g, COUNT(*), COUNT(a), SUM(a), SUM(b), MIN(s), MAX(b)
			FROM t GROUP BY g ORDER BY g * 0`)
		type acc struct {
			n, na, sa int64
			sb, maxb  float64
			mins      string
		}
		model, order := map[int64]*acc{}, []int64{}
		for _, r := range rows {
			m := model[r.g]
			if m == nil {
				m = &acc{mins: r.s, maxb: r.b}
				model[r.g] = m
				order = append(order, r.g)
			}
			m.n++
			m.sb += r.b
			m.maxb = max(m.maxb, r.b)
			m.mins = min(m.mins, r.s)
			if r.a >= 0 {
				m.na++
				m.sa += r.a
			}
		}
		if len(agg.Data) != len(order) {
			t.Fatalf("n=%d: %d groups, want %d", n, len(agg.Data), len(order))
		}
		for i, g := range order {
			m, row := model[g], agg.Data[i]
			want := []Value{Int(g), Int(m.n), Int(m.na), Int(m.sa), Float(m.sb), String(m.mins), Float(m.maxb)}
			if m.na == 0 {
				want[3] = Null()
			}
			if !reflect.DeepEqual(row, want) {
				t.Fatalf("n=%d group %d: got %v, want %v", n, g, row, want)
			}
		}

		// ORDER BY on many ties across batches, ending mid-batch: a stable
		// sort of the rows in table order.
		limit := n - n/3
		sorted := mustQuery(t, db, fmt.Sprintf("SELECT g, b FROM t ORDER BY g DESC LIMIT %d", limit))
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(i, j int) bool { return rows[idx[i]].g > rows[idx[j]].g })
		if len(sorted.Data) != limit {
			t.Fatalf("n=%d: ORDER BY ... LIMIT %d returned %d rows", n, limit, len(sorted.Data))
		}
		for i, at := range idx[:limit] {
			if want := []Value{Int(rows[at].g), Float(rows[at].b)}; !reflect.DeepEqual(sorted.Data[i], want) {
				t.Fatalf("n=%d: sorted row %d = %v, want %v", n, i, sorted.Data[i], want)
			}
		}

		// DISTINCT and LIMIT ending mid-batch, in first-seen order.
		distinct := mustQuery(t, db, "SELECT DISTINCT a, g FROM t LIMIT 40")
		seen, want := map[[2]int64]bool{}, [][]Value{}
		for _, r := range rows {
			if k := [2]int64{r.a, r.g}; !seen[k] && len(want) < 40 {
				seen[k] = true
				want = append(want, []Value{r.value('a'), Int(r.g)})
			}
		}
		if !reflect.DeepEqual(distinct.Data, want) {
			t.Fatalf("n=%d: DISTINCT ... LIMIT 40:\n got %v\nwant %v", n, distinct.Data, want)
		}

		// A self join through a hash stage, its output past a batch.
		joined := mustQuery(t, db, `SELECT COUNT(*), SUM(t1.b * t2.g) FROM t t1, t t2
			WHERE t1.a + 0 = t2.g + 0 AND t1.s = 'a'`)
		var count int64
		var sum float64
		for _, r1 := range rows {
			for _, r2 := range rows {
				if r1.a >= 0 && r1.a == r2.g && r1.s == "a" {
					count++
					sum += r1.b * float64(r2.g)
				}
			}
		}
		if got := joined.Data[0]; got[0].AsInt() != count || math.Abs(got[1].AsFloat()-sum) > 1e-6*math.Abs(sum) {
			t.Fatalf("n=%d: join gave %v, want %d and %v", n, got, count, sum)
		}
	}
}

// TestHashDecisionInsideABatch: a hash stage whose relation has 1 500 rows
// sees the 1 500th upstream frame in the middle of the second upstream
// batch. The table goes on the relation there, the frames held so far
// probe it first, and the result comes out in the order a row-by-row
// evaluation gives: upstream order, then the relation's row order. The
// second query's key is a DOUBLE on exactly the frames of the partial held
// batch and an INT elsewhere, so the key kernel sees a full batch, a
// shorter one and a full one again, with a different kind of value each
// time.
func TestHashDecisionInsideABatch(t *testing.T) {
	db := New()
	for _, s := range []string{"CREATE TABLE few (k INT)", "CREATE TABLE many (k INT, id INT)", "CREATE TABLE most (k INT, id INT)"} {
		mustExec(t, db, s)
	}
	few, many, most := []int64{0, 1}, make([]int64, 1000), make([]int64, 1500)
	var rows [][]Value
	for i := range many {
		many[i] = int64(i % 37)
		rows = append(rows, []Value{Int(many[i]), Int(int64(i))})
	}
	if err := db.BulkInsert("many", rows); err != nil {
		t.Fatal(err)
	}
	rows = nil
	for i := range most {
		most[i] = int64(i % 41)
		rows = append(rows, []Value{Int(most[i]), Int(int64(i))})
	}
	if err := db.BulkInsert("most", rows); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO few VALUES (0), (1)")
	var want [][]Value
	for _, f := range few {
		for _, m := range many {
			for id, x := range most {
				if f+m == x {
					want = append(want, []Value{Int(f), Int(m), Int(int64(id))})
				}
			}
		}
	}
	for _, key := range []string{
		"few.k + many.k",
		// Upstream frames 1 024–1 499, the partial held batch, are few.k = 1
		// with many.id 24–499.
		"CASE WHEN few.k = 1 AND many.id >= 24 AND many.id < 500 THEN few.k + many.k + 0.0 ELSE few.k + many.k END + 0",
	} {
		q := "SELECT few.k, many.k, most.id FROM few, many, most WHERE " + key + " = most.k + 0"
		plan := planOf(t, db, q).String()
		if prefix := "scan few → cross many → hash most: (most.k + 0) = "; !strings.HasPrefix(plan, prefix) || !strings.HasSuffix(plan, " [built on most]") {
			t.Fatalf("plan %s, want %s… [built on most]", plan, prefix)
		}
		if got := mustQuery(t, db, q); !reflect.DeepEqual(got.Data, want) {
			t.Fatalf("%s: %d rows, want %d; first %v, want %v", key, len(got.Data), len(want), got.Data[:min(3, len(got.Data))], want[:min(3, len(want))])
		}
	}
}

// TestIndexJoinSecondPairAcrossBatches: an index stage with two equalities
// compares the second on the frames it holds, a full batch, then a partial
// one after an upstream batch with few matches, then a full one again. The
// second pair's inner side is a DOUBLE on exactly the partial batch's rows.
func TestIndexJoinSecondPairAcrossBatches(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE u (k INT)")
	mustExec(t, db, "CREATE TABLE ix (k INT, v INT)")
	mustExec(t, db, "CREATE INDEX ix_k ON ix (k)")
	var urows, xrows [][]Value
	var want [][]Value
	for k := range int64(3 * batchSize) {
		urows = append(urows, []Value{Int(k)})
		if k < batchSize || k >= 2*batchSize || k < batchSize+476 {
			xrows = append(xrows, []Value{Int(k), Int(k)})
			want = append(want, []Value{Int(k), Int(k)})
		}
	}
	for k := range int64(batchSize) { // rows no frame matches, so that ix is the larger side
		xrows = append(xrows, []Value{Int(10*batchSize + k), Int(k)})
	}
	for table, rows := range map[string][][]Value{"u": urows, "ix": xrows} {
		if err := db.BulkInsert(table, rows); err != nil {
			t.Fatal(err)
		}
	}
	const q = "SELECT u.k, ix.v FROM u, ix WHERE ix.k = u.k AND CASE WHEN ix.k >= 1024 AND ix.k < 2048 THEN ix.v * 1.0 ELSE ix.v END + 0 = u.k"
	if got, want := planOf(t, db, q).String(), "scan u → index-nlj ix(k) ← u.k"; !strings.HasPrefix(got, want) {
		t.Fatalf("plan %s, want %s…", got, want)
	}
	if got := mustQuery(t, db, q); !reflect.DeepEqual(got.Data, want) {
		t.Fatalf("%d rows, want %d", len(got.Data), len(want))
	}
}

// TestGuardedFailuresInLaterBatches: FAILON fails on every k from 2 000
// on, which only batches after the first hold; AND, OR and CASE guard it,
// so those rows never reach it, and it runs exactly on the rows a row-by-
// row evaluation would call it on.
func TestGuardedFailuresInLaterBatches(t *testing.T) {
	db := New()
	calls := 0
	db.RegisterFunc("FAILON", func(args []Value) (Value, error) {
		calls++
		if args[0].AsInt() >= 2000 {
			return Null(), errors.New("boom")
		}
		return args[0], nil
	})
	mustExec(t, db, "CREATE TABLE t (k INT)")
	var rows [][]Value
	for k := 1; k <= 3000; k++ {
		rows = append(rows, []Value{Int(int64(k))})
	}
	if err := db.BulkInsert("t", rows); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sql   string
		want  int64
		calls int
	}{
		{"SELECT COUNT(*) FROM t WHERE k < 1500 AND FAILON(k) > 0", 1499, 1499},
		{"SELECT COUNT(*) FROM t WHERE k >= 1500 OR FAILON(k) > 0", 3000, 1499},
		{"SELECT SUM(CASE WHEN k < 1500 THEN FAILON(k) ELSE 0 END) FROM t", 1499 * 1500 / 2, 1499},
		{"SELECT COUNT(*) FROM t WHERE k < 1500 AND k IN (FAILON(k), 0)", 1499, 1499},
	} {
		calls = 0
		if got := mustQuery(t, db, c.sql).Data[0][0].AsInt(); got != c.want || calls != c.calls {
			t.Errorf("%s: %d from %d calls, want %d from %d", c.sql, got, calls, c.want, c.calls)
		}
	}
	if _, err := db.Query("SELECT COUNT(*) FROM t WHERE k < 2500 AND FAILON(k) > 0"); err == nil {
		t.Error("an unguarded failing row did not fail the statement")
	}
}

// TestRandomizedCrossComparisonAgainstModel drives the cross stage's
// pre-bind comparison: random cross joins whose one conjunct compares an
// upstream expression with one of the stage's relation, under each of the
// five operators, with the upstream side on the left and on the right, over
// INT, DOUBLE, VARCHAR and computed columns with NULLs, and a relation past
// one batch of frames. Rows and their emission order — upstream order, then
// the relation's row order — must equal a triple loop's that compares with
// Compare.
func TestRandomizedCrossComparisonAgainstModel(t *testing.T) {
	type row struct {
		k Value // INT
		x Value // DOUBLE
		s Value // VARCHAR
	}
	gen := func(rng *rand.Rand, n int) []row {
		rows := make([]row, n)
		for i := range rows {
			rows[i] = row{Int(int64(rng.Intn(9))), Float(float64(rng.Intn(17)) / 4), String(string(rune('a' + rng.Intn(5))))}
			switch rng.Intn(8) {
			case 0:
				rows[i].k = Null()
			case 1:
				rows[i].x = Null()
			case 2:
				rows[i].s = Null()
			}
		}
		return rows
	}
	load := func(db *DB, name string, rows []row) {
		mustExec(t, db, "CREATE TABLE "+name+" (id INT, k INT, x DOUBLE, s VARCHAR(4))")
		data := make([][]Value, len(rows))
		for i, r := range rows {
			data[i] = []Value{Int(int64(i)), r.k, r.x, r.s}
		}
		if err := db.BulkInsert(name, data); err != nil {
			t.Fatal(err)
		}
	}
	// The smallest relation, a, leads, then l: the upstream frames are l's
	// rows, or a's times l's.
	// Each column pair is an upstream expression over l and a relation one
	// over r, with the model's value of each; the CONCAT and CASE sides
	// come as Values rather than a typed vector.
	cols := []struct {
		up, rel string
		val     func(r row, upstream bool) Value
	}{
		{"l.k", "r.k", func(r row, _ bool) Value { return r.k }},
		{"l.x", "r.x", func(r row, _ bool) Value { return r.x }},
		{"l.s", "r.s", func(r row, _ bool) Value { return r.s }},
		{"l.k", "r.x", func(r row, up bool) Value {
			if up {
				return r.k
			}
			return r.x
		}},
		{"l.x * 2", "r.k + 0", func(r row, up bool) Value {
			if up {
				v, _ := arith("*", r.x, Int(2))
				return v
			}
			return r.k
		}},
		{"l.s", "CONCAT(r.s, '')", func(r row, _ bool) Value { return r.s }},
		{"l.k", "CASE WHEN r.k > 4 THEN r.x ELSE r.k END", func(r row, up bool) Value {
			if up || r.k.IsNull() || r.k.I <= 4 {
				return r.k
			}
			return r.x
		}},
	}
	ops := []string{"<", "<=", ">", ">=", "<>"}
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 2*len(cols)*len(ops); trial++ { // every pair, operator and orientation
		db := New()
		ls, rs, as := gen(rng, 4+rng.Intn(9)), gen(rng, batchSize+rng.Intn(2*batchSize)), gen(rng, 2+rng.Intn(2))
		load(db, "l", ls)
		load(db, "r", rs)
		load(db, "a", as)
		c, op := cols[trial%len(cols)], ops[trial/len(cols)%len(ops)]
		upLeft, three := trial < len(cols)*len(ops), trial%3 == 0
		cond := c.up + " " + op + " " + c.rel
		if !upLeft {
			cond = c.rel + " " + op + " " + c.up
		}
		sql := "SELECT l.id, r.id FROM l, r WHERE " + cond
		if three {
			sql = "SELECT l.id, r.id, a.id FROM a, l, r WHERE " + cond
		}
		holds := func(l, r row) bool {
			x, y := c.val(l, true), c.val(r, false)
			if !upLeft {
				x, y = y, x
			}
			cmp, ok := Compare(x, y)
			return ok && cmpHolds[op][cmp+1]
		}
		var want [][]Value
		upstream := [][]Value{}
		if three {
			for i := range as {
				for j := range ls {
					upstream = append(upstream, []Value{Int(int64(i)), Int(int64(j))})
				}
			}
		} else {
			for j := range ls {
				upstream = append(upstream, []Value{Null(), Int(int64(j))})
			}
		}
		for _, u := range upstream {
			for k, r := range rs {
				if holds(ls[u[1].I], r) {
					w := []Value{u[1], Int(int64(k))}
					if three {
						w = append(w, u[0])
					}
					want = append(want, w)
				}
			}
		}
		plan := planOf(t, db, sql).String()
		if !strings.Contains(plan, "cross r [") {
			t.Fatalf("trial %d: %s planned %s, want a pre-bind comparison at cross r", trial, sql, plan)
		}
		got := mustQuery(t, db, sql)
		if len(got.Data) != len(want) {
			t.Fatalf("trial %d: %s (%s): %d rows, want %d", trial, sql, plan, len(got.Data), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got.Data[i], want[i]) {
				t.Fatalf("trial %d: %s (%s): row %d is %v, want %v", trial, sql, plan, i, got.Data[i], want[i])
			}
		}
	}
}

// TestPreBindComparisonCallsEachRowOnce: a function on the relation side
// of a cross stage's comparison runs once per row of the relation, and one
// on the upstream side once per upstream row — as many calls as the
// comparison made a filter over bound frames, memoized — and neither runs
// at all when the other input is empty.
func TestPreBindComparisonCallsEachRowOnce(t *testing.T) {
	db := New()
	calls := 0
	db.RegisterFunc("FAILON", func(args []Value) (Value, error) {
		calls++
		if args[0].AsInt() == -3 {
			return Null(), errors.New("boom")
		}
		return args[0], nil
	})
	mustExec(t, db, "CREATE TABLE l (k INT)")
	mustExec(t, db, "CREATE TABLE r (k INT)")
	mustExec(t, db, "INSERT INTO l VALUES (5), (500), (1500)")
	var rows [][]Value
	for k := range int64(2*batchSize + 7) {
		rows = append(rows, []Value{Int(k)})
	}
	if err := db.BulkInsert("r", rows); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sql   string
		plan  string
		count int64
		calls int
	}{
		{"SELECT COUNT(*) FROM l, r WHERE l.k > FAILON(r.k)", "scan l → cross r [l.k > FAILON(r.k)]", 5 + 500 + 1500, 2*batchSize + 7},
		{"SELECT COUNT(*) FROM l, r WHERE FAILON(r.k) < l.k", "scan l → cross r [FAILON(r.k) < l.k]", 5 + 500 + 1500, 2*batchSize + 7},
		{"SELECT COUNT(*) FROM l, r WHERE FAILON(l.k) <= r.k", "scan l → cross r [FAILON(l.k) <= r.k] [memo 1]", 3*(2*batchSize+7) - 5 - 500 - 1500, 3},
		{"SELECT COUNT(*) FROM l, r WHERE l.k > 9999 AND l.k > FAILON(r.k)", "scan l → cross r [l.k > FAILON(r.k)]", 0, 0},
		{"SELECT COUNT(*) FROM l, r WHERE r.k < 0 AND FAILON(l.k) <= r.k", "scan r → cross l [FAILON(l.k) <= r.k]", 0, 0},
	} {
		if got := planOf(t, db, c.sql).String(); got != c.plan {
			t.Errorf("%s: plan %s, want %s", c.sql, got, c.plan)
		}
		calls = 0
		if got := mustQuery(t, db, c.sql).Data[0][0].AsInt(); got != c.count || calls != c.calls {
			t.Errorf("%s: %d rows from %d calls, want %d from %d", c.sql, got, calls, c.count, c.calls)
		}
	}
	if _, err := db.Query("SELECT COUNT(*) FROM l, r WHERE l.k > FAILON(0 - r.k)"); err == nil {
		t.Error("a failing relation row did not fail the statement")
	}
}

// TestTypedBuiltinsMatchValueImplementations: LOCATE and POWER run as
// typed loops; over every kind of argument, NULLs and multi-byte text
// included, they give what their Value implementations give.
func TestTypedBuiltinsMatchValueImplementations(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (s VARCHAR(16), u VARCHAR(4), k INT, x DOUBLE)")
	strs := []Value{String("ab cd ef"), String("é b é"), String(""), String(" "), String("12"), Null()}
	subs := []Value{String(" "), String("é"), String(""), String("cd"), Null()}
	nums := []Value{Int(-1), Int(0), Int(2), Int(7), Null()}
	dbls := []Value{Float(0.5), Float(-2.25), Float(0), Float(3), Null()}
	var rows [][]Value
	for i := range 200 {
		rows = append(rows, []Value{strs[i%len(strs)], subs[i/len(strs)%len(subs)], nums[i/7%len(nums)], dbls[i/3%len(dbls)]})
	}
	if err := db.BulkInsert("t", rows); err != nil {
		t.Fatal(err)
	}
	calls := []struct {
		sql  string
		name string
		args func(r []Value) []Value
	}{
		{"LOCATE(u, s)", "LOCATE", func(r []Value) []Value { return []Value{r[1], r[0]} }},
		{"LOCATE(u, s, k)", "LOCATE", func(r []Value) []Value { return []Value{r[1], r[0], r[2]} }},
		{"LOCATE(u, CONCAT(s, u), x)", "LOCATE", func(r []Value) []Value {
			cat, _ := builtinFuncs["CONCAT"].impl([]Value{r[0], r[1]})
			return []Value{r[1], cat, r[3]}
		}},
		{"LOCATE(k, s, u)", "LOCATE", func(r []Value) []Value { return []Value{r[2], r[0], r[1]} }},
		{"POWER(x, k)", "POWER", func(r []Value) []Value { return []Value{r[3], r[2]} }},
		{"POW(k, x)", "POW", func(r []Value) []Value { return []Value{r[2], r[3]} }},
		{"POWER(s, 0.5)", "POWER", func(r []Value) []Value { return []Value{r[0], Float(0.5)} }},
	}
	var items []string
	for _, c := range calls {
		items = append(items, c.sql)
	}
	got := mustQuery(t, db, "SELECT "+strings.Join(items, ", ")+" FROM t")
	for i, r := range rows {
		for j, c := range calls {
			want, err := builtinFuncs[c.name].impl(c.args(r))
			if err != nil {
				t.Fatal(err)
			}
			if g := got.Data[i][j]; !reflect.DeepEqual(g, want) && !(g.Kind == KindFloat && math.IsNaN(g.F) && math.IsNaN(want.F)) {
				t.Errorf("row %d %v: %s = %v, want %v", i, r, c.sql, g, want)
			}
		}
	}
}
