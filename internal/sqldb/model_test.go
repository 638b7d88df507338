package sqldb

import (
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
