package sqldb

import (
	"fmt"
	"slices"
	"strings"
)

// Exec parses and executes a single SQL statement, returning the number of
// affected (or, for SELECT, returned) rows. '?' placeholders bind the given
// arguments positionally.
func (db *DB) Exec(sqlText string, args ...Value) (int, error) {
	st, err := parseSQL(sqlText, args)
	if err != nil {
		return 0, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.execStmt(st)
}

// ExecScript executes a sequence of semicolon-separated statements and
// returns the total number of affected rows. Placeholders are consumed in
// order across the whole script.
func (db *DB) ExecScript(sqlText string, args ...Value) (int, error) {
	stmts, err := parseScript(sqlText, args)
	if err != nil {
		return 0, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	total := 0
	for _, st := range stmts {
		n, err := db.execStmt(st)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// Query executes a SELECT statement and returns the materialized rows.
func (db *DB) Query(sqlText string, args ...Value) (*Rows, error) {
	st, err := parseSQL(sqlText, args)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*selectStmt)
	if !ok {
		return nil, fmt.Errorf("sqldb: Query requires a SELECT statement")
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.execSelect(sel)
}

// parseScript parses zero or more semicolon-separated statements.
func parseScript(src string, args []Value) ([]stmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, params: args}
	var stmts []stmt
	for {
		for p.accept(tokOp, ";") {
		}
		if p.at(tokEOF, "") {
			break
		}
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		if !p.at(tokOp, ";") && !p.at(tokEOF, "") {
			return nil, p.errorf("unexpected %q after statement", p.cur().text)
		}
	}
	if p.nparam != len(args) {
		return nil, fmt.Errorf("sqldb: script has %d placeholders but %d arguments given", p.nparam, len(args))
	}
	return stmts, nil
}

func (db *DB) execStmt(st stmt) (int, error) {
	switch s := st.(type) {
	case *createTableStmt:
		return 0, db.createTableLocked(strings.ToLower(s.Name), s.Cols, s.IfNotExists)
	case *createIndexStmt:
		return 0, db.createIndexLocked(s.Table, s.Column)
	case *dropTableStmt:
		name := strings.ToLower(s.Name)
		if _, ok := db.tables[name]; !ok && !s.IfExists {
			return 0, fmt.Errorf("sqldb: unknown table %q", s.Name)
		}
		db.dropLocked(name)
		return 0, nil
	case *deleteStmt:
		return db.execDelete(s)
	case *insertStmt:
		return db.execInsert(s)
	case *selectStmt:
		q, err := db.planQuery(s)
		if err != nil {
			return 0, err
		}
		n := 0
		if err := q.run(func(_ []*vec, sel []int32) { n += len(sel) }); err != nil {
			return 0, err
		}
		return n, nil
	default:
		return 0, fmt.Errorf("sqldb: unsupported statement %T", st)
	}
}

func (db *DB) createIndexLocked(table, column string) error {
	t := db.tables[strings.ToLower(table)]
	if t == nil {
		return fmt.Errorf("sqldb: unknown table %q", table)
	}
	col := strings.ToLower(column)
	ci, ok := t.colIdx[col]
	if !ok {
		return fmt.Errorf("sqldb: table %q has no column %q", table, column)
	}
	if _, ok := t.indexes[col]; ok {
		return nil
	}
	ix := &index{col: ci}
	ix.rebuild(&t.rel)
	t.indexes[col] = ix
	return nil
}

func (db *DB) execDelete(s *deleteStmt) (int, error) {
	t := db.tables[strings.ToLower(s.Table)]
	if t == nil {
		return 0, fmt.Errorf("sqldb: unknown table %q", s.Table)
	}
	n := t.rel.n
	if s.Where == nil {
		t.truncate(0)
		return n, nil
	}
	schema := &relSchema{}
	for i, col := range t.defs {
		schema.cols = append(schema.cols, relCol{qual: strings.ToLower(s.Table), name: col.Name, col: &t.rel.cols[i]})
	}
	cond, err := (&compiler{db: db, schema: schema}).compile(s.Where)
	if err != nil {
		return 0, err
	}
	// The rows that stay are copied into fresh columns, which then replace
	// the table's, whose cells are released.
	kept := newRelation(t.kinds(), db.dict)
	row := make([]Value, len(t.defs))
	err = (&source{rel: &t.rel}).scan(1, func(b *batch) error {
		v, err := cond(b, b.sel)
		if err != nil {
			return err
		}
		for _, i := range b.sel {
			if v.truth(i) != tTrue {
				t.rel.row(b.pos[0][i], row)
				kept.appendRow(row)
			}
		}
		return nil
	})
	if err != nil {
		kept.truncate(0)
		return 0, err
	}
	t.rel.truncate(0)
	t.rel = *kept
	t.reindex()
	return n - kept.n, nil
}

func (db *DB) execInsert(s *insertStmt) (int, error) {
	t := db.tables[strings.ToLower(s.Table)]
	if t == nil {
		return 0, fmt.Errorf("sqldb: unknown table %q", s.Table)
	}
	dest := make([]int, 0, len(t.defs))
	if len(s.Columns) == 0 {
		for i := range t.defs {
			dest = append(dest, i)
		}
	} else {
		for _, name := range s.Columns {
			ci, ok := t.colIdx[name]
			if !ok {
				return 0, fmt.Errorf("sqldb: table %q has no column %q", s.Table, name)
			}
			dest = append(dest, ci)
		}
	}

	from := make([]int, len(t.defs)) // per column, the value it takes, or −1
	for ci := range from {
		from[ci] = slices.Index(dest, ci)
	}

	// rel holds the rows when they are not streamed into the table: VALUES,
	// evaluated before the first goes in, and the rows of a SELECT that
	// reads the table itself, which sees the table as it was.
	var rel *relation
	if s.Select == nil {
		rel = newRelation(make([]Kind, len(dest)), nil)
		c, row := &compiler{db: db, schema: &relSchema{}}, make([]Value, len(dest))
		for _, rowExprs := range s.Rows {
			if len(rowExprs) != len(dest) {
				return 0, fmt.Errorf("sqldb: INSERT expects %d values, got %d", len(dest), len(rowExprs))
			}
			for i, e := range rowExprs {
				k, err := c.compile(e)
				if err != nil {
					return 0, err
				}
				if row[i], err = constValue(k); err != nil {
					return 0, err
				}
			}
			rel.appendRow(row)
		}
	} else {
		q, err := db.planQuery(s.Select)
		if err != nil {
			return 0, err
		}
		if len(q.names) != len(dest) {
			return 0, fmt.Errorf("sqldb: INSERT expects %d columns, SELECT returns %d", len(dest), len(q.names))
		}
		if !q.reads(t) {
			// The table is the pipeline's sink. A statement that fails
			// half-way inserts nothing.
			before := t.rel.n
			if err := q.run(func(cols []*vec, sel []int32) { t.appendBatch(from, cols, sel) }); err != nil {
				t.truncate(before)
				return 0, err
			}
			return t.rel.n - before, nil
		}
		if rel, err = q.materialize(); err != nil {
			return 0, err
		}
	}
	cols := make([]*vec, len(rel.cols))
	for lo := 0; lo < rel.n; lo += batchSize {
		hi := min(lo+batchSize, rel.n)
		for j := range cols {
			cols[j] = &vec{kind: KindNull, vals: rel.cols[j].vals[lo:hi]}
		}
		t.appendBatch(from, cols, identity[:hi-lo])
	}
	return rel.n, nil
}

// ---- SELECT execution ----

// query is a planned SELECT statement: one pipeline and projection per
// UNION ALL arm, all planned (derived tables and IN subqueries evaluated)
// before the first row is produced.
type query struct {
	names []string
	arms  []arm
}

type arm struct {
	plan *selectPlan
	proj *projection
}

func (db *DB) planQuery(sel *selectStmt) (*query, error) {
	q := &query{}
	for ; sel != nil; sel = sel.Union {
		plan, err := db.planSelect(sel)
		if err != nil {
			return nil, err
		}
		proj, err := db.compileProjection(sel, plan)
		if err != nil {
			return nil, err
		}
		if q.arms == nil {
			q.names = proj.names
		} else if len(proj.names) != len(q.names) {
			return nil, fmt.Errorf("sqldb: UNION ALL arms have %d and %d columns", len(q.names), len(proj.names))
		}
		q.arms = append(q.arms, arm{plan, proj})
	}
	return q, nil
}

// rowSink consumes a statement's result rows a batch at a time: column j of
// the row at frame f is cols[j].value(f), for each frame f sel lists. The
// vectors are valid only for the duration of the call: a sink that keeps a
// row copies the values out.
type rowSink func(cols []*vec, sel []int32)

// run streams the statement's result rows, arm after arm, into out.
func (q *query) run(out rowSink) error {
	for _, a := range q.arms {
		a.proj.out = out
		if err := a.plan.run(a.proj.push); err != nil {
			return err
		}
		if err := a.proj.finish(); err != nil {
			return err
		}
	}
	return nil
}

// collect materializes the result as Rows. Rows are cut from slabs of
// Values, up to 256 rows a slab, rather than allocated one by one.
func (q *query) collect() (*Rows, error) {
	rows := &Rows{Cols: q.names, Data: [][]Value{}}
	w := len(q.names)
	var slab []Value
	err := q.run(func(cols []*vec, sel []int32) {
		for _, f := range sel {
			if len(slab) < w {
				slab = make([]Value, w*min(max(len(rows.Data), 4), 256))
			}
			row := slab[:w:w]
			slab = slab[w:]
			for i, c := range cols {
				row[i] = c.value(f)
				row[i].code = 0 // a code is the statement's, not the caller's
			}
			rows.Data = append(rows.Data, row)
		}
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// materialize runs the statement into a relation whose columns hold Values:
// a derived table, an IN subquery's result, or the rows an INSERT reads
// from its own target.
func (q *query) materialize() (*relation, error) {
	rel := newRelation(make([]Kind, len(q.names)), nil)
	if err := q.run(func(cols []*vec, sel []int32) { rel.appendBatch(nil, cols, sel) }); err != nil {
		return nil, err
	}
	return rel, nil
}

// reads reports whether a pipeline of the statement scans or probes t's
// rows while it runs (derived tables and IN subqueries are done reading by
// then).
func (q *query) reads(t *Table) bool {
	for _, a := range q.arms {
		for i := range a.plan.sources {
			if a.plan.sources[i].table == t {
				return true
			}
		}
	}
	return false
}

func (db *DB) execSelect(sel *selectStmt) (*Rows, error) {
	q, err := db.planQuery(sel)
	if err != nil {
		return nil, err
	}
	return q.collect()
}

// materialize plans and runs a derived table or IN subquery.
func (db *DB) materialize(sel *selectStmt) (*relation, []string, error) {
	q, err := db.planQuery(sel)
	if err != nil {
		return nil, nil, err
	}
	rel, err := q.materialize()
	return rel, q.names, err
}
