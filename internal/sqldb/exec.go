package sqldb

import (
	"fmt"
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
		delete(db.tables, name)
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
		if err := q.run(func([]Value) { n++ }); err != nil {
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
	// the table's.
	kept := newRelation(t.kinds())
	row := make([]Value, len(t.defs))
	ctx := &evalCtx{pos: make([]int32, 1)}
	for i := int32(0); i < int32(n); i++ {
		ctx.pos[0] = i
		v, err := cond(ctx)
		if err != nil {
			return 0, err
		}
		if !v.Truthy() {
			t.rel.row(i, row)
			kept.appendRow(row)
		}
	}
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

	// store places one source row's values in their columns of a row
	// buffer, whose other columns stay NULL, and appends it.
	row := make([]Value, len(t.defs))
	n := 0
	store := func(src []Value) {
		for i, ci := range dest {
			row[ci] = src[i]
		}
		t.appendRow(row)
		n++
	}

	if s.Select == nil {
		c := &compiler{db: db, schema: &relSchema{}}
		ctx := &evalCtx{}
		rows := make([][]Value, len(s.Rows))
		for r, rowExprs := range s.Rows {
			if len(rowExprs) != len(dest) {
				return 0, fmt.Errorf("sqldb: INSERT expects %d values, got %d", len(dest), len(rowExprs))
			}
			rows[r] = make([]Value, len(rowExprs))
			for i, e := range rowExprs {
				fn, err := c.compile(e)
				if err != nil {
					return 0, err
				}
				if rows[r][i], err = fn(ctx); err != nil {
					return 0, err
				}
			}
		}
		for _, vals := range rows {
			store(vals)
		}
		return n, nil
	}

	q, err := db.planQuery(s.Select)
	if err != nil {
		return 0, err
	}
	if len(q.names) != len(dest) {
		return 0, fmt.Errorf("sqldb: INSERT expects %d columns, SELECT returns %d", len(dest), len(q.names))
	}
	if q.reads(t) {
		// The statement sees the table as it was: finish reading it before
		// the first row goes in.
		rel, err := q.materialize()
		if err != nil {
			return 0, err
		}
		src := make([]Value, len(dest))
		for i := int32(0); i < int32(rel.n); i++ {
			rel.row(i, src)
			store(src)
		}
		return n, nil
	}
	// The table is the pipeline's sink. A statement that fails half-way
	// inserts nothing.
	before := t.rel.n
	if err := q.run(store); err != nil {
		t.truncate(before)
		return 0, err
	}
	return n, nil
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
		proj, err := db.compileProjection(sel, plan.schema)
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

// rowSink consumes a statement's result rows. vals is valid only for the
// duration of the call: the projection refills one buffer for every row, so
// a sink that keeps a row copies the values out and never keeps the slice.
type rowSink func(vals []Value)

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
	err := q.run(func(vals []Value) {
		if len(slab) < w {
			slab = make([]Value, w*min(max(len(rows.Data), 4), 256))
		}
		row := slab[:w:w]
		slab = slab[w:]
		copy(row, vals)
		rows.Data = append(rows.Data, row)
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
	rel := newRelation(make([]Kind, len(q.names)))
	if err := q.run(rel.appendRow); err != nil {
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
