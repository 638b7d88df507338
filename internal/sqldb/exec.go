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
		rows, err := db.execSelect(s)
		if err != nil {
			return 0, err
		}
		return len(rows.Data), nil
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
	ix := newHashIndex(ci)
	ix.rebuild(t.rows)
	t.indexes[col] = ix
	return nil
}

func (db *DB) execDelete(s *deleteStmt) (int, error) {
	t := db.tables[strings.ToLower(s.Table)]
	if t == nil {
		return 0, fmt.Errorf("sqldb: unknown table %q", s.Table)
	}
	if s.Where == nil {
		n := len(t.rows)
		t.rows = t.rows[:0]
		for _, ix := range t.indexes {
			ix.rebuild(t.rows)
		}
		return n, nil
	}
	schema := &relSchema{}
	for i, col := range t.cols {
		schema.cols = append(schema.cols, relCol{qual: strings.ToLower(s.Table), name: col.Name, idx: i})
	}
	cond, err := (&compiler{db: db, schema: schema}).compile(s.Where)
	if err != nil {
		return 0, err
	}
	kept := t.rows[:0:0]
	removed := 0
	ctx := &evalCtx{rows: make([][]Value, 1)}
	for _, row := range t.rows {
		ctx.rows[0] = row
		v, err := cond(ctx)
		if err != nil {
			return 0, err
		}
		if v.Truthy() {
			removed++
		} else {
			kept = append(kept, row)
		}
	}
	t.rows = kept
	for _, ix := range t.indexes {
		ix.rebuild(t.rows)
	}
	return removed, nil
}

func (db *DB) execInsert(s *insertStmt) (int, error) {
	t := db.tables[strings.ToLower(s.Table)]
	if t == nil {
		return 0, fmt.Errorf("sqldb: unknown table %q", s.Table)
	}
	dest := make([]int, 0, len(t.cols))
	if len(s.Columns) == 0 {
		for i := range t.cols {
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

	// store coerces one source row to the column types and appends it. A
	// row that already has the table's shape is stored as is: the caller
	// hands over ownership.
	whole := len(dest) == len(t.cols)
	for i, ci := range dest {
		whole = whole && ci == i
	}
	n := 0
	store := func(src []Value) {
		row := src
		if !whole {
			row = make([]Value, len(t.cols))
		}
		for i, ci := range dest {
			row[ci] = coerce(src[i], t.cols[ci].Type)
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
		for _, row := range rows {
			store(row)
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
		rows, err := q.collect()
		if err != nil {
			return 0, err
		}
		for _, row := range rows.Data {
			store(row)
		}
		return n, nil
	}
	// The table is the pipeline's sink. A statement that fails half-way
	// inserts nothing.
	before := len(t.rows)
	if err := q.run(store); err != nil {
		t.rows = t.rows[:before]
		for _, ix := range t.indexes {
			ix.rebuild(t.rows)
		}
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

// run streams the statement's result rows, arm after arm, into out, which
// owns each row it is handed.
func (q *query) run(out func(vals []Value)) error {
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

// collect materializes the result.
func (q *query) collect() (*Rows, error) {
	rows := &Rows{Cols: q.names, Data: [][]Value{}}
	if err := q.run(func(vals []Value) { rows.Data = append(rows.Data, vals) }); err != nil {
		return nil, err
	}
	return rows, nil
}

// reads reports whether a pipeline of the statement scans or probes t's
// heap while it runs (derived tables and IN subqueries are done reading by
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
