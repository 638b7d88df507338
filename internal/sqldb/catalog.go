package sqldb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ScalarFunc is a user-defined scalar function. Implementations must be pure
// (the planner may re-order or repeat calls) and safe for concurrent use.
// Where a call reads the columns of one FROM item only, the engine may
// evaluate it once per row of that item and reuse the result for every
// joined row it appears in.
// args is valid only for the duration of the call: the engine refills one
// argument buffer per call site for every row, so an implementation that
// wants an argument later copies the Value out and never keeps the slice.
// The paper's framework relies on UDFs for edit similarity and Jaro–Winkler
// (§4.4, Appendix B.4.3); predicates register them the same way here.
type ScalarFunc func(args []Value) (Value, error)

// Table is an in-memory table: its rows, stored column by column, plus any
// secondary equality indexes.
type Table struct {
	name    string
	defs    []columnDef
	colIdx  map[string]int
	rel     relation
	indexes map[string]*index // keyed by column name
}

// index is an equality index on one column: the table's positions chained
// per distinct value in row order — a joinTable whose keys are the column's
// values. NULLs are not chained, since a NULL key matches nothing.
type index struct {
	col int
	joinTable
}

// add chains position len(ix.next), whose value is v.
func (ix *index) add(v Value) {
	id := int32(-1)
	if !v.IsNull() {
		id, _ = ix.keys.add(v)
	}
	ix.link(id)
}

// rebuild indexes r afresh.
func (ix *index) rebuild(r *relation) {
	c := &r.cols[ix.col]
	*ix = index{col: ix.col, joinTable: joinTable{keys: keyIndex{dict: c.dict}}}
	for i := 0; i < r.n; i++ {
		ix.add(c.value(int32(i)))
	}
}

// Name returns the table's name as created.
func (t *Table) Name() string { return t.name }

// NumRows returns the number of rows currently stored.
func (t *Table) NumRows() int { return t.rel.n }

// Columns returns the column names in declaration order.
func (t *Table) Columns() []string {
	out := make([]string, len(t.defs))
	for i, c := range t.defs {
		out[i] = c.Name
	}
	return out
}

// kinds returns the column types in declaration order.
func (t *Table) kinds() []Kind {
	out := make([]Kind, len(t.defs))
	for i, c := range t.defs {
		out[i] = c.Type
	}
	return out
}

// appendRow stores one row, coerced to the column types; vals is not
// retained.
func (t *Table) appendRow(vals []Value) {
	pos := int32(t.rel.n)
	t.rel.appendRow(vals)
	for _, ix := range t.indexes {
		ix.add(t.rel.cols[ix.col].value(pos))
	}
}

// appendBatch stores the rows of a batch (see relation.appendBatch).
func (t *Table) appendBatch(from []int, cols []*vec, sel []int32) {
	n := t.rel.n
	t.rel.appendBatch(from, cols, sel)
	for _, ix := range t.indexes {
		for p := int32(n); p < int32(t.rel.n); p++ {
			ix.add(t.rel.cols[ix.col].value(p))
		}
	}
}

// truncate drops every row from position n on, releasing their VARCHAR
// cells.
func (t *Table) truncate(n int) {
	t.rel.truncate(n)
	t.reindex()
}

func (t *Table) reindex() {
	for _, ix := range t.indexes {
		ix.rebuild(&t.rel)
	}
}

// DB is an in-memory database: a catalog of tables, the dictionary their
// VARCHAR cells are codes in, and registered scalar functions. All public
// methods are safe for concurrent use; writes take an exclusive lock.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
	dict   *dict
	funcs  map[string]ScalarFunc
}

// New creates an empty database.
func New() *DB {
	return &DB{
		tables: make(map[string]*Table),
		dict:   newDict(),
		funcs:  make(map[string]ScalarFunc),
	}
}

// RegisterFunc registers (or replaces) a user-defined scalar function under
// the given case-insensitive name. Registered names shadow nothing: built-in
// functions take precedence at call sites with the same name.
func (db *DB) RegisterFunc(name string, fn ScalarFunc) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.funcs[strings.ToUpper(name)] = fn
}

// Table returns the named table, or nil if it does not exist.
func (db *DB) Table(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[strings.ToLower(name)]
}

// TableNames returns the names of all tables, sorted.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DictionarySize returns how many distinct strings the database's VARCHAR
// cells hold, and how many dictionary codes exist, held or free to reuse.
func (db *DB) DictionarySize() (held, codes int) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.dict.live(), len(db.dict.strs) - 1
}

// CreateTable creates a table programmatically. Column kinds must be one of
// KindInt, KindFloat, KindString.
func (db *DB) CreateTable(name string, columns []string, kinds []Kind) error {
	if len(columns) != len(kinds) {
		return fmt.Errorf("sqldb: CreateTable %s: %d columns but %d kinds", name, len(columns), len(kinds))
	}
	defs := make([]columnDef, len(columns))
	for i := range columns {
		defs[i] = columnDef{Name: strings.ToLower(columns[i]), Type: kinds[i]}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.createTableLocked(strings.ToLower(name), defs, false)
}

func (db *DB) createTableLocked(name string, cols []columnDef, ifNotExists bool) error {
	if _, ok := db.tables[name]; ok {
		if ifNotExists {
			return nil
		}
		return fmt.Errorf("sqldb: table %q already exists", name)
	}
	colIdx := make(map[string]int, len(cols))
	for i, c := range cols {
		if _, dup := colIdx[c.Name]; dup {
			return fmt.Errorf("sqldb: duplicate column %q in table %q", c.Name, name)
		}
		colIdx[c.Name] = i
	}
	t := &Table{
		name:    name,
		defs:    cols,
		colIdx:  colIdx,
		indexes: make(map[string]*index),
	}
	t.rel = *newRelation(t.kinds(), db.dict)
	db.tables[name] = t
	return nil
}

// DropTable removes a table if it exists.
func (db *DB) DropTable(name string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.dropLocked(strings.ToLower(name))
}

// dropLocked removes the named table, if it exists, and releases its
// VARCHAR cells.
func (db *DB) dropLocked(name string) {
	if t := db.tables[name]; t != nil {
		t.rel.truncate(0)
		delete(db.tables, name)
	}
}

// BulkInsert appends rows to a table without going through the SQL layer.
// Values are coerced to the column types and copied: rows is not retained.
// It is the fast path used when loading base relations; the declarative
// predicates still perform their preprocessing in SQL.
func (db *DB) BulkInsert(name string, rows [][]Value) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t := db.tables[strings.ToLower(name)]
	if t == nil {
		return fmt.Errorf("sqldb: unknown table %q", name)
	}
	for _, row := range rows {
		if len(row) != len(t.defs) {
			return fmt.Errorf("sqldb: BulkInsert %s: row has %d values, want %d", name, len(row), len(t.defs))
		}
		t.appendRow(row)
	}
	return nil
}

// CreateIndexOn creates an equality index on a single column
// programmatically. Creating an index that already exists is a no-op.
func (db *DB) CreateIndexOn(table, column string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.createIndexLocked(table, column)
}

// Rows is the materialized result of a query.
type Rows struct {
	// Cols holds the output column names, lower-cased.
	Cols []string
	// Data holds the rows in result order.
	Data [][]Value
}

// ColumnIndex returns the position of the named output column, or -1.
func (r *Rows) ColumnIndex(name string) int {
	name = strings.ToLower(name)
	for i, c := range r.Cols {
		if c == name {
			return i
		}
	}
	return -1
}
