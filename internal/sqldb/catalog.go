package sqldb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ScalarFunc is a user-defined scalar function. Implementations must be pure
// (the planner may re-order or repeat calls) and safe for concurrent use.
// args is valid only for the duration of the call: the engine refills one
// argument buffer per call site for every row, so an implementation that
// wants an argument later copies the Value out and never keeps the slice.
// The paper's framework relies on UDFs for edit similarity and Jaro–Winkler
// (§4.4, Appendix B.4.3); predicates register them the same way here.
type ScalarFunc func(args []Value) (Value, error)

// Table is an in-memory heap of rows plus any secondary hash indexes.
type Table struct {
	name    string
	cols    []columnDef
	colIdx  map[string]int
	rows    [][]Value
	indexes map[string]*hashIndex // keyed by column name
}

// hashIndex is an equality index: normalized value → row positions.
type hashIndex struct {
	col     int
	buckets map[key][]int
}

func newHashIndex(col int) *hashIndex {
	return &hashIndex{col: col, buckets: make(map[key][]int)}
}

func (ix *hashIndex) add(rowPos int, row []Value) {
	k := row[ix.col].hashKey()
	ix.buckets[k] = append(ix.buckets[k], rowPos)
}

func (ix *hashIndex) rebuild(rows [][]Value) {
	ix.buckets = make(map[key][]int, len(rows))
	for i, row := range rows {
		ix.add(i, row)
	}
}

// Name returns the table's name as created.
func (t *Table) Name() string { return t.name }

// NumRows returns the number of rows currently stored.
func (t *Table) NumRows() int { return len(t.rows) }

// Columns returns the column names in declaration order.
func (t *Table) Columns() []string {
	out := make([]string, len(t.cols))
	for i, c := range t.cols {
		out[i] = c.Name
	}
	return out
}

func (t *Table) appendRow(row []Value) {
	pos := len(t.rows)
	t.rows = append(t.rows, row)
	for _, ix := range t.indexes {
		ix.add(pos, row)
	}
}

// DB is an in-memory database: a catalog of tables plus registered scalar
// functions. All public methods are safe for concurrent use; writes take an
// exclusive lock.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
	funcs  map[string]ScalarFunc
}

// New creates an empty database.
func New() *DB {
	return &DB{
		tables: make(map[string]*Table),
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
	db.tables[name] = &Table{
		name:    name,
		cols:    cols,
		colIdx:  colIdx,
		indexes: make(map[string]*hashIndex),
	}
	return nil
}

// DropTable removes a table if it exists.
func (db *DB) DropTable(name string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	delete(db.tables, strings.ToLower(name))
}

// BulkInsert appends rows to a table without going through the SQL layer.
// Values are coerced to the column types. It is the fast path used when
// loading base relations; the declarative predicates still perform their
// preprocessing in SQL.
func (db *DB) BulkInsert(name string, rows [][]Value) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t := db.tables[strings.ToLower(name)]
	if t == nil {
		return fmt.Errorf("sqldb: unknown table %q", name)
	}
	for _, row := range rows {
		if len(row) != len(t.cols) {
			return fmt.Errorf("sqldb: BulkInsert %s: row has %d values, want %d", name, len(row), len(t.cols))
		}
		stored := make([]Value, len(row))
		for i, v := range row {
			stored[i] = coerce(v, t.cols[i].Type)
		}
		t.appendRow(stored)
	}
	return nil
}

// CreateIndexOn creates a hash index on a single column programmatically.
// Creating an index that already exists is a no-op.
func (db *DB) CreateIndexOn(table, column string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
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
