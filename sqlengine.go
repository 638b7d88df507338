package approxsel

import (
	"repro/internal/sqldb"
)

// SQLDB is the bundled in-memory SQL engine the declarative predicates run
// on, exposed so applications can realize their own similarity predicates
// declaratively — the extensibility story of the paper's framework. See
// NewSQLDB.
type SQLDB = sqldb.DB

// SQLRows is a materialized query result from the SQL engine.
type SQLRows = sqldb.Rows

// SQLValue is a runtime value of the SQL engine (NULL, INT, DOUBLE or
// VARCHAR).
type SQLValue = sqldb.Value

// SQLFunc is a user-defined scalar function registerable on the engine,
// like the paper's edit-similarity and Jaro–Winkler UDFs. It must be pure
// and safe for concurrent use, and its args slice is valid only for the
// duration of the call — the engine reuses it for the next row; copy out
// any value needed later.
type SQLFunc = sqldb.ScalarFunc

// NewSQLDB creates an empty database. The engine supports the SQL subset
// the paper's declarative framework needs: CREATE TABLE / CREATE INDEX /
// INSERT (VALUES and SELECT) / DELETE / SELECT with multi-table joins,
// derived tables, GROUP BY / HAVING / ORDER BY / LIMIT / DISTINCT /
// UNION ALL, aggregate functions, the MySQL scalar functions used by the
// thesis appendices, '?' placeholders and user-defined functions.
//
//	db := approxsel.NewSQLDB()
//	db.Exec("CREATE TABLE base_tokens (tid INT, token VARCHAR(8))")
//	db.RegisterFunc("EDITSIM", myEditSim)
//	rows, err := db.Query("SELECT ...")
func NewSQLDB() *SQLDB { return sqldb.New() }

// SQLNull returns the engine's NULL value.
func SQLNull() SQLValue { return sqldb.Null() }

// SQLInt wraps an integer as an engine value.
func SQLInt(i int64) SQLValue { return sqldb.Int(i) }

// SQLFloat wraps a float as an engine value.
func SQLFloat(f float64) SQLValue { return sqldb.Float(f) }

// SQLString wraps a string as an engine value.
func SQLString(s string) SQLValue { return sqldb.String(s) }
