package sqldb

import (
	"fmt"
	"strings"
)

// This file defines the abstract syntax tree produced by the parser.

// stmt is any parsed SQL statement.
type stmt interface{ isStmt() }

// columnDef is one column of a CREATE TABLE statement.
type columnDef struct {
	Name string
	Type Kind
}

type createTableStmt struct {
	Name        string
	IfNotExists bool
	Cols        []columnDef
}

type createIndexStmt struct {
	Name   string
	Table  string
	Column string
}

type dropTableStmt struct {
	Name     string
	IfExists bool
}

type deleteStmt struct {
	Table string
	Where expr // nil means all rows
}

type insertStmt struct {
	Table   string
	Columns []string    // optional explicit column list
	Rows    [][]expr    // VALUES form
	Select  *selectStmt // INSERT ... SELECT form
}

// selectStmt is a (possibly compound) SELECT.
type selectStmt struct {
	Distinct bool
	Items    []selectItem
	From     []tableRef
	Where    expr
	GroupBy  []expr
	Having   expr
	OrderBy  []orderItem
	Limit    expr // nil = no limit
	// Union chains additional SELECTs with UNION ALL semantics.
	Union *selectStmt
}

func (*createTableStmt) isStmt() {}
func (*createIndexStmt) isStmt() {}
func (*dropTableStmt) isStmt()   {}
func (*deleteStmt) isStmt()      {}
func (*insertStmt) isStmt()      {}
func (*selectStmt) isStmt()      {}

// selectItem is one projection in a SELECT list. Star items select every
// column of one table (T.*) or of the whole row (*).
type selectItem struct {
	Expr  expr
	Alias string
	Star  bool
	// StarTable qualifies a star item ("T.*"); empty for a bare "*".
	StarTable string
}

// tableRef is one entry in the FROM clause: either a named base table or a
// derived table (subquery), optionally with an INNER JOIN ... ON condition
// that attaches it to the refs to its left.
type tableRef struct {
	Name  string
	Sub   *selectStmt
	Alias string
	// On holds the ON condition when this ref was written with JOIN syntax.
	On expr
}

type orderItem struct {
	Expr expr
	Desc bool
}

// expr is any scalar or aggregate expression.
type expr interface{ isExpr() }

type literal struct{ Val Value }

// colRef references a column, optionally qualified with a table alias.
type colRef struct {
	Table string // lower-cased; empty if unqualified
	Name  string // lower-cased
}

type unaryExpr struct {
	Op string // "-" or "NOT"
	X  expr
}

type binaryExpr struct {
	Op   string // + - * / % = <> < <= > >= AND OR
	L, R expr
}

// funcCall is a scalar function, aggregate, or UDF call.
type funcCall struct {
	Name     string // upper-cased
	Args     []expr
	Star     bool // COUNT(*)
	Distinct bool // COUNT(DISTINCT x)
}

// inExpr is "x IN (subquery)" or "x IN (e1, e2, ...)", with optional NOT.
type inExpr struct {
	X    expr
	Sub  *selectStmt
	List []expr
	Not  bool
}

// isNullExpr is "x IS [NOT] NULL".
type isNullExpr struct {
	X   expr
	Not bool
}

// caseExpr is a searched CASE: CASE WHEN c THEN v ... [ELSE e] END.
type caseExpr struct {
	Whens []whenClause
	Else  expr
}

type whenClause struct {
	Cond expr
	Then expr
}

func (*literal) isExpr()    {}
func (*colRef) isExpr()     {}
func (*unaryExpr) isExpr()  {}
func (*binaryExpr) isExpr() {}
func (*funcCall) isExpr()   {}
func (*inExpr) isExpr()     {}
func (*isNullExpr) isExpr() {}
func (*caseExpr) isExpr()   {}

// exprString renders an expression for plan descriptions.
func exprString(e expr) string {
	switch x := e.(type) {
	case *literal:
		return x.Val.String()
	case *colRef:
		if x.Table == "" {
			return x.Name
		}
		return x.Table + "." + x.Name
	case *unaryExpr:
		return x.Op + " " + exprString(x.X)
	case *binaryExpr:
		return "(" + exprString(x.L) + " " + x.Op + " " + exprString(x.R) + ")"
	case *funcCall:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = exprString(a)
		}
		if x.Star {
			args = []string{"*"}
		}
		return x.Name + "(" + strings.Join(args, ", ") + ")"
	default:
		return fmt.Sprintf("%T", e)
	}
}
