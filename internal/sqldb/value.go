// Package sqldb is a small in-memory SQL engine built for the benchmark: it
// executes the declarative realizations of the paper's similarity predicates
// (the SQL of Appendix A/B) against in-memory tables, playing the role MySQL
// 5.0 plays in the original study.
//
// The engine supports the SQL subset the paper's statements need:
//
//   - CREATE TABLE / DROP TABLE / CREATE INDEX / DELETE / INSERT (VALUES and
//     INSERT ... SELECT)
//   - SELECT with multi-table FROM (comma joins and INNER JOIN ... ON),
//     derived tables (subqueries in FROM), WHERE, GROUP BY, HAVING,
//     ORDER BY, LIMIT, DISTINCT and UNION ALL
//   - aggregates COUNT(*) / COUNT / COUNT(DISTINCT) / SUM / AVG / MIN / MAX
//   - the scalar functions used by Appendix A/B (LOG, EXP, POWER, SQRT,
//     SUBSTRING, CONCAT, REPLACE, UPPER, LOCATE, REVERSE, LENGTH, ...)
//   - user-defined scalar functions (the paper relies on UDFs for edit
//     similarity and Jaro–Winkler), registered with RegisterFunc
//   - uncorrelated IN / NOT IN subqueries and ? placeholders
//
// A table stores its rows column by column: INT as an int64 vector, DOUBLE
// as a float64 vector, VARCHAR as a string vector, with a NULL bitmap that
// exists only once a NULL does. A row is a position in those vectors; no
// Value and no heap object is kept per row. An index chains a column's
// positions per distinct value, in row order, with one int32 link per row.
//
// A SELECT runs as plan → pipeline → sink. planSelect fixes the join order
// with a small greedy optimizer — smallest relation first, then index
// nested-loop joins into indexed base tables, hash joins otherwise, mirroring
// how MySQL executes the paper's token-join queries when the token columns
// are indexed — and compiles every key, conjunct and select expression once;
// a column reference compiles to a read of its vector. The joins then
// stream: each stage binds a row position into its slot of the statement's
// one evaluation frame, applies the conjuncts that just became evaluable and
// hands the frame on, in a fixed emission order (outer order, then index
// chain or row order) so float SUMs associate the same way every run. The
// sink is the projection — GROUP BY state proportionate to groups, not
// joined rows — which refills one output row buffer: INSERT ... SELECT and
// derived tables copy it into columns, and only Query's Rows and the rows
// awaiting ORDER BY allocate rows. Derived tables and IN subqueries are
// materialized as relations of the same column layout; pushed-down filters
// as position lists; a hash stage holds back at most its relation's row
// count of upstream frames, as positions.
package sqldb

import (
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the runtime value types of the engine.
type Kind uint8

// The supported value kinds. Integer and floating point values compare and
// join with numeric promotion, as in MySQL.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single SQL value. The zero Value is NULL.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
}

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(i int64) Value { return Value{Kind: KindInt, I: i} }

// Float returns a floating point value.
func Float(f float64) Value { return Value{Kind: KindFloat, F: f} }

// String returns a string value.
func String(s string) Value { return Value{Kind: KindString, S: s} }

// Bool returns the engine's representation of a boolean: 1 or 0, as MySQL.
func Bool(b bool) Value {
	if b {
		return Int(1)
	}
	return Int(0)
}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// AsFloat converts a numeric value to float64. Strings are parsed as numbers
// (MySQL-style best effort, defaulting to 0); NULL converts to 0.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt:
		return float64(v.I)
	case KindFloat:
		return v.F
	case KindString:
		f, err := strconv.ParseFloat(v.S, 64)
		if err != nil {
			return 0
		}
		return f
	default:
		return 0
	}
}

// AsInt converts a numeric value to int64, truncating floats toward zero.
func (v Value) AsInt() int64 {
	switch v.Kind {
	case KindInt:
		return v.I
	case KindFloat:
		return int64(v.F)
	case KindString:
		i, err := strconv.ParseInt(v.S, 10, 64)
		if err != nil {
			return int64(v.AsFloat())
		}
		return i
	default:
		return 0
	}
}

// AsString renders the value as a string, the way MySQL coerces values in
// string context.
func (v Value) AsString() string {
	switch v.Kind {
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	default:
		return "NULL"
	}
}

// Truthy reports whether the value is true in a boolean context: non-zero
// and non-NULL.
func (v Value) Truthy() bool {
	switch v.Kind {
	case KindInt:
		return v.I != 0
	case KindFloat:
		return v.F != 0
	case KindString:
		return v.AsFloat() != 0
	default:
		return false
	}
}

// String implements fmt.Stringer for debugging output.
func (v Value) String() string {
	if v.Kind == KindString {
		return strconv.Quote(v.S)
	}
	return v.AsString()
}

// numeric reports whether the value is an INT or DOUBLE.
func (v Value) numeric() bool { return v.Kind == KindInt || v.Kind == KindFloat }

// Compare orders two non-NULL values. Numeric values compare numerically
// with promotion; strings compare lexicographically; a numeric value and a
// string compare numerically (MySQL coercion). The boolean result is false
// when either side is NULL (three-valued logic: the comparison is unknown).
func Compare(a, b Value) (int, bool) {
	if a.IsNull() || b.IsNull() {
		return 0, false
	}
	if a.Kind == KindString && b.Kind == KindString {
		switch {
		case a.S < b.S:
			return -1, true
		case a.S > b.S:
			return 1, true
		default:
			return 0, true
		}
	}
	if a.Kind == KindInt && b.Kind == KindInt {
		switch {
		case a.I < b.I:
			return -1, true
		case a.I > b.I:
			return 1, true
		default:
			return 0, true
		}
	}
	af, bf := a.AsFloat(), b.AsFloat()
	switch {
	case af < bf:
		return -1, true
	case af > bf:
		return 1, true
	default:
		return 0, true
	}
}

// key is the normalized hash-key representation of a value used by joins,
// GROUP BY, DISTINCT and indexes. Numeric values that float64 can represent
// exactly normalize to float64 so that INT 1 and DOUBLE 1.0 land in the same
// bucket; integers beyond 2^53 (e.g. the min-hash values the GESapx
// realization stores) keep their exact int64 representation, as do integral
// floats in that range, so no distinct keys ever collide.
type key struct {
	kind byte // 'n' null, 'f' float-normalized, 'i' exact integer, 's' string
	f    float64
	i    int64
	s    string
}

const float64ExactInt = int64(1) << 53

func (v Value) hashKey() key {
	switch v.Kind {
	case KindInt:
		if v.I >= -float64ExactInt && v.I <= float64ExactInt {
			return key{kind: 'f', f: float64(v.I)}
		}
		return key{kind: 'i', i: v.I}
	case KindFloat:
		// Floats above 2^53 are all integral; represent them exactly as
		// int64 when possible so they join with equal-valued integers.
		const maxInt64Float = float64(1) * (1 << 62) * 2 // 2^63
		if v.F > float64(float64ExactInt) && v.F < maxInt64Float {
			return key{kind: 'i', i: int64(v.F)}
		}
		if v.F < -float64(float64ExactInt) && v.F >= -maxInt64Float {
			return key{kind: 'i', i: int64(v.F)}
		}
		return key{kind: 'f', f: v.F}
	case KindString:
		return key{kind: 's', s: v.S}
	default:
		return key{kind: 'n'}
	}
}

// coerce converts v to the column kind k on insert, mirroring MySQL's
// assignment coercions. NULL stays NULL.
func coerce(v Value, k Kind) Value {
	if v.IsNull() {
		return v
	}
	switch k {
	case KindInt:
		if v.Kind == KindInt {
			return v
		}
		return Int(v.AsInt())
	case KindFloat:
		if v.Kind == KindFloat {
			return v
		}
		return Float(v.AsFloat())
	case KindString:
		if v.Kind == KindString {
			return v
		}
		return String(v.AsString())
	default:
		return v
	}
}

// arith applies a binary arithmetic operator. Division always yields DOUBLE
// (the paper's score formulas depend on fractional division, as in MySQL);
// +, -, * stay integral when both operands are integers. Any NULL operand
// yields NULL.
func arith(op string, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null(), nil
	}
	if op == "/" {
		den := b.AsFloat()
		if den == 0 {
			return Null(), nil // MySQL: division by zero yields NULL
		}
		return Float(a.AsFloat() / den), nil
	}
	if a.Kind == KindInt && b.Kind == KindInt {
		switch op {
		case "+":
			return Int(a.I + b.I), nil
		case "-":
			return Int(a.I - b.I), nil
		case "*":
			return Int(a.I * b.I), nil
		case "%":
			if b.I == 0 {
				return Null(), nil
			}
			return Int(a.I % b.I), nil
		}
	}
	af, bf := a.AsFloat(), b.AsFloat()
	switch op {
	case "+":
		return Float(af + bf), nil
	case "-":
		return Float(af - bf), nil
	case "*":
		return Float(af * bf), nil
	case "%":
		if bf == 0 {
			return Null(), nil
		}
		return Float(math.Mod(af, bf)), nil
	}
	return Null(), fmt.Errorf("sqldb: unknown arithmetic operator %q", op)
}
