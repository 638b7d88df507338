package sqldb

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"unicode/utf8"
)

// relCol is one column an expression can name: the table alias that
// produced it, its (lower-case) column name, and where its value lives — in
// col, the column of its FROM item's relation, at the position the
// evaluation frame binds in slot slot.
type relCol struct {
	qual string
	name string
	slot int
	col  *column
}

// relSchema is the set of columns an expression is compiled against.
type relSchema struct {
	cols []relCol
}

// resolve finds the column a reference names, as a position in s.cols.
// Unqualified names must be unambiguous across the schema.
func (s *relSchema) resolve(qual, name string) (int, error) {
	found := -1
	for i, c := range s.cols {
		if c.name != name {
			continue
		}
		if qual != "" && c.qual != qual {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("sqldb: ambiguous column reference %q", name)
		}
		found = i
	}
	if found < 0 {
		if qual != "" {
			return 0, fmt.Errorf("sqldb: unknown column %s.%s", qual, name)
		}
		return 0, fmt.Errorf("sqldb: unknown column %s", name)
	}
	return found, nil
}

// evalCtx is the evaluation frame of one statement: pos holds, for each FROM
// item, the position of the row currently bound (a join stage binds its
// slot; a row is never copied). While a grouped query emits a group, pos
// holds the group's representative row positions — −1 for a group with no
// rows — and aggs its finalized aggregates.
type evalCtx struct {
	pos  []int32
	aggs []Value
}

// evalFn is a compiled expression.
type evalFn func(ctx *evalCtx) (Value, error)

// aggSpec is one aggregate call discovered during compilation. Its arg is
// evaluated per input row; its position in compiler.aggs indexes
// evalCtx.aggs. Structurally identical calls share one spec.
type aggSpec struct {
	call    *funcCall
	op      aggOp
	arg     evalFn    // nil for COUNT(*)
	seen    *keyIndex // DISTINCT: the (group, value) pairs fed so far
	extreme int       // MIN, MAX: position among the group's running extremes
}

type aggOp uint8

const (
	aggCount aggOp = iota
	aggSum
	aggAvg
	aggMin
	aggMax
)

// compiler compiles expressions against a schema. In grouped mode it
// accumulates the aggregate specs of the expressions it compiles, and
// column references outside aggregate arguments read the group's
// representative row: rep lists the frame slots those expressions read.
// With plan set, what it compiles is evaluated at stage stage of plan, and
// memoized where that plan says row positions repeat (see memoSlot).
type compiler struct {
	db      *DB
	schema  *relSchema
	grouped bool
	aggs    []aggSpec
	rep     []int
	inAgg   bool
	plan    *selectPlan
	stage   int
}

// aggOps names the aggregate functions.
var aggOps = map[string]aggOp{
	"COUNT": aggCount, "SUM": aggSum, "AVG": aggAvg, "MIN": aggMin, "MAX": aggMax,
}

// isAggCall reports whether x calls an aggregate. MIN/MAX with two or more
// arguments are the scalar LEAST/GREATEST-style functions, not aggregates.
func isAggCall(x *funcCall) bool {
	_, ok := aggOps[x.Name]
	return ok && (x.Star || len(x.Args) == 1)
}

// isAggregate reports whether the expression contains an aggregate call.
func isAggregate(e expr) bool {
	switch x := e.(type) {
	case *literal, *colRef:
		return false
	case *unaryExpr:
		return isAggregate(x.X)
	case *binaryExpr:
		return isAggregate(x.L) || isAggregate(x.R)
	case *funcCall:
		if isAggCall(x) {
			return true
		}
		for _, a := range x.Args {
			if isAggregate(a) {
				return true
			}
		}
		return false
	case *inExpr:
		return isAggregate(x.X)
	case *isNullExpr:
		return isAggregate(x.X)
	case *caseExpr:
		for _, w := range x.Whens {
			if isAggregate(w.Cond) || isAggregate(w.Then) {
				return true
			}
		}
		return x.Else != nil && isAggregate(x.Else)
	default:
		return false
	}
}

func (c *compiler) compile(e expr) (evalFn, error) {
	if slot, ok := c.memoSlot(e); ok {
		return c.compileMemo(e, slot)
	}
	switch x := e.(type) {
	case *literal:
		v := x.Val
		return func(*evalCtx) (Value, error) { return v, nil }, nil

	case *colRef:
		pos, err := c.schema.resolve(x.Table, x.Name)
		if err != nil {
			return nil, err
		}
		col, slot := c.schema.cols[pos].col, c.schema.cols[pos].slot
		if c.grouped && !c.inAgg {
			c.repSlot(slot)
			return func(ctx *evalCtx) (Value, error) {
				if p := ctx.pos[slot]; p >= 0 {
					return col.value(p), nil
				}
				return Null(), nil
			}, nil
		}
		return col.reader(slot), nil

	case *unaryExpr:
		inner, err := c.compile(x.X)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "-":
			return func(ctx *evalCtx) (Value, error) {
				v, err := inner(ctx)
				if err != nil || v.IsNull() {
					return Null(), err
				}
				if v.Kind == KindInt {
					return Int(-v.I), nil
				}
				return Float(-v.AsFloat()), nil
			}, nil
		case "NOT":
			return func(ctx *evalCtx) (Value, error) {
				v, err := inner(ctx)
				if err != nil || v.IsNull() {
					return Null(), err
				}
				return Bool(!v.Truthy()), nil
			}, nil
		default:
			return nil, fmt.Errorf("sqldb: unknown unary operator %q", x.Op)
		}

	case *binaryExpr:
		return c.compileBinary(x)

	case *funcCall:
		return c.compileFunc(x)

	case *inExpr:
		return c.compileIn(x)

	case *isNullExpr:
		inner, err := c.compile(x.X)
		if err != nil {
			return nil, err
		}
		not := x.Not
		return func(ctx *evalCtx) (Value, error) {
			v, err := inner(ctx)
			if err != nil {
				return Null(), err
			}
			return Bool(v.IsNull() != not), nil
		}, nil

	case *caseExpr:
		type compiledWhen struct{ cond, then evalFn }
		whens := make([]compiledWhen, len(x.Whens))
		for i, w := range x.Whens {
			cond, err := c.compile(w.Cond)
			if err != nil {
				return nil, err
			}
			then, err := c.compile(w.Then)
			if err != nil {
				return nil, err
			}
			whens[i] = compiledWhen{cond, then}
		}
		var elseFn evalFn
		if x.Else != nil {
			var err error
			elseFn, err = c.compile(x.Else)
			if err != nil {
				return nil, err
			}
		}
		return func(ctx *evalCtx) (Value, error) {
			for _, w := range whens {
				v, err := w.cond(ctx)
				if err != nil {
					return Null(), err
				}
				if v.Truthy() {
					return w.then(ctx)
				}
			}
			if elseFn != nil {
				return elseFn(ctx)
			}
			return Null(), nil
		}, nil

	default:
		return nil, fmt.Errorf("sqldb: cannot compile expression of type %T", e)
	}
}

func (c *compiler) compileBinary(x *binaryExpr) (evalFn, error) {
	l, err := c.compile(x.L)
	if err != nil {
		return nil, err
	}
	r, err := c.compile(x.R)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "+", "-", "*", "/", "%":
		op := x.Op
		return func(ctx *evalCtx) (Value, error) {
			lv, err := l(ctx)
			if err != nil {
				return Null(), err
			}
			rv, err := r(ctx)
			if err != nil {
				return Null(), err
			}
			return arith(op, lv, rv)
		}, nil
	case "=", "<>", "<", "<=", ">", ">=":
		op := x.Op
		return func(ctx *evalCtx) (Value, error) {
			lv, err := l(ctx)
			if err != nil {
				return Null(), err
			}
			rv, err := r(ctx)
			if err != nil {
				return Null(), err
			}
			cmp, ok := Compare(lv, rv)
			if !ok {
				return Null(), nil
			}
			var res bool
			switch op {
			case "=":
				res = cmp == 0
			case "<>":
				res = cmp != 0
			case "<":
				res = cmp < 0
			case "<=":
				res = cmp <= 0
			case ">":
				res = cmp > 0
			case ">=":
				res = cmp >= 0
			}
			return Bool(res), nil
		}, nil
	case "AND":
		return func(ctx *evalCtx) (Value, error) {
			lv, err := l(ctx)
			if err != nil {
				return Null(), err
			}
			if !lv.IsNull() && !lv.Truthy() {
				return Bool(false), nil
			}
			rv, err := r(ctx)
			if err != nil {
				return Null(), err
			}
			if !rv.IsNull() && !rv.Truthy() {
				return Bool(false), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return Null(), nil
			}
			return Bool(true), nil
		}, nil
	case "OR":
		return func(ctx *evalCtx) (Value, error) {
			lv, err := l(ctx)
			if err != nil {
				return Null(), err
			}
			if lv.Truthy() {
				return Bool(true), nil
			}
			rv, err := r(ctx)
			if err != nil {
				return Null(), err
			}
			if rv.Truthy() {
				return Bool(true), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return Null(), nil
			}
			return Bool(false), nil
		}, nil
	default:
		return nil, fmt.Errorf("sqldb: unknown binary operator %q", x.Op)
	}
}

func (c *compiler) compileIn(x *inExpr) (evalFn, error) {
	inner, err := c.compile(x.X)
	if err != nil {
		return nil, err
	}
	not := x.Not
	if x.Sub != nil {
		// Uncorrelated subquery: evaluate once at compile time.
		rel, names, err := c.db.materialize(x.Sub)
		if err != nil {
			return nil, fmt.Errorf("sqldb: IN subquery: %w", err)
		}
		if len(names) != 1 {
			return nil, fmt.Errorf("sqldb: IN subquery must return one column, got %d", len(names))
		}
		set := keyIndex{dict: c.db.dict}
		hasNull := false
		for i := int32(0); i < int32(rel.n); i++ {
			if v := rel.cols[0].value(i); v.IsNull() {
				hasNull = true
			} else {
				set.add(v)
			}
		}
		return func(ctx *evalCtx) (Value, error) {
			v, err := inner(ctx)
			if err != nil || v.IsNull() {
				return Null(), err
			}
			if set.lookup(v) >= 0 {
				return Bool(!not), nil
			}
			if hasNull {
				return Null(), nil
			}
			return Bool(not), nil
		}, nil
	}
	items := make([]evalFn, len(x.List))
	for i, e := range x.List {
		fn, err := c.compile(e)
		if err != nil {
			return nil, err
		}
		items[i] = fn
	}
	return func(ctx *evalCtx) (Value, error) {
		v, err := inner(ctx)
		if err != nil || v.IsNull() {
			return Null(), err
		}
		sawNull := false
		for _, it := range items {
			iv, err := it(ctx)
			if err != nil {
				return Null(), err
			}
			if iv.IsNull() {
				sawNull = true
				continue
			}
			if cmp, ok := Compare(v, iv); ok && cmp == 0 {
				return Bool(!not), nil
			}
		}
		if sawNull {
			return Null(), nil
		}
		return Bool(not), nil
	}, nil
}

// memoSlot reports whether e is memoized where the compiler's code runs,
// and by the row position in which frame slot. e qualifies when it calls a
// scalar function (recomputing plain arithmetic is cheaper than a lookup),
// contains no aggregate, reads columns of exactly one FROM item, and the
// plan says that item's positions repeat at the compiler's stage. Every
// builtin and ScalarFunc is pure, so e's value is a function of the row.
func (c *compiler) memoSlot(e expr) (int, bool) {
	if c.plan == nil {
		return 0, false
	}
	slot, call := -1, false
	var reads func(expr) bool // reports whether every column read is slot's
	reads = func(e expr) bool {
		switch x := e.(type) {
		case nil, *literal:
			return true
		case *colRef:
			pos, err := c.schema.resolve(x.Table, x.Name)
			if err != nil || slot >= 0 && c.schema.cols[pos].slot != slot {
				return false
			}
			slot = c.schema.cols[pos].slot
			return true
		case *unaryExpr:
			return reads(x.X)
		case *binaryExpr:
			return reads(x.L) && reads(x.R)
		case *funcCall:
			if isAggCall(x) {
				return false
			}
			call = true
			for _, a := range x.Args {
				if !reads(a) {
					return false
				}
			}
			return true
		case *inExpr:
			for _, a := range x.List {
				if !reads(a) {
					return false
				}
			}
			return reads(x.X) // a subquery is uncorrelated
		case *isNullExpr:
			return reads(x.X)
		case *caseExpr:
			for _, w := range x.Whens {
				if !reads(w.Cond) || !reads(w.Then) {
					return false
				}
			}
			return reads(x.Else)
		default:
			return false
		}
	}
	ok := reads(e) && call && slot >= 0 && c.plan.repeats(c.stage, slot)
	return slot, ok
}

// memoEntry is one row's memoized value; set tells a NULL from no entry.
type memoEntry struct {
	v   Value
	set bool
}

// compileMemo compiles e, which memoSlot accepted, to a function that
// evaluates it at most once per row of the FROM item in frame slot slot.
// It evaluates only when asked, as the unmemoized expression would, so
// short-circuits and filter order still decide which rows reach a UDF. The
// cache is allocated on the first call, one entry per row of the item, and
// lives as long as the statement's plan; an error is never cached, and
// position −1 (a group with no rows) is not a row, so it is recomputed.
func (c *compiler) compileMemo(e expr, slot int) (evalFn, error) {
	plan := c.plan
	c.plan = nil // memoize the largest qualifying subexpression, not its parts
	fn, err := c.compile(e)
	c.plan = plan
	if err != nil {
		return nil, err
	}
	plan.stages[c.stage].memos++
	rows := plan.sources[slot].rel.n
	var cache []memoEntry
	return func(ctx *evalCtx) (Value, error) {
		p := ctx.pos[slot]
		if p < 0 {
			return fn(ctx)
		}
		if cache == nil {
			cache = make([]memoEntry, rows)
		}
		if m := &cache[p]; m.set {
			return m.v, nil
		}
		v, err := fn(ctx)
		if err == nil {
			cache[p] = memoEntry{v, true}
		}
		return v, err
	}, nil
}

// repSlot registers frame slot slot as one a group's representative row
// must bind.
func (c *compiler) repSlot(slot int) {
	for _, s := range c.rep {
		if s == slot {
			return
		}
	}
	c.rep = append(c.rep, slot)
}

// compileAggregate compiles an aggregate call to a read of its slot in
// evalCtx.aggs. A call structurally identical to one already registered —
// Jaccard's two COUNT(*) — reads that call's slot, so it is fed once per
// row.
func (c *compiler) compileAggregate(x *funcCall) (evalFn, error) {
	if !c.grouped || c.inAgg {
		return nil, fmt.Errorf("sqldb: aggregate %s not allowed here", x.Name)
	}
	slot := -1
	for i := range c.aggs {
		if reflect.DeepEqual(c.aggs[i].call, x) {
			slot = i
			break
		}
	}
	if slot < 0 {
		spec := aggSpec{call: x, op: aggOps[x.Name]}
		if x.Distinct {
			spec.seen = &keyIndex{dict: c.db.dict}
		}
		if !x.Star {
			c.inAgg = true
			arg, err := c.compile(x.Args[0])
			c.inAgg = false
			if err != nil {
				return nil, err
			}
			spec.arg = arg
		}
		slot = len(c.aggs)
		c.aggs = append(c.aggs, spec)
	}
	return func(ctx *evalCtx) (Value, error) { return ctx.aggs[slot], nil }, nil
}

func (c *compiler) compileFunc(x *funcCall) (evalFn, error) {
	if isAggCall(x) {
		return c.compileAggregate(x)
	}

	args := make([]evalFn, len(x.Args))
	for i, a := range x.Args {
		fn, err := c.compile(a)
		if err != nil {
			return nil, err
		}
		args[i] = fn
	}
	var impl ScalarFunc
	registered := false
	if fn, ok := builtinFuncs[x.Name]; ok {
		if err := fn.checkArity(x.Name, len(args)); err != nil {
			return nil, err
		}
		impl = fn.impl
	} else if impl, registered = c.db.funcs[x.Name]; !registered {
		// No locking here: compilation always happens under the public
		// API's database lock (Exec holds the write lock, Query the read
		// lock).
		return nil, fmt.Errorf("sqldb: unknown function %s", x.Name)
	}
	// One argument buffer per call site, refilled for every call: the
	// ScalarFunc contract makes it the callee's only for the call. A call
	// nested in an argument is another call site with its own buffer. A
	// registered function may keep an argument, so it gets none that
	// carries a code, which is valid for the statement only.
	vals := make([]Value, len(args))
	return func(ctx *evalCtx) (Value, error) {
		for i, fn := range args {
			v, err := fn(ctx)
			if err != nil {
				return Null(), err
			}
			if registered {
				v.code = 0
			}
			vals[i] = v
		}
		return impl(vals)
	}, nil
}

// builtin holds a built-in scalar function implementation and arity bounds.
type builtin struct {
	minArgs, maxArgs int // maxArgs < 0 means variadic
	impl             ScalarFunc
}

func (b builtin) checkArity(name string, n int) error {
	if n < b.minArgs || (b.maxArgs >= 0 && n > b.maxArgs) {
		return fmt.Errorf("sqldb: wrong number of arguments to %s: %d", name, n)
	}
	return nil
}

// anyNull reports whether any argument is NULL.
func anyNull(args []Value) bool {
	for _, a := range args {
		if a.IsNull() {
			return true
		}
	}
	return false
}

func numeric1(f func(x float64) (Value, error)) builtin {
	return builtin{1, 1, func(args []Value) (Value, error) {
		if anyNull(args) {
			return Null(), nil
		}
		return f(args[0].AsFloat())
	}}
}

var builtinFuncs = map[string]builtin{
	// MySQL LOG(x) is the natural logarithm; LOG(b, x) uses base b.
	// Non-positive arguments yield NULL, as in MySQL.
	"LOG": {1, 2, func(args []Value) (Value, error) {
		if anyNull(args) {
			return Null(), nil
		}
		if len(args) == 2 {
			b, x := args[0].AsFloat(), args[1].AsFloat()
			if b <= 0 || b == 1 || x <= 0 {
				return Null(), nil
			}
			return Float(math.Log(x) / math.Log(b)), nil
		}
		x := args[0].AsFloat()
		if x <= 0 {
			return Null(), nil
		}
		return Float(math.Log(x)), nil
	}},
	"LN": numeric1(func(x float64) (Value, error) {
		if x <= 0 {
			return Null(), nil
		}
		return Float(math.Log(x)), nil
	}),
	"EXP": numeric1(func(x float64) (Value, error) { return Float(math.Exp(x)), nil }),
	"SQRT": numeric1(func(x float64) (Value, error) {
		if x < 0 {
			return Null(), nil
		}
		return Float(math.Sqrt(x)), nil
	}),
	"ABS": {1, 1, func(args []Value) (Value, error) {
		if anyNull(args) {
			return Null(), nil
		}
		v := args[0]
		if v.Kind == KindInt {
			if v.I < 0 {
				return Int(-v.I), nil
			}
			return v, nil
		}
		return Float(math.Abs(v.AsFloat())), nil
	}},
	"POWER":   powerFn,
	"POW":     powerFn,
	"FLOOR":   numeric1(func(x float64) (Value, error) { return Int(int64(math.Floor(x))), nil }),
	"CEIL":    ceilFn,
	"CEILING": ceilFn,
	"ROUND": {1, 2, func(args []Value) (Value, error) {
		if anyNull(args) {
			return Null(), nil
		}
		x := args[0].AsFloat()
		if len(args) == 1 {
			return Int(int64(math.Round(x))), nil
		}
		d := args[1].AsInt()
		scale := math.Pow(10, float64(d))
		return Float(math.Round(x*scale) / scale), nil
	}},
	"MOD": {2, 2, func(args []Value) (Value, error) {
		if anyNull(args) {
			return Null(), nil
		}
		return arith("%", args[0], args[1])
	}},
	"LEAST": {2, -1, func(args []Value) (Value, error) {
		if anyNull(args) {
			return Null(), nil
		}
		best := args[0]
		for _, a := range args[1:] {
			if cmp, ok := Compare(a, best); ok && cmp < 0 {
				best = a
			}
		}
		return best, nil
	}},
	"GREATEST": {2, -1, func(args []Value) (Value, error) {
		if anyNull(args) {
			return Null(), nil
		}
		best := args[0]
		for _, a := range args[1:] {
			if cmp, ok := Compare(a, best); ok && cmp > 0 {
				best = a
			}
		}
		return best, nil
	}},
	// String functions operate on runes so multi-byte text counts characters.
	"LENGTH":      lengthFn,
	"CHAR_LENGTH": lengthFn,
	"SUBSTRING":   substringFn,
	"SUBSTR":      substringFn,
	"CONCAT": {1, -1, func(args []Value) (Value, error) {
		if anyNull(args) {
			return Null(), nil
		}
		var sb strings.Builder
		for _, a := range args {
			sb.WriteString(a.AsString())
		}
		return String(sb.String()), nil
	}},
	"UPPER": stringFn(strings.ToUpper),
	"UCASE": stringFn(strings.ToUpper),
	"LOWER": stringFn(strings.ToLower),
	"LCASE": stringFn(strings.ToLower),
	"TRIM":  stringFn(strings.TrimSpace),
	"REVERSE": stringFn(func(s string) string {
		r := []rune(s)
		for i, j := 0, len(r)-1; i < j; i, j = i+1, j-1 {
			r[i], r[j] = r[j], r[i]
		}
		return string(r)
	}),
	"REPLACE": {3, 3, func(args []Value) (Value, error) {
		if anyNull(args) {
			return Null(), nil
		}
		return String(strings.ReplaceAll(args[0].AsString(), args[1].AsString(), args[2].AsString())), nil
	}},
	// LOCATE(substr, str [, pos]) is 1-based; 0 means not found.
	"LOCATE": {2, 3, func(args []Value) (Value, error) {
		if anyNull(args) {
			return Null(), nil
		}
		sub, s := args[0].AsString(), args[1].AsString()
		n := utf8.RuneCountInString(s)
		start := 1
		if len(args) == 3 {
			start = int(args[2].AsInt())
			if start < 1 {
				start = 1
			}
		}
		if start > n+1 {
			return Int(0), nil
		}
		tail := s[runeOffset(s, n, start-1):]
		idx := strings.Index(tail, sub)
		if idx < 0 {
			return Int(0), nil
		}
		return Int(int64(start + utf8.RuneCountInString(tail[:idx]))), nil
	}},
	"COALESCE": {1, -1, func(args []Value) (Value, error) {
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return Null(), nil
	}},
	"IFNULL": {2, 2, func(args []Value) (Value, error) {
		if args[0].IsNull() {
			return args[1], nil
		}
		return args[0], nil
	}},
	"IF": {3, 3, func(args []Value) (Value, error) {
		if args[0].Truthy() {
			return args[1], nil
		}
		return args[2], nil
	}},
	// SQL_LIKE backs the LIKE operator: '%' matches any run, '_' one
	// character; comparison is case-insensitive like MySQL's default
	// collation.
	"SQL_LIKE": {2, 2, func(args []Value) (Value, error) {
		if anyNull(args) {
			return Null(), nil
		}
		s := strings.ToUpper(args[0].AsString())
		pat := strings.ToUpper(args[1].AsString())
		return Bool(likeMatch([]rune(s), []rune(pat))), nil
	}},
}

// likeMatch implements LIKE with linear backtracking over '%'.
func likeMatch(s, pat []rune) bool {
	si, pi := 0, 0
	starPat, starS := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pat) && (pat[pi] == '_' || pat[pi] == s[si]):
			si++
			pi++
		case pi < len(pat) && pat[pi] == '%':
			starPat, starS = pi, si
			pi++
		case starPat >= 0:
			starS++
			si = starS
			pi = starPat + 1
		default:
			return false
		}
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
}

var powerFn = builtin{2, 2, func(args []Value) (Value, error) {
	if anyNull(args) {
		return Null(), nil
	}
	return Float(math.Pow(args[0].AsFloat(), args[1].AsFloat())), nil
}}

var ceilFn = builtin{1, 1, func(args []Value) (Value, error) {
	if anyNull(args) {
		return Null(), nil
	}
	return Int(int64(math.Ceil(args[0].AsFloat()))), nil
}}

var lengthFn = builtin{1, 1, func(args []Value) (Value, error) {
	if anyNull(args) {
		return Null(), nil
	}
	return Int(int64(utf8.RuneCountInString(args[0].AsString()))), nil
}}

var substringFn = builtin{2, 3, func(args []Value) (Value, error) {
	if anyNull(args) {
		return Null(), nil
	}
	s := args[0].AsString()
	n := utf8.RuneCountInString(s)
	pos := int(args[1].AsInt())
	// MySQL: position is 1-based; negative counts from the end; 0 yields "".
	switch {
	case pos == 0:
		return String(""), nil
	case pos < 0:
		pos = n + pos + 1
		if pos < 1 {
			return String(""), nil
		}
	}
	if pos > n {
		return String(""), nil
	}
	start := pos - 1
	end := n
	if len(args) == 3 {
		count := int(args[2].AsInt())
		if count <= 0 {
			return String(""), nil
		}
		if start+count < end {
			end = start + count
		}
	}
	// No copy: a stored token is cloned once, when the dictionary first
	// sees it.
	return String(s[runeOffset(s, n, start):runeOffset(s, n, end)]), nil
}}

// runeOffset returns the byte offset of the k-th rune of s, which has n
// runes (k ≤ n).
func runeOffset(s string, n, k int) int {
	if n == len(s) {
		return k // ASCII
	}
	off := 0
	for ; k > 0; k-- {
		_, w := utf8.DecodeRuneInString(s[off:])
		off += w
	}
	return off
}

func stringFn(f func(string) string) builtin {
	return builtin{1, 1, func(args []Value) (Value, error) {
		if anyNull(args) {
			return Null(), nil
		}
		return String(f(args[0].AsString())), nil
	}}
}
