package sqldb

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"unicode/utf8"
)

// relCol is one column an expression can name: the table alias that
// produced it, its (lower-case) column name, and where its value lives — in
// col, the column of its FROM item's relation, at the position a batch's
// frames bind in slot slot.
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

// kernel is a compiled expression: it computes the expression for the
// frames of b that sel lists and returns a vector holding the results at
// the frames' indexes, valid until the kernel runs again. Its kind follows
// from the expression's operands, and the kernels above run typed loops
// over typed vectors and Value code over the rest. A kernel
// evaluates a subexpression only on the frames a row-by-row evaluation
// would reach (AND, OR, CASE and IN narrow sel), so a function sees
// exactly those rows.
type kernel func(b *batch, sel []int32) (*vec, error)

// aggSpec is one aggregate call discovered during compilation. Its arg is
// evaluated over every joined frame; its position in compiler.aggs indexes
// batch.aggs. Structurally identical calls share one spec.
type aggSpec struct {
	call    *funcCall
	op      aggOp
	arg     kernel    // nil for COUNT(*)
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
		return isAggregate(x.X) || slices.ContainsFunc(x.List, isAggregate)
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

// constValue evaluates a kernel that reads no frame.
func constValue(k kernel) (Value, error) {
	v, err := k(&batch{n: 1}, identity[:1])
	if err != nil {
		return Value{}, err
	}
	return v.value(0), nil
}

func (c *compiler) compile(e expr) (kernel, error) {
	if slot, ok := c.memoSlot(e); ok {
		return c.compileMemo(e, slot)
	}
	switch x := e.(type) {
	case *literal:
		return constant(x.Val), nil

	case *colRef:
		pos, err := c.schema.resolve(x.Table, x.Name)
		if err != nil {
			return nil, err
		}
		col, slot := c.schema.cols[pos].col, c.schema.cols[pos].slot
		if c.grouped && !c.inAgg {
			c.repSlot(slot)
		}
		return col.kernel(slot), nil

	case *unaryExpr:
		inner, err := c.compile(x.X)
		switch {
		case err != nil:
			return nil, err
		case x.Op == "-": // exactly a negation, −0.0 included
			return arithKernel('*', inner, constant(Int(-1))), nil
		case x.Op == "NOT":
			return rowwise([]kernel{inner}, func(a []Value) (Value, error) {
				if a[0].IsNull() {
					return Null(), nil
				}
				return Bool(!a[0].Truthy()), nil
			}), nil
		}
		return nil, fmt.Errorf("sqldb: unknown unary operator %q", x.Op)

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
		return rowwise([]kernel{inner}, func(a []Value) (Value, error) {
			return Bool(a[0].IsNull() != not), nil
		}), nil

	case *caseExpr:
		return c.compileCase(x)

	default:
		return nil, fmt.Errorf("sqldb: cannot compile expression of type %T", e)
	}
}

// constant compiles the value v.
func constant(v Value) kernel {
	out, filled := &vec{kind: KindNull}, 0
	if typed(v.Kind) {
		out.kind = v.Kind
	}
	return func(b *batch, _ []int32) (*vec, error) {
		if filled < b.n {
			out.fit(b.n)
			for filled = 0; filled < b.n; filled++ {
				switch out.kind {
				case KindInt:
					out.ints[filled] = v.I
				case KindFloat:
					out.floats[filled] = v.F
				default:
					out.vals[filled] = v
				}
			}
		}
		return out, nil
	}
}

// rowwise compiles f applied to the values of args, frame by frame: every
// argument is evaluated over the batch first, then f runs once per
// selected frame on one argument buffer, refilled for every frame (the
// ScalarFunc contract makes it the callee's only for the call). VARCHAR
// arguments carry no dictionary code: a registered function may keep an
// argument, and a code is valid for the statement only.
func rowwise(args []kernel, f ScalarFunc) kernel {
	out := &vec{kind: KindNull}
	vals, vs := make([]Value, len(args)), make([]*vec, len(args))
	return func(b *batch, sel []int32) (*vec, error) {
		for j, a := range args {
			v, err := a(b, sel)
			if err != nil {
				return nil, err
			}
			vs[j] = v
		}
		out.fit(b.n)
		for _, i := range sel {
			for j, v := range vs {
				vals[j] = v.value(i)
				vals[j].code = 0
			}
			r, err := f(vals)
			if err != nil {
				return nil, err
			}
			out.vals[i] = r
		}
		return out, nil
	}
}

// intOps and floatOps are the arithmetic operators over INT and DOUBLE
// operands, as arith computes them; each reports whether its result is
// defined (a zero divisor yields NULL). Division is DOUBLE only.
var (
	intOps = map[byte]func(x, y int64) (int64, bool){
		'+': func(x, y int64) (int64, bool) { return x + y, true },
		'-': func(x, y int64) (int64, bool) { return x - y, true },
		'*': func(x, y int64) (int64, bool) { return x * y, true },
		'%': func(x, y int64) (int64, bool) {
			if y == 0 {
				return 0, false
			}
			return x % y, true
		},
	}
	floatOps = map[byte]func(x, y float64) (float64, bool){
		'+': func(x, y float64) (float64, bool) { return x + y, true },
		'-': func(x, y float64) (float64, bool) { return x - y, true },
		'*': func(x, y float64) (float64, bool) { return x * y, true },
		'/': func(x, y float64) (float64, bool) { return x / y, y != 0 },
		'%': func(x, y float64) (float64, bool) { return math.Mod(x, y), y != 0 },
	}
)

// arithKernel compiles l op r as arith computes it, with a typed loop over
// typed vectors: INT when both sides are INT and op is not '/', DOUBLE
// otherwise, NULL for a NULL side or a zero divisor.
func arithKernel(op byte, l, r kernel) kernel {
	out, ops, iop, fop := &vec{}, string(op), intOps[op], floatOps[op]
	return func(b *batch, sel []int32) (*vec, error) {
		lv, err := l(b, sel)
		if err != nil {
			return nil, err
		}
		rv, err := r(b, sel)
		if err != nil {
			return nil, err
		}
		switch {
		case !typed(lv.kind) || !typed(rv.kind):
			out.kind = KindNull
		case lv.kind == KindInt && rv.kind == KindInt && iop != nil:
			out.kind = KindInt
		default:
			out.kind = KindFloat
		}
		out.fit(b.n)
		for _, i := range sel {
			ok := false
			switch {
			case out.kind == KindNull:
				out.vals[i], _ = arith(ops, lv.value(i), rv.value(i))
			case lv.null[i] || rv.null[i]:
			case out.kind == KindInt:
				out.ints[i], ok = iop(lv.ints[i], rv.ints[i])
			default:
				out.floats[i], ok = fop(lv.num(i), rv.num(i))
			}
			if out.kind != KindNull {
				out.null[i] = !ok
			}
		}
		return out, nil
	}
}

// cmpHolds tells, per comparison operator, whether it holds of a result
// cmp of −1, 0 or 1 (at cmp+1).
var cmpHolds = map[string][3]bool{
	"=": {false, true, false}, "<>": {true, false, true},
	"<": {true, false, false}, "<=": {true, true, false},
	">": {false, false, true}, ">=": {false, true, true},
}

// compareKernel compiles a comparison: numerically over typed vectors,
// with Compare otherwise.
func compareKernel(holds [3]bool, l, r kernel) kernel {
	out := &vec{kind: KindInt}
	return func(b *batch, sel []int32) (*vec, error) {
		lv, err := l(b, sel)
		if err != nil {
			return nil, err
		}
		rv, err := r(b, sel)
		if err != nil {
			return nil, err
		}
		out.fit(b.n)
		ints, nums := lv.kind == KindInt && rv.kind == KindInt, typed(lv.kind) && typed(rv.kind)
		for _, i := range sel {
			cmp, ok := 0, true
			switch {
			case !nums:
				cmp, ok = Compare(lv.value(i), rv.value(i))
			case lv.null[i] || rv.null[i]:
				ok = false
			case ints:
				cmp = b2i(lv.ints[i] > rv.ints[i]) - b2i(lv.ints[i] < rv.ints[i])
			default:
				x, y := lv.num(i), rv.num(i)
				cmp = b2i(x > y) - b2i(x < y)
			}
			out.null[i], out.ints[i] = !ok, int64(b2i(holds[cmp+1]))
		}
		return out, nil
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (c *compiler) compileBinary(x *binaryExpr) (kernel, error) {
	l, err := c.compile(x.L)
	if err != nil {
		return nil, err
	}
	r, err := c.compile(x.R)
	if err != nil {
		return nil, err
	}
	if holds, ok := cmpHolds[x.Op]; ok {
		return compareKernel(holds, l, r), nil
	}
	switch x.Op {
	case "+", "-", "*", "/", "%":
		return arithKernel(x.Op[0], l, r), nil
	case "AND", "OR":
		return logicKernel(x.Op == "AND", l, r), nil
	}
	return nil, fmt.Errorf("sqldb: unknown binary operator %q", x.Op)
}

// logicKernel compiles l AND r, or l OR r. The right side runs only where
// the left leaves the answer open: AND where it is true or NULL, OR where
// it is false or NULL.
func logicKernel(and bool, l, r kernel) kernel {
	open, decided := tNull|tTrue, tFalse
	if !and {
		open, decided = tNull|tFalse, tTrue
	}
	out := &vec{kind: KindInt}
	var rsel []int32
	return func(b *batch, sel []int32) (*vec, error) {
		lv, err := l(b, sel)
		if err != nil {
			return nil, err
		}
		rv, err := r(b, lv.pick(sel, &rsel, open))
		if err != nil {
			return nil, err
		}
		out.fit(b.n)
		for _, i := range sel {
			lt, rt := lv.truth(i), decided
			if lt != decided {
				rt = rv.truth(i)
			}
			out.null[i] = rt != decided && (lt == tNull || rt == tNull)
			out.ints[i] = int64(b2i(rt == tTrue || rt != decided && and))
		}
		return out, nil
	}
}

// compileCase compiles a searched CASE: each WHEN's condition runs on the
// frames no earlier WHEN took, and its THEN on the frames it takes; ELSE is
// a last WHEN that takes the rest, which are NULL without it.
func (c *compiler) compileCase(x *caseExpr) (kernel, error) {
	whens := x.Whens
	if x.Else != nil {
		whens = append(whens[:len(whens):len(whens)], whenClause{&literal{Int(1)}, x.Else})
	}
	arms := make([]kernel, 0, 2*len(whens))
	for _, w := range whens {
		for _, e := range []expr{w.Cond, w.Then} {
			k, err := c.compile(e)
			if err != nil {
				return nil, err
			}
			arms = append(arms, k)
		}
	}
	out := &vec{kind: KindNull}
	var take, rest []int32
	return func(b *batch, sel []int32) (*vec, error) {
		out.fit(b.n)
		rest = append(rest[:0], sel...)
		for _, i := range rest {
			out.vals[i] = Value{}
		}
		for w := 0; w < len(arms); w += 2 {
			cv, err := arms[w](b, rest)
			if err != nil {
				return nil, err
			}
			take = cv.pick(rest, &take, tTrue)
			tv, err := arms[w+1](b, take)
			if err != nil {
				return nil, err
			}
			for _, i := range take {
				out.vals[i] = tv.value(i)
			}
			cv.pick(rest, &rest, tNull|tFalse)
		}
		return out, nil
	}, nil
}

// compileIn compiles x IN (...): over the frames where x is not NULL, a
// member kernel tells whether x is in the set — NULL when that is unknown —
// reading x's vector, evaluated once.
func (c *compiler) compileIn(x *inExpr) (kernel, error) {
	inner, err := c.compile(x.X)
	if err != nil {
		return nil, err
	}
	var xv *vec
	same := func(*batch, []int32) (*vec, error) { return xv, nil }
	var member kernel
	if x.Sub != nil {
		// Uncorrelated subquery: evaluate once at compile time.
		rel, names, err := c.db.materialize(x.Sub)
		if err != nil {
			return nil, fmt.Errorf("sqldb: IN subquery: %w", err)
		}
		if len(names) != 1 {
			return nil, fmt.Errorf("sqldb: IN subquery must return one column, got %d", len(names))
		}
		set, hasNull := keyIndex{dict: c.db.dict}, false
		for i := int32(0); i < int32(rel.n); i++ {
			if v := rel.cols[0].value(i); v.IsNull() {
				hasNull = true
			} else {
				set.add(v)
			}
		}
		var ks keyScratch
		found := &vec{kind: KindInt}
		member = func(b *batch, sel []int32) (*vec, error) {
			ids, err := set.findBatch([]kernel{same}, b, sel, false, false, false, &ks)
			found.fit(b.n)
			for _, i := range sel {
				found.null[i], found.ints[i] = ids[i] < 0 && hasNull, int64(b2i(ids[i] >= 0))
			}
			return found, err
		}
	}
	// A list runs as x = a OR x = b: each item on the frames no earlier
	// item matched.
	for _, e := range x.List {
		it, err := c.compile(e)
		if err != nil {
			return nil, err
		}
		if eq := compareKernel(cmpHolds["="], same, it); member == nil {
			member = eq
		} else {
			member = logicKernel(false, member, eq)
		}
	}
	out, not := &vec{kind: KindInt}, x.Not
	var open []int32
	return func(b *batch, sel []int32) (*vec, error) {
		var err error
		if xv, err = inner(b, sel); err != nil {
			return nil, err
		}
		v, err := member(b, xv.pick(sel, &open, tFalse|tTrue))
		if err != nil {
			return nil, err
		}
		out.fit(b.n)
		for _, i := range sel {
			t := tNull
			if !xv.isNull(i) {
				t = v.truth(i)
			}
			out.null[i], out.ints[i] = t == tNull, int64(b2i(t == tTrue != not))
		}
		return out, nil
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

// compileMemo compiles e, which memoSlot accepted, to a kernel that
// evaluates it at most once per row of the FROM item in frame slot slot:
// over a batch it evaluates e on the first frame of each row the memo
// holds no value for, and reads the rest from the memo, so short-circuits
// and filter order still decide which rows reach a function. The memo is
// allocated on the first batch, one entry per row of the item, and lives
// as long as the statement's plan; an error fails the statement, so no
// entry of a failed batch is read, and position −1 (a group with no rows)
// is not a row, so it is recomputed.
func (c *compiler) compileMemo(e expr, slot int) (kernel, error) {
	plan := c.plan
	c.plan = nil // memoize the largest qualifying subexpression, not its parts
	k, err := c.compile(e)
	c.plan = plan
	if err != nil {
		return nil, err
	}
	st := plan.stages[c.stage]
	st.memos++
	rows := plan.sources[slot].rel.n
	var memo []memoEntry
	out := &vec{kind: KindNull}
	var todo []int32
	return func(b *batch, sel []int32) (*vec, error) {
		if memo == nil {
			memo = make([]memoEntry, rows)
		}
		out.fit(b.n)
		pos := b.pos[slot]
		todo = todo[:0]
		for _, i := range sel {
			if p := pos[i]; p < 0 || !memo[p].set {
				if p >= 0 {
					memo[p].set = true
				}
				todo = append(todo, i)
			}
		}
		st.hits += len(sel) - len(todo)
		v, err := k(b, todo)
		if err != nil {
			return nil, err
		}
		for _, i := range todo {
			if p := pos[i]; p >= 0 {
				memo[p].v = v.value(i)
			} else {
				out.vals[i] = v.value(i)
			}
		}
		for _, i := range sel {
			if p := pos[i]; p >= 0 {
				out.vals[i] = memo[p].v
			}
		}
		return out, nil
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
// batch.aggs. A call structurally identical to one already registered —
// Jaccard's two COUNT(*) — reads that call's slot, so it is fed once per
// row.
func (c *compiler) compileAggregate(x *funcCall) (kernel, error) {
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
	return func(b *batch, _ []int32) (*vec, error) { return b.aggs[slot], nil }, nil
}

func (c *compiler) compileFunc(x *funcCall) (kernel, error) {
	if isAggCall(x) {
		return c.compileAggregate(x)
	}
	args := make([]kernel, len(x.Args))
	for i, a := range x.Args {
		k, err := c.compile(a)
		if err != nil {
			return nil, err
		}
		args[i] = k
	}
	impl, registered := c.db.funcs[x.Name]
	if fn, ok := builtinFuncs[x.Name]; ok {
		if err := fn.checkArity(x.Name, len(args)); err != nil {
			return nil, err
		}
		impl = fn.impl
	} else if !registered {
		// No locking here: compilation always happens under the public
		// API's database lock (Exec holds the write lock, Query the read
		// lock).
		return nil, fmt.Errorf("sqldb: unknown function %s", x.Name)
	}
	if f, ok := floatFuncs[x.Name]; ok && len(args) == 1 {
		out := &vec{kind: KindFloat}
		return func(b *batch, sel []int32) (*vec, error) {
			v, err := args[0](b, sel)
			if err != nil {
				return nil, err
			}
			out.fit(b.n)
			for _, i := range sel {
				ok := !v.isNull(i)
				if ok {
					out.floats[i], ok = f(v.num(i))
				}
				out.null[i] = !ok
			}
			return out, nil
		}, nil
	}
	if tf, ok := typedFuncs[x.Name]; ok {
		return typedCall(tf.kind, args, tf.at), nil
	}
	// One argument buffer per call site: a call nested in an argument is
	// another call site with its own buffer.
	return rowwise(args, impl), nil
}

// typedCall compiles a builtin that runs as a typed loop filling a vector
// of kind kind: every argument is evaluated over the batch first, then at
// runs once per selected frame where no argument is NULL, writes the
// result at the frame and reports whether it is defined. A NULL argument,
// or an undefined result, makes the frame NULL.
func typedCall(kind Kind, args []kernel, at func(a []*vec, i int32, out *vec) bool) kernel {
	out, vs := &vec{kind: kind}, make([]*vec, len(args))
	return func(b *batch, sel []int32) (*vec, error) {
		for j, a := range args {
			v, err := a(b, sel)
			if err != nil {
				return nil, err
			}
			vs[j] = v
		}
		out.fit(b.n)
		for _, i := range sel {
			ok := true
			for _, v := range vs {
				ok = ok && !v.isNull(i)
			}
			out.null[i] = !(ok && at(vs, i, out))
		}
		return out, nil
	}
}

// typedFuncs are the builtins, besides floatFuncs, that run as a typed
// loop (see typedCall). Each computes what its Value implementation in
// builtinFuncs computes, from the same arguments.
var typedFuncs = map[string]struct {
	kind Kind
	at   func(a []*vec, i int32, out *vec) bool
}{
	"LOCATE": {KindInt, func(a []*vec, i int32, out *vec) bool {
		start := 1
		if len(a) == 3 {
			start = int(a[2].asInt(i))
		}
		out.ints[i] = locate(a[0].str(i), a[1].str(i), start)
		return true
	}},
	"POWER": {KindFloat, powerAt},
	"POW":   {KindFloat, powerAt},
}

func powerAt(a []*vec, i int32, out *vec) bool {
	out.floats[i] = math.Pow(a[0].num(i), a[1].num(i))
	return true
}

// floatFuncs are the one-argument numeric builtins that run as a typed
// loop; each reports whether its result is defined (NULL otherwise, as in
// MySQL). MySQL LOG(x) is the natural logarithm.
var floatFuncs = map[string]func(x float64) (float64, bool){
	"LOG":  func(x float64) (float64, bool) { return math.Log(x), x > 0 },
	"LN":   func(x float64) (float64, bool) { return math.Log(x), x > 0 },
	"EXP":  func(x float64) (float64, bool) { return math.Exp(x), true },
	"SQRT": func(x float64) (float64, bool) { return math.Sqrt(x), x >= 0 },
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

// floatFn is floatFuncs[name] over a Value.
func floatFn(name string) builtin {
	return builtin{1, 1, func(args []Value) (Value, error) {
		if y, ok := floatFuncs[name](args[0].AsFloat()); ok && !args[0].IsNull() {
			return Float(y), nil
		}
		return Null(), nil
	}}
}

var builtinFuncs = map[string]builtin{
	// LOG(b, x) uses base b. Non-positive arguments yield NULL, as in MySQL.
	"LOG": {1, 2, func(args []Value) (Value, error) {
		if len(args) == 1 {
			return floatFn("LOG").impl(args)
		}
		if anyNull(args) {
			return Null(), nil
		}
		b, x := args[0].AsFloat(), args[1].AsFloat()
		if b <= 0 || b == 1 || x <= 0 {
			return Null(), nil
		}
		return Float(math.Log(x) / math.Log(b)), nil
	}},
	"LN":   floatFn("LN"),
	"EXP":  floatFn("EXP"),
	"SQRT": floatFn("SQRT"),
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
	"POWER": powerFn,
	"POW":   powerFn,
	"FLOOR": {1, 1, func(args []Value) (Value, error) {
		if anyNull(args) {
			return Null(), nil
		}
		return Int(int64(math.Floor(args[0].AsFloat()))), nil
	}},
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
		start := 1
		if len(args) == 3 {
			start = int(args[2].AsInt())
		}
		return Int(locate(args[0].AsString(), args[1].AsString(), start)), nil
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

// locate is LOCATE(sub, s, start): the 1-based position, in runes, of
// the first sub in s at or after rune start (1 when start is lower), or 0.
func locate(sub, s string, start int) int64 {
	n := utf8.RuneCountInString(s)
	start = max(start, 1)
	if start > n+1 {
		return 0
	}
	tail := s[runeOffset(s, n, start-1):]
	idx := strings.Index(tail, sub)
	switch {
	case idx < 0:
		return 0
	case n == len(s): // ASCII: bytes are runes
		return int64(start + idx)
	}
	return int64(start + utf8.RuneCountInString(tail[:idx]))
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
