package sqldb

// relation is a set of rows stored column by column: a table's heap, or a
// derived table or IN subquery's result, materialized at plan time. A row is
// a position, 0 to n−1; nothing is allocated per row.
type relation struct {
	cols []column
	n    int
}

// newRelation returns an empty relation with a column of each kind. A kind
// other than INT, DOUBLE or VARCHAR makes a column with no fixed kind.
func newRelation(kinds []Kind) *relation {
	r := &relation{cols: make([]column, len(kinds))}
	for i, k := range kinds {
		switch k {
		case KindInt, KindFloat, KindString:
			r.cols[i].kind = k
		}
	}
	return r
}

// appendRow appends one row, coercing each value to its column's kind.
// vals is not retained.
func (r *relation) appendRow(vals []Value) {
	for i := range r.cols {
		r.cols[i].append(r.n, vals[i])
	}
	r.n++
}

// row copies the values of row i into dst.
func (r *relation) row(i int32, dst []Value) {
	for j := range r.cols {
		dst[j] = r.cols[j].value(i)
	}
}

// truncate drops every row from position n on.
func (r *relation) truncate(n int) {
	for i := range r.cols {
		r.cols[i].truncate(n)
	}
	r.n = n
}

// column is one column of a relation, stored as one vector of its kind:
// INT as int64s, DOUBLE as float64s, VARCHAR as strings. A column with no
// fixed kind (KindNull: a derived table's, whose rows may mix kinds) holds
// Values. A typed column's NULLs are the set bits of nulls, which stays nil
// until the first NULL and covers positions up to the last one; the vector
// holds a zero there.
type column struct {
	kind   Kind
	ints   []int64
	floats []float64
	strs   []string
	vals   []Value
	nulls  []uint64
}

func (c *column) isNull(i int32) bool {
	w := int(i >> 6)
	return w < len(c.nulls) && c.nulls[w]&(1<<(i&63)) != 0
}

// value returns the value at position i.
func (c *column) value(i int32) Value {
	if c.nulls != nil && c.isNull(i) {
		return Value{}
	}
	switch c.kind {
	case KindInt:
		return Value{Kind: KindInt, I: c.ints[i]}
	case KindFloat:
		return Value{Kind: KindFloat, F: c.floats[i]}
	case KindString:
		return Value{Kind: KindString, S: c.strs[i]}
	default:
		return c.vals[i]
	}
}

// reader compiles a read of the column at the position frame slot slot
// binds: value, with the kind switch done once.
func (c *column) reader(slot int) evalFn {
	switch c.kind {
	case KindInt:
		return func(ctx *evalCtx) (Value, error) {
			i := ctx.pos[slot]
			if c.nulls != nil && c.isNull(i) {
				return Value{}, nil
			}
			return Value{Kind: KindInt, I: c.ints[i]}, nil
		}
	case KindFloat:
		return func(ctx *evalCtx) (Value, error) {
			i := ctx.pos[slot]
			if c.nulls != nil && c.isNull(i) {
				return Value{}, nil
			}
			return Value{Kind: KindFloat, F: c.floats[i]}, nil
		}
	case KindString:
		return func(ctx *evalCtx) (Value, error) {
			i := ctx.pos[slot]
			if c.nulls != nil && c.isNull(i) {
				return Value{}, nil
			}
			return Value{Kind: KindString, S: c.strs[i]}, nil
		}
	default:
		return func(ctx *evalCtx) (Value, error) { return c.vals[ctx.pos[slot]], nil }
	}
}

// append stores v, coerced to the column's kind, at position i, which must
// be the column's length.
func (c *column) append(i int, v Value) {
	if c.kind == KindNull {
		c.vals = append(c.vals, v)
		return
	}
	v = coerce(v, c.kind)
	if v.IsNull() {
		c.setNull(i)
	}
	switch c.kind {
	case KindInt:
		c.ints = append(c.ints, v.I)
	case KindFloat:
		c.floats = append(c.floats, v.F)
	default:
		c.strs = append(c.strs, v.S)
	}
}

func (c *column) setNull(i int) {
	w := i >> 6
	for len(c.nulls) <= w {
		c.nulls = append(c.nulls, 0)
	}
	c.nulls[w] |= 1 << (i & 63)
}

// truncate drops positions n and on. The vector keeps its capacity, so
// the strings or Values past the end are zeroed to let them be collected.
func (c *column) truncate(n int) {
	switch c.kind {
	case KindInt:
		c.ints = c.ints[:n]
	case KindFloat:
		c.floats = c.floats[:n]
	case KindString:
		clear(c.strs[n:])
		c.strs = c.strs[:n]
	default:
		clear(c.vals[n:])
		c.vals = c.vals[:n]
	}
	if w := n >> 6; w < len(c.nulls) {
		c.nulls[w] &= 1<<(n&63) - 1
		c.nulls = c.nulls[:w+1]
	}
}
