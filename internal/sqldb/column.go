package sqldb

// relation is a set of rows stored column by column: a table's heap, or a
// derived table or IN subquery's result, materialized at plan time. A row is
// a position, 0 to n−1; nothing is allocated per row.
type relation struct {
	cols []column
	n    int
}

// newRelation returns an empty relation with a column of each kind, whose
// VARCHAR cells are codes in d. A kind other than INT, DOUBLE or VARCHAR
// makes a column with no fixed kind.
func newRelation(kinds []Kind, d *dict) *relation {
	r := &relation{cols: make([]column, len(kinds))}
	for i, k := range kinds {
		r.cols[i].dict = d
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

// appendBatch appends the rows of a batch: column c takes, at each frame
// sel lists, the value of cols[from[c]] — NULL where from[c] is −1, and
// cols[c] when from is nil — coerced to its kind; a vector of the column's
// kind is copied as it is.
func (r *relation) appendBatch(from []int, cols []*vec, sel []int32) {
	for ci := range r.cols {
		c, j := &r.cols[ci], ci
		if from != nil {
			j = from[ci]
		}
		var v *vec
		if j >= 0 {
			v = cols[j]
		}
		for k, i := range sel {
			switch {
			case v == nil:
				c.append(r.n+k, Value{})
			case v.kind == c.kind && c.kind == KindInt && !v.null[i]:
				c.ints = append(c.ints, v.ints[i])
			case v.kind == c.kind && c.kind == KindFloat && !v.null[i]:
				c.floats = append(c.floats, v.floats[i])
			case v.kind == c.kind && c.kind == KindString: // codes of this database
				if c.codes = append(c.codes, v.codes[i]); v.codes[i] >= 0 {
					c.dict.refs[v.codes[i]]++
				}
			default:
				c.append(r.n+k, v.value(i))
			}
		}
	}
	r.n += len(sel)
}

// row copies the values of row i into dst.
func (r *relation) row(i int32, dst []Value) {
	for j := range r.cols {
		dst[j] = r.cols[j].value(i)
	}
}

// truncate drops every row from position n on, releasing their VARCHAR
// cells.
func (r *relation) truncate(n int) {
	for i := range r.cols {
		r.cols[i].truncate(n)
	}
	r.n = n
}

// column is one column of a relation, stored as one vector of its kind:
// INT as int64s, DOUBLE as float64s, VARCHAR as int32 codes in dict, with
// −1 for NULL. A column with no fixed kind (KindNull: a derived table's,
// whose rows may mix kinds) holds Values. An INT or DOUBLE column's NULLs
// are the set bits of nulls, which stays nil until the first NULL and
// covers positions up to the last one; the vector holds a zero there.
type column struct {
	kind   Kind
	ints   []int64
	floats []float64
	codes  []int32
	vals   []Value
	nulls  []uint64
	dict   *dict
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
		return c.str(c.codes[i])
	default:
		return c.vals[i]
	}
}

// str returns the VARCHAR cell holding code, which carries it.
func (c *column) str(code int32) Value {
	if code < 0 {
		return Value{}
	}
	return Value{Kind: KindString, code: code, S: c.dict.strs[code]}
}

// kernel compiles a read of the column at the positions frame slot slot
// binds; position −1, a group with no rows, reads NULL. A VARCHAR column
// reads as codes, and a derived table's column, whose values may mix
// kinds, as Values.
func (c *column) kernel(slot int) kernel {
	out := &vec{kind: c.kind, dict: c.dict}
	return func(b *batch, sel []int32) (*vec, error) {
		out.fit(b.n)
		pos := b.pos[slot]
		switch c.kind {
		case KindInt, KindFloat:
			for _, i := range sel {
				p := pos[i]
				out.null[i] = p < 0 || c.nulls != nil && c.isNull(p)
				switch {
				case out.null[i]:
				case c.kind == KindInt:
					out.ints[i] = c.ints[p]
				default:
					out.floats[i] = c.floats[p]
				}
			}
		case KindString:
			for _, i := range sel {
				if out.codes[i] = -1; pos[i] >= 0 {
					out.codes[i] = c.codes[pos[i]]
				}
			}
		default:
			for _, i := range sel {
				if out.vals[i] = (Value{}); pos[i] >= 0 {
					out.vals[i] = c.vals[pos[i]]
				}
			}
		}
		return out, nil
	}
}

// append stores v, coerced to the column's kind, at position i, which must
// be the column's length. A VARCHAR is interned.
func (c *column) append(i int, v Value) {
	if c.kind == KindNull {
		c.vals = append(c.vals, v)
		return
	}
	v = coerce(v, c.kind)
	if v.IsNull() {
		if c.kind == KindString {
			c.codes = append(c.codes, -1)
			return
		}
		c.setNull(i)
	}
	switch c.kind {
	case KindInt:
		c.ints = append(c.ints, v.I)
	case KindFloat:
		c.floats = append(c.floats, v.F)
	default:
		c.codes = append(c.codes, c.dict.intern(v))
	}
}

func (c *column) setNull(i int) {
	w := i >> 6
	for len(c.nulls) <= w {
		c.nulls = append(c.nulls, 0)
	}
	c.nulls[w] |= 1 << (i & 63)
}

// truncate drops positions n and on, releasing their codes. The vector
// keeps its capacity, so the Values past the end are zeroed to let them be
// collected.
func (c *column) truncate(n int) {
	switch c.kind {
	case KindInt:
		c.ints = c.ints[:n]
	case KindFloat:
		c.floats = c.floats[:n]
	case KindString:
		for _, code := range c.codes[n:] {
			c.dict.release(code)
		}
		c.codes = c.codes[:n]
	default:
		clear(c.vals[n:])
		c.vals = c.vals[:n]
	}
	if w := n >> 6; w < len(c.nulls) {
		c.nulls[w] &= 1<<(n&63) - 1
		c.nulls = c.nulls[:w+1]
	}
}
