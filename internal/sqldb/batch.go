package sqldb

// This file holds the unit of execution: a batch of up to batchSize joined
// frames, and the vectors a compiled expression fills over one.

// batchSize is how many frames a stage hands on at a time.
const batchSize = 1024

// batch is a run of joined frames, stored slot by slot: pos[s][i] is the
// row position frame i binds in FROM slot s, −1 for a group with no rows.
// sel lists the live frames, ascending; a kernel reads and writes a vector
// only at their indexes. While a grouped projection emits its groups, a
// frame is a group and aggs holds its finalized aggregates.
type batch struct {
	pos  [][]int32
	n    int
	sel  []int32
	aggs []*vec
}

// identity selects every frame of a batch. It is never written.
var identity = func() []int32 {
	s := make([]int32, batchSize)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}()

// add appends frame f of in, as the positions it binds in slots.
func (b *batch) add(slots []int, in *batch, f int32) {
	for _, s := range slots {
		b.pos[s] = append(b.pos[s][:b.n], in.pos[s][f])
	}
	b.n++
}

// vec is an expression's value for each frame of a batch, at the frame's
// index. Its kind says which vector holds the values: INT as int64s and
// DOUBLE as float64s, each with a NULL flag per frame; a VARCHAR column's
// cells as their codes in dict, −1 for NULL; and anything else — computed
// strings, function results, whatever may mix kinds — as Values (kind
// KindNull).
type vec struct {
	kind   Kind
	ints   []int64
	floats []float64
	null   []bool
	codes  []int32
	dict   *dict
	vals   []Value
}

// typed reports whether values of kind k travel in a typed numeric vector.
func typed(k Kind) bool { return k == KindInt || k == KindFloat }

// fit readies the vector for a batch of n frames. Each slice, the NULL
// flags included, is sized on its own, so none is shorter than n whatever
// kinds the vector held before.
func (v *vec) fit(n int) {
	switch {
	case v.kind == KindInt && len(v.ints) < n:
		v.ints = make([]int64, n)
	case v.kind == KindFloat && len(v.floats) < n:
		v.floats = make([]float64, n)
	case v.kind == KindString && len(v.codes) < n:
		v.codes = make([]int32, n)
	case v.kind == KindNull && len(v.vals) < n:
		v.vals = make([]Value, n)
	}
	if typed(v.kind) && len(v.null) < n {
		v.null = make([]bool, n)
	}
}

func (v *vec) isNull(i int32) bool {
	switch v.kind {
	case KindInt, KindFloat:
		return v.null[i]
	case KindString:
		return v.codes[i] < 0
	}
	return v.vals[i].IsNull()
}

// num returns frame i as a float64, as AsFloat would.
func (v *vec) num(i int32) float64 {
	switch v.kind {
	case KindInt:
		return float64(v.ints[i])
	case KindFloat:
		return v.floats[i]
	}
	return v.value(i).AsFloat()
}

// str returns frame i, which is not NULL, as AsString would.
func (v *vec) str(i int32) string {
	if v.kind == KindString {
		return v.dict.strs[v.codes[i]]
	}
	return v.value(i).AsString()
}

// asInt returns frame i, which is not NULL, as AsInt would.
func (v *vec) asInt(i int32) int64 {
	if v.kind == KindInt {
		return v.ints[i]
	}
	return v.value(i).AsInt()
}

func (v *vec) value(i int32) Value {
	switch {
	case v.kind == KindNull:
		return v.vals[i]
	case v.isNull(i):
		return Value{}
	case v.kind == KindInt:
		return Value{Kind: KindInt, I: v.ints[i]}
	case v.kind == KindFloat:
		return Value{Kind: KindFloat, F: v.floats[i]}
	}
	return Value{Kind: KindString, code: v.codes[i], S: v.dict.strs[v.codes[i]]}
}

// The truth of a frame's value, as bits for pick.
const (
	tNull uint8 = 1 << iota
	tFalse
	tTrue
)

func (v *vec) truth(i int32) uint8 {
	switch {
	case v.isNull(i):
		return tNull
	case v.kind == KindInt && v.ints[i] != 0, v.kind == KindFloat && v.floats[i] != 0,
		!typed(v.kind) && v.value(i).Truthy():
		return tTrue
	}
	return tFalse
}

// pick returns, in buf, the frames of sel whose truth is one of want's
// bits. buf may share sel's array: frames only move down.
func (v *vec) pick(sel []int32, buf *[]int32, want uint8) []int32 {
	out := (*buf)[:0]
	for _, i := range sel {
		if v.truth(i)&want != 0 {
			out = append(out, i)
		}
	}
	*buf = out
	return out
}
