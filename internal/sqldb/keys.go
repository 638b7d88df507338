package sqldb

import (
	"encoding/binary"
	"math"
)

// keyIndex assigns dense ids, in first-seen order, to the distinct keys of
// a hash join's build side, a table index, an IN subquery, a GROUP BY or a
// DISTINCT. A key that is a single integral value (GROUP BY R1.tid) goes
// through an integer-keyed map; everything else through its appendKey
// encoding, looked up without allocating.
type keyIndex struct {
	ints map[int64]int32
	strs map[string]int32
	buf  []byte // scratch: the encoding of the key being looked up
}

func (k *keyIndex) len() int { return len(k.ints) + len(k.strs) }

// find evaluates the key expressions on the frame and returns the key's id,
// or −1 when the key is absent — or, unless nulls is set, when a component
// is NULL (a NULL join key matches nothing, a NULL group key is a group).
// With add, an absent key is assigned the next id.
func (k *keyIndex) find(fns []evalFn, ctx *evalCtx, add, nulls bool) (id int32, added bool, err error) {
	if len(fns) == 1 {
		v, err := fns[0](ctx)
		if err != nil || v.IsNull() && !nulls {
			return -1, false, err
		}
		id, added = k.findValue(v, add)
		return id, added, nil
	}
	k.buf = k.buf[:0]
	for _, fn := range fns {
		v, err := fn(ctx)
		if err != nil {
			return -1, false, err
		}
		if v.IsNull() && !nulls {
			return -1, false, nil
		}
		k.buf = appendKey(k.buf, v)
	}
	id, added = k.findEncoded(add)
	return id, added, nil
}

// findValue is find for the one-component key v.
func (k *keyIndex) findValue(v Value, add bool) (int32, bool) {
	if n, ok := intKey(v); ok {
		return k.findInt(n, add)
	}
	k.buf = appendKey(k.buf[:0], v)
	return k.findEncoded(add)
}

// lookup returns the id of the one-component key v, or −1. It encodes into
// *buf, not the index's own scratch, so that concurrent readers may probe
// one table's index.
func (k *keyIndex) lookup(v Value, buf *[]byte) int32 {
	if n, ok := intKey(v); ok {
		if id, ok := k.ints[n]; ok {
			return id
		}
		return -1
	}
	*buf = appendKey((*buf)[:0], v)
	if id, ok := k.strs[string(*buf)]; ok {
		return id
	}
	return -1
}

func (k *keyIndex) findInt(n int64, add bool) (int32, bool) {
	if id, ok := k.ints[n]; ok {
		return id, false
	}
	if !add {
		return -1, false
	}
	if k.ints == nil {
		k.ints = map[int64]int32{}
	}
	id := int32(k.len())
	k.ints[n] = id
	return id, true
}

// addValues adds the tuple as a key and reports whether it was new.
func (k *keyIndex) addValues(vals ...Value) bool {
	k.buf = k.buf[:0]
	for _, v := range vals {
		k.buf = appendKey(k.buf, v)
	}
	_, added := k.findEncoded(true)
	return added
}

// findEncoded looks up the key encoded in k.buf.
func (k *keyIndex) findEncoded(add bool) (int32, bool) {
	if id, ok := k.strs[string(k.buf)]; ok {
		return id, false
	}
	if !add {
		return -1, false
	}
	if k.strs == nil {
		k.strs = map[string]int32{}
	}
	id := int32(k.len())
	k.strs[string(k.buf)] = id
	return id, true
}

// intKey reports whether v's normalized key (Value.hashKey: INT 1 and
// DOUBLE 1.0 are one key) is an integer, and which. Negative zero is left
// to appendKey, which tells it from zero.
func intKey(v Value) (int64, bool) {
	if v.Kind == KindInt {
		return v.I, true // what both branches below come to
	}
	switch k := v.hashKey(); k.kind {
	case 'i':
		return k.i, true
	case 'f':
		if k.f == math.Trunc(k.f) && math.Abs(k.f) <= float64(float64ExactInt) && !(k.f == 0 && math.Signbit(k.f)) {
			return int64(k.f), true
		}
	}
	return 0, false
}

// appendKey appends a normalized, collision-free encoding of v to buf; it is
// used for hash-join and index keys, IN subqueries, GROUP BY keys, DISTINCT
// and COUNT(DISTINCT). The normalization mirrors Value.hashKey: numerics
// exactly representable in float64 share an encoding across INT/DOUBLE;
// larger integers keep their exact 64-bit form.
func appendKey(buf []byte, v Value) []byte {
	k := v.hashKey()
	switch k.kind {
	case 'n':
		return append(buf, 0)
	case 'f':
		buf = append(buf, 1)
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(k.f))
	case 'i':
		buf = append(buf, 3)
		return binary.LittleEndian.AppendUint64(buf, uint64(k.i))
	default:
		buf = append(buf, 2)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(k.s)))
		return append(buf, k.s...)
	}
}
