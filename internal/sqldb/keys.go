package sqldb

import (
	"math"
	"math/bits"
	"slices"
)

// keyIndex assigns dense ids, in first-seen order, to the distinct keys of
// a hash join's build side, a table index, an IN subquery, a GROUP BY or a
// DISTINCT. A key is a fixed stride of 64-bit words: one tag word per 21
// components, three bits a component, then one word per component (see
// word). The keys lie back to back in one slice, found through one
// open-addressing table of their hashes and ids.
type keyIndex struct {
	dict   *dict              // resolves VARCHARs that carry no code
	tags   int                // tag words per key
	stride int                // words per key; 0 until the first key
	n      int32              // keys
	words  []uint64           // key id's words at id*stride
	slots  []uint64           // hash and id per key (see slot), 0 when empty; len a power of two
	local  map[string]keyWord // computed strings resolved so far
	buf    []uint64           // scratch: the key being looked up
}

// The tag of a key component: what its word holds.
const (
	tagNull  uint64 = iota // NULL; the word is 0
	tagInt                 // INT, or a DOUBLE holding an int64: the integer
	tagFloat               // any other DOUBLE: its bits, so −0.0 stays apart from 0
	tagCode                // a VARCHAR the dictionary holds: its code
	tagLocal               // a VARCHAR no table holds: a code of the index's own
)

const tagBits, tagsPerWord = 3, 21

// keyWord is one key component: its tag and its word.
type keyWord struct{ tag, w uint64 }

// keyScratch is one statement's buffers for finding a batch of keys: the
// ids found, each frame's key words, and the frames still being keyed.
type keyScratch struct {
	ids   []int32
	words []uint64
	live  []int32
}

// findBatch evaluates the key kernels over the frames of b that sel lists
// and returns, at each frame's index, the id of its key: −1 when the key is
// absent or — unless nulls is set — has a NULL component, whose later
// components are then not evaluated, as a row-by-row evaluation would stop
// (a NULL join key matches nothing, a NULL group key is a group). With add,
// absent keys are assigned the next ids in frame order. With cache, a
// string no table holds is given a code of the index's own (see word);
// without, a lookup of one component writes nothing, so that concurrent
// statements may probe one table's index.
func (k *keyIndex) findBatch(fns []kernel, b *batch, sel []int32, add, nulls, cache bool, ks *keyScratch) ([]int32, error) {
	tags, stride := k.tags, k.stride
	if stride == 0 {
		tags = (len(fns) + tagsPerWord - 1) / tagsPerWord
		stride = tags + len(fns)
		if add {
			k.tags, k.stride = tags, stride
		}
	}
	if len(ks.ids) < b.n {
		ks.ids = make([]int32, b.n)
	}
	if len(ks.words) < b.n*stride {
		ks.words = make([]uint64, b.n*stride)
	}
	live := append(ks.live[:0], sel...)
	for _, i := range live {
		clear(ks.words[int(i)*stride:][:tags])
	}
	for j, fn := range fns {
		v, err := fn(b, live)
		if err != nil {
			return nil, err
		}
		kept, tag, shift := live[:0], j/tagsPerWord, tagBits*(j%tagsPerWord)
		for _, i := range live {
			w, ok := keyWord{}, true
			switch {
			case v.kind == KindString && v.codes[i] >= 0:
				w = keyWord{tagCode, uint64(v.codes[i])}
			case v.kind == KindInt && !v.null[i]:
				w = keyWord{tagInt, uint64(v.ints[i])}
			case v.kind == KindFloat && !v.null[i]:
				w = floatWord(v.floats[i])
			case v.kind == KindNull:
				w, ok = k.word(v.vals[i], cache)
			}
			if !ok || w.tag == tagNull && !nulls {
				ks.ids[i] = -1
				continue
			}
			key := ks.words[int(i)*stride:]
			key[tag] |= w.tag << shift
			key[tags+j] = w.w
			kept = append(kept, i)
		}
		live = kept
	}
	ks.live = live
	for _, i := range live {
		key := ks.words[int(i)*stride:][:stride]
		ks.ids[i], _ = k.findKey(key, hashWords(key), add)
	}
	return ks.ids, nil
}

// add adds the tuple as a key, unless present, and returns its id and
// whether it was new.
func (k *keyIndex) add(vals ...Value) (int32, bool) {
	key := k.scratch(len(vals))
	for i, v := range vals {
		k.put(key, i, v)
	}
	return k.findKey(key, hashWords(key), true)
}

// scratch returns the key buffer, sized for n components on first use, with
// its tag words cleared.
func (k *keyIndex) scratch(n int) []uint64 {
	if k.stride == 0 {
		k.tags = (n + tagsPerWord - 1) / tagsPerWord
		k.stride = k.tags + n
		k.buf = make([]uint64, k.stride)
	}
	clear(k.buf[:k.tags])
	return k.buf
}

// put sets component i of key to v.
func (k *keyIndex) put(key []uint64, i int, v Value) {
	w, _ := k.word(v, true)
	key[i/tagsPerWord] |= w.tag << (tagBits * (i % tagsPerWord))
	key[k.tags+i] = w.w
}

// word returns v as a key component. INT 1 and DOUBLE 1.0 are one key, as
// Compare has them equal. A VARCHAR read from a column carries its code; any
// other is resolved once, to its dictionary code or else to a code of the
// index's own, and cached, so a string interned while the index lives keeps
// its key. Without cache nothing is written, and a string that is neither
// cached nor in the dictionary is reported absent: no key holds it.
func (k *keyIndex) word(v Value, cache bool) (keyWord, bool) {
	switch v.Kind {
	case KindInt:
		return keyWord{tagInt, uint64(v.I)}, true
	case KindFloat:
		return floatWord(v.F), true
	case KindString:
		if v.code > 0 {
			return keyWord{tagCode, uint64(v.code)}, true
		}
		if w, ok := k.local[v.S]; ok {
			return w, true
		}
		c, held := k.dict.codes[v.S]
		w := keyWord{tagCode, uint64(c)}
		if !cache {
			return w, held
		}
		if !held {
			w = keyWord{tagLocal, uint64(len(k.local))}
		}
		if k.local == nil {
			k.local = map[string]keyWord{}
		}
		k.local[v.S] = w
		return w, true
	}
	return keyWord{}, true
}

// floatWord returns a DOUBLE's key component: an INT's when it holds an
// int64.
func floatWord(f float64) keyWord {
	if f == math.Trunc(f) && f >= -1<<63 && f < 1<<63 && !(f == 0 && math.Signbit(f)) {
		return keyWord{tagInt, uint64(int64(f))}
	}
	return keyWord{tagFloat, math.Float64bits(f)}
}

// findKey returns the id of key, whose hash is h, or −1. With add, an absent key is copied
// in under the next id; without, nothing is written.
func (k *keyIndex) findKey(key []uint64, h uint32, add bool) (int32, bool) {
	if k.slots == nil {
		if !add {
			return -1, false
		}
		k.slots = make([]uint64, 16)
	}
	mask := uint32(len(k.slots) - 1)
	i := h & mask
	for ; k.slots[i] != 0; i = (i + 1) & mask {
		s := k.slots[i]
		if uint32(s>>32) != h {
			continue
		}
		id := int32(s) - 1
		if slices.Equal(k.words[int(id)*k.stride:][:k.stride], key) {
			return id, false
		}
	}
	if !add {
		return -1, false
	}
	id := k.n
	k.n++
	k.words = append(k.words, key...)
	if 2*int(k.n) <= len(k.slots) {
		k.slots[i] = slot(h, id)
		return id, true
	}
	// At half full the table doubles, and every key is placed again.
	old := k.slots
	k.slots = make([]uint64, 2*len(old))
	for _, s := range old {
		if s != 0 {
			k.place(s)
		}
	}
	k.place(slot(h, id))
	return id, true
}

// place puts slot s in the first empty slot of its probe sequence.
func (k *keyIndex) place(s uint64) {
	mask := uint32(len(k.slots) - 1)
	i := uint32(s>>32) & mask
	for k.slots[i] != 0 {
		i = (i + 1) & mask
	}
	k.slots[i] = s
}

// slot packs a key's hash and id into its slot: the hash in the high half,
// so a probe compares hashes without reading the key, and id+1 in the low.
func slot(h uint32, id int32) uint64 { return uint64(h)<<32 | uint64(id+1) }

// hashWords hashes a key's words.
func hashWords(key []uint64) uint32 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range key {
		hi, lo := bits.Mul64(h^w, 0xbf58476d1ce4e5b9)
		h = hi ^ lo
	}
	return uint32(h)
}
