package core

import (
	"iter"
	"math"
	"slices"
)

// This file holds the delta primitives snapshot assembly is made of. A
// snapshot is immutable, so "updating" a table means producing its next
// generation while sharing every row the delta does not reach. All four
// primitives are flat passes — slice-header copies, int32 shifts, a merge
// of two sorted key lists — and none hashes a string, walks a map or
// allocates per retained record. A fresh build is the same primitives over
// an empty predecessor.

// splice describes how one record list derives from its predecessor: old
// positions that disappear, old positions whose record is replaced in
// place, and records appended at the end. Retained records keep their
// relative order, so old position i moves to i minus the drops below it.
type splice struct {
	drop []int    // old positions removed, ascending
	repl []int    // old positions replaced in place, ascending
	recs []Record // the replacements (parallel to repl), then the appended records
	raw  rawCols  // tokenization of recs

	// Derived by seal: every old position whose current tokenization
	// leaves the tables (drop ∪ repl, ascending), and the new position of
	// every record in recs.
	removed []int
	pos     []int32
}

// seal derives removed and pos for a predecessor of oldLen records:
// replacements keep their (shifted) place, appended records follow the
// retained ones.
func (sp *splice) seal(oldLen int) *splice {
	sp.removed = make([]int, 0, len(sp.drop)+len(sp.repl))
	sp.removed = append(append(sp.removed, sp.drop...), sp.repl...)
	slices.Sort(sp.removed)
	sp.pos = make([]int32, len(sp.recs))
	d := 0
	for k, p := range sp.repl {
		for d < len(sp.drop) && sp.drop[d] < p {
			d++
		}
		sp.pos[k] = int32(p - d)
	}
	base := oldLen - len(sp.drop)
	for k := len(sp.repl); k < len(sp.pos); k++ {
		sp.pos[k] = int32(base + k - len(sp.repl))
	}
	return sp
}

// replacement returns the index in recs of the record replacing old
// position p, or false when p is dropped (or retained).
func (sp *splice) replacement(p int) (int, bool) { return slices.BinarySearch(sp.repl, p) }

// spliceRows applies a splice to one per-record column: runs of retained
// rows are block-copied, added[k] lands where sp.recs[k] does.
func spliceRows[T any](old []T, sp *splice, added []T) []T {
	out := make([]T, 0, len(old)-len(sp.drop)-len(sp.repl)+len(added))
	d, r, from := 0, 0, 0
	for d < len(sp.drop) || r < len(sp.repl) {
		if r == len(sp.repl) || (d < len(sp.drop) && sp.drop[d] < sp.repl[r]) {
			out = append(out, old[from:sp.drop[d]]...)
			from = sp.drop[d] + 1
			d++
		} else {
			out = append(append(out, old[from:sp.repl[r]]...), added[r])
			from = sp.repl[r] + 1
			r++
		}
	}
	return append(append(out, old[from:]...), added[len(sp.repl):]...)
}

// valueShift maps the values stored in inverted lists (record positions,
// dense word ids) from one generation to the next: values inside a removed
// range vanish, values above it move by the cumulative size change.
type valueShift struct {
	lo, hi []int32 // removed old ranges [lo, hi), ascending and disjoint
	cum    []int32 // shift of old values in [hi[k], lo[k+1])
	from   int32   // smallest old value that moves; MaxInt32 when none does
}

func newValueShift(n int) *valueShift {
	return &valueShift{lo: make([]int32, 0, n), hi: make([]int32, 0, n), cum: make([]int32, 0, n), from: math.MaxInt32}
}

// remove records that old range [lo, hi) is replaced by newSize values.
func (v *valueShift) remove(lo, hi, newSize int32) {
	c := newSize - (hi - lo)
	if n := len(v.cum); n > 0 {
		c += v.cum[n-1]
	}
	v.lo, v.hi, v.cum = append(v.lo, lo), append(v.hi, hi), append(v.cum, c)
	if c != 0 && v.from == math.MaxInt32 {
		v.from = hi
	}
}

// appendShifted appends the next-generation form of an ascending list.
func (v *valueShift) appendShifted(dst, src []int32) []int32 {
	k, d := 0, int32(0)
	for _, x := range src {
		for k < len(v.hi) && x >= v.hi[k] {
			d = v.cum[k]
			k++
		}
		if k < len(v.lo) && x >= v.lo[k] {
			continue
		}
		dst = append(dst, x+d)
	}
	return dst
}

// spliceKeys merges born keys into a sorted key list and drops dead ones.
// Ids are positions in the list; born key b has the extended id
// len(old)+b. remap sends every extended id to its new id (−1 for dead
// keys) and is nil when the list does not change. Surviving old keys keep
// their relative order, so remapped rows stay sorted.
func spliceKeys[K any](old, born []K, dead []int32, cmp func(a, b K) int) (keys []K, remap []int32) {
	if len(born) == 0 && len(dead) == 0 {
		return old, nil
	}
	order := make([]int, len(born))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp(born[a], born[b]) })
	slices.Sort(dead)
	keys = make([]K, 0, len(old)-len(dead)+len(born))
	remap = make([]int32, len(old)+len(born))
	from, d := 0, 0
	emit := func(to int) { // old[from:to) minus the dead, block by block
		for from < to {
			stop := to
			if d < len(dead) && int(dead[d]) < to {
				stop = int(dead[d])
			}
			base := int32(len(keys) - from)
			keys = append(keys, old[from:stop]...)
			for i := from; i < stop; i++ {
				remap[i] = int32(i) + base
			}
			if from = stop; from < to {
				remap[from] = -1
				from++
				d++
			}
		}
	}
	for _, b := range order {
		ins, _ := slices.BinarySearchFunc(old, born[b], cmp)
		emit(ins)
		remap[len(old)+b] = int32(len(keys))
		keys = append(keys, born[b])
	}
	emit(len(old))
	return keys, remap
}

// keyDelta accumulates the count changes a delta applies to a sorted key
// dictionary, assigning extended ids to keys it has not seen before.
type keyDelta[K comparable] struct {
	old   []K
	cmp   func(a, b K) int
	born  []K
	ids   map[K]int32 // born key → extended id
	delta []int32     // count change by extended id
	lost  []int32     // old ids that lost at least one occurrence
}

func newKeyDelta[K comparable](old []K, cmp func(a, b K) int) *keyDelta[K] {
	return &keyDelta[K]{old: old, cmp: cmp, ids: map[K]int32{}, delta: make([]int32, len(old))}
}

// id resolves a key: its position among the old keys, or a fresh extended
// id. Only the delta's own keys are ever looked up.
func (d *keyDelta[K]) id(k K) int32 {
	if len(d.old) > 0 {
		if i, ok := slices.BinarySearchFunc(d.old, k, d.cmp); ok {
			return int32(i)
		}
	}
	id, ok := d.ids[k]
	if !ok {
		id = int32(len(d.old) + len(d.born))
		d.born = append(d.born, k)
		d.ids[k] = id
		d.delta = append(d.delta, 0)
	}
	return id
}

func (d *keyDelta[K]) add(id int32) { d.delta[id]++ }

func (d *keyDelta[K]) remove(id int32) {
	d.delta[id]--
	d.lost = append(d.lost, id)
}

// finish closes the delta against the old per-key counts: keys whose count
// reaches zero die, born keys merge in.
func (d *keyDelta[K]) finish(count func(id int32) int32) (keys []K, remap []int32) {
	slices.Sort(d.lost)
	d.lost = slices.Compact(d.lost)
	var dead []int32
	for _, id := range d.lost {
		if count(id)+d.delta[id] == 0 {
			dead = append(dead, id)
		}
	}
	return spliceKeys(d.old, d.born, dead, d.cmp)
}

// remapped returns remap[id], or id under the identity remap.
func remapped(remap []int32, id int32) int32 {
	if remap == nil {
		return id
	}
	return remap[id]
}

// remapCounts carries a rank-indexed counter column to the next generation
// and applies the delta (indexed by extended id, possibly shorter).
func remapCounts(old, delta, remap []int32, n int) []int32 {
	out := make([]int32, n)
	if remap == nil {
		copy(out, old)
	} else {
		for id, c := range old {
			if nid := remap[id]; nid >= 0 {
				out[nid] = c
			}
		}
	}
	for id, c := range delta {
		if nid := remapped(remap, int32(id)); nid >= 0 {
			out[nid] += c
		}
	}
	return out
}

// spliceLists produces the next generation of an id-indexed table of
// ascending int32 lists. Lists the delta does not reach are shared with the
// predecessor. A list is rewritten when it loses values (lost, old ids),
// holds a value that shifts, or gains one below its last (adds yields new
// id and value, values ascending per id); a list that only gains past its
// end grows by append — in place when its backing array has room, which is
// safe because mutations form one lineage (see Corpus.apply) and readers of
// older snapshots never look past their own length. When the rewritten
// volume is a sizeable share of the table everything moves into one
// contiguous backing array — which is also how a fresh build (no
// predecessor) lays the table out, and what keeps an old backing from
// staying pinned by a few survivors — otherwise each rewritten list is
// allocated alone.
func spliceLists(old [][]int32, remap []int32, n int, sh *valueShift, lost []int32, adds iter.Seq2[int32, int32]) [][]int32 {
	out := make([][]int32, n)
	live := 0
	for id, l := range old {
		if nid := remapped(remap, int32(id)); nid >= 0 {
			out[nid] = l
			live += len(l)
		}
	}
	gain := make([]int32, n)
	fill := make([]int32, n) // first gained value, then the next free slot
	gained := 0
	for nid, v := range adds {
		if gain[nid] == 0 {
			fill[nid] = v
		}
		gain[nid]++
		gained++
	}
	rewrite := make([]bool, n)
	for _, id := range lost {
		if nid := remapped(remap, id); nid >= 0 {
			rewrite[nid] = true
		}
	}
	volume := 0
	for nid, l := range out {
		if len(l) > 0 && (l[len(l)-1] >= sh.from || (gain[nid] > 0 && fill[nid] <= l[len(l)-1])) {
			rewrite[nid] = true
		}
		if rewrite[nid] {
			volume += len(l)
		}
	}
	var backing []int32
	all := volume*4 >= live
	if all {
		backing = make([]int32, 0, live+gained)
	}
	for nid, l := range out {
		switch {
		case all || rewrite[nid]:
			if !all {
				backing = make([]int32, 0, len(l)+int(gain[nid]))
			}
			start := len(backing)
			backing = sh.appendShifted(backing, l)
			fill[nid] = int32(len(backing) - start)
			backing = backing[:len(backing)+int(gain[nid])]
			out[nid] = backing[start:len(backing):len(backing)]
		case gain[nid] > 0:
			fill[nid] = int32(len(l))
			out[nid] = slices.Grow(l, int(gain[nid]))[:len(l)+int(gain[nid])]
		}
	}
	for nid, v := range adds {
		out[nid][fill[nid]] = v
		fill[nid]++
	}
	// A replaced record re-enters its lists mid-way; everything else gained
	// sits past the retained values already.
	for nid, l := range out {
		if mid := len(l) - int(gain[nid]); gain[nid] > 0 && mid > 0 && l[mid-1] > l[mid] {
			slices.Sort(l)
		}
	}
	return out
}
