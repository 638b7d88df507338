package sqldb

import "strings"

// dict is a database's dictionary of VARCHAR cells: every distinct string a
// table holds has one int32 code, and a VARCHAR column stores codes. Equal
// strings have equal codes across tables, so joins, indexes, GROUP BY and
// DISTINCT compare integers. A code counts the cells holding it; when the
// count reaches zero the string is dropped and the code reused, so the
// dictionary follows what the tables hold, not what passed through them.
// Code 0 is never handed out: a Value whose code is 0 carries none.
type dict struct {
	strs  []string // by code; "" once freed
	refs  []int32  // by code: the cells holding it
	codes map[string]int32
	free  []int32
}

func newDict() *dict {
	return &dict{strs: []string{""}, refs: []int32{0}, codes: map[string]int32{}}
}

// intern returns the code of v's string, for one more cell holding it. A
// string new to the dictionary is cloned, so the dictionary pins no buffer
// the string was cut from.
func (d *dict) intern(v Value) int32 {
	if v.code > 0 {
		d.refs[v.code]++
		return v.code
	}
	if c, ok := d.codes[v.S]; ok {
		d.refs[c]++
		return c
	}
	s := strings.Clone(v.S)
	var c int32
	if n := len(d.free); n > 0 {
		c, d.free = d.free[n-1], d.free[:n-1]
		d.strs[c], d.refs[c] = s, 1
	} else {
		c = int32(len(d.strs))
		d.strs, d.refs = append(d.strs, s), append(d.refs, 1)
	}
	d.codes[s] = c
	return c
}

// release drops one cell's hold on code c; −1, a NULL cell, holds nothing.
func (d *dict) release(c int32) {
	if c < 0 {
		return
	}
	if d.refs[c]--; d.refs[c] == 0 {
		delete(d.codes, d.strs[c])
		d.strs[c] = ""
		d.free = append(d.free, c)
	}
}

// live returns how many codes some cell holds.
func (d *dict) live() int { return len(d.codes) }
