package sqldb

import (
	"fmt"
	"strings"
)

// This file plans one SELECT core and streams its joins. planSelect fixes
// the join order and compiles every join key and conjunct once; run then
// pushes batches of frames through the left-deep pipeline of stages, each
// adding its row positions to the frames upstream handed it and handing
// on the frames its conjuncts pass, batchSize at a time. No join output is
// materialized beyond one batch per stage — only derived tables,
// pushed-down filters' position lists and a hash stage's bounded buffer
// of held-back positions are.
//
// The plan also decides where a row position can come back: a stage loops
// with the slots earlier stages bound held still, and a cross stage rescans
// its relation for every upstream frame. There, and only there, a compiled
// expression that reads one FROM item through a function call is memoized
// by that item's row position (see compiler.memoSlot), so the Appendix A
// tokenizers pad and measure each record once, not once per integer.
//
// A cross stage's first conjunct, when it compares an expression of the
// upstream slots with one of the stage's relation, is checked before a frame
// is bound (see preCompare): the Appendix A tokenizers' N.i <= LENGTH(…) + 1
// then binds only the pairs it keeps.

// source is one FROM item resolved for execution: the rows of rel it binds,
// by position, into frame slot slot.
type source struct {
	name  string // table name, or the alias of a derived table
	alias string
	slot  int
	cols  []relCol
	rel   *relation
	// sel, when non-nil, lists the positions of rel the source binds (a
	// pushed-down filter's survivors); nil binds every row.
	sel []int32
	// table is non-nil while the source binds every row of a base table,
	// which is what makes the table's indexes usable.
	table *Table
}

// size returns how many rows the source binds.
func (s *source) size() int {
	if s.sel != nil {
		return len(s.sel)
	}
	return s.rel.n
}

// at returns the position in rel of the source's i-th row.
func (s *source) at(i int) int32 {
	if s.sel != nil {
		return s.sel[i]
	}
	return int32(i)
}

// scan hands fn the rows the source binds, batchSize at a time, as batches
// of frames with nslots slots that bind only the source's.
func (s *source) scan(nslots int, fn func(*batch) error) error {
	b := &batch{pos: make([][]int32, nslots)}
	var all []int32
	for lo := 0; lo < s.size(); lo += batchSize {
		hi := min(lo+batchSize, s.size())
		all = all[:0]
		for i := lo; i < hi; i++ {
			all = append(all, s.at(i))
		}
		b.pos[s.slot], b.n, b.sel = all, hi-lo, identity[:hi-lo]
		if err := fn(b); err != nil {
			return err
		}
	}
	return nil
}

// gather evaluates k over the rows the source binds, batchSize at a time,
// and returns its values as one vector indexed like at: an INT vector when
// every value that is not NULL is an INT — an integer comparison then
// agrees with Compare — and Values otherwise.
func (s *source) gather(k kernel, nslots int) (*vec, error) {
	vals := make([]Value, 0, s.size())
	err := s.scan(nslots, func(b *batch) error {
		v, err := k(b, b.sel)
		if err != nil {
			return err
		}
		for _, i := range b.sel {
			vals = append(vals, v.value(i))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, x := range vals {
		if !x.IsNull() && x.Kind != KindInt {
			return &vec{kind: KindNull, vals: vals}, nil
		}
	}
	out := &vec{kind: KindInt}
	out.fit(len(vals))
	for i, x := range vals {
		out.ints[i], out.null[i] = x.I, x.IsNull()
	}
	return out, nil
}

// conjunct is one AND-term of the WHERE/ON pool with planning metadata.
type conjunct struct {
	e       expr
	needs   map[string]bool // aliases referenced; nil means undetermined
	applied bool
}

// equiPair is an equality conjunct split across a join: outer is computed
// from the relations already joined, inner from the relation being added.
// innerCol is the inner relation's column position when the inner side is a
// bare column reference (enabling index nested-loop joins), −1 otherwise.
type equiPair struct {
	outer, inner         kernel
	outerExpr, innerExpr expr
	innerCol             int
	cj                   *conjunct
}

type stageKind uint8

const (
	stageScan  stageKind = iota // the first relation; runs once
	stageCross                  // every row of the relation per upstream frame
	stageIndex                  // index nested-loop join into an indexed base table
	stageHash                   // hash join on every equality, built on the smaller input
)

// stage adds one relation to the frames flowing through the pipeline: for
// every upstream frame it binds each matching row of src, by position, in
// src's slot, and once it holds a batch of such frames it keeps those the
// conjuncts that just became evaluable pass and hands them to next.
type stage struct {
	kind stageKind
	src  *source
	// pairs are the equalities the join strategy itself enforces: a hash
	// stage keys on all of them; an index stage probes index with pairs[0]
	// and compares the rest per match.
	pairs   []equiPair
	index   *index
	filters []kernel
	// cmp, at a cross stage, is the comparison it checks before it binds a
	// frame; nil when it has none.
	cmp  *preCompare
	next func(*batch) error
	// memos counts the memoized subexpressions evaluated at the stage: in
	// its comparison's upstream side, its filters and, at the last stage,
	// in the projection.
	memos int
	// rows and hits tally, for the plan's one run, the frames the stage
	// handed on and the rows its memoized sites answered from the memo.
	rows, hits int

	up    []int      // the frame slots earlier stages bind
	out   batch      // frames bound, not yet handed on
	sel   []int32    // the frames of out that pass
	keys  keyScratch // the stage's key lookups
	from  []int32    // index stage with pairs[1:]: per frame of out, its upstream frame,
	outer []*vec     // whose outer sides of pairs[1:] these are
	hash  *hashJoin  // hash stage
}

// selectPlan is the executable form of one SELECT core's FROM/WHERE.
type selectPlan struct {
	sources []source // in FROM order; a FROM-less SELECT scans one row of no columns
	schema  *relSchema
	stages  []*stage // in join order
}

func (p *selectPlan) String() string {
	parts := make([]string, len(p.stages))
	for i, st := range p.stages {
		parts[i] = st.String()
	}
	return strings.Join(parts, " → ")
}

// String describes the stage, e.g. "index-nlj base_weights(token) ← s.token".
// A hash stage that has run also reports which input it built its table on,
// and a cross stage the comparison it checks before binding, e.g.
// "cross base_table [n.i <= (LENGTH(b.string) + 1)]". Memoized
// subexpressions are counted, e.g. "cross base_table [memo 1]".
func (st *stage) String() string {
	var sb strings.Builder
	switch st.kind {
	case stageScan:
		sb.WriteString("scan " + st.src.name)
	case stageCross:
		sb.WriteString("cross " + st.src.name)
		if c := st.cmp; c != nil {
			fmt.Fprintf(&sb, " [%s %s %s]", exprString(c.e.L), c.e.Op, exprString(c.e.R))
		}
	case stageIndex:
		fmt.Fprintf(&sb, "index-nlj %s(%s) ← %s", st.src.name, st.src.cols[st.index.col].name, exprString(st.pairs[0].outerExpr))
		for _, p := range st.pairs[1:] {
			fmt.Fprintf(&sb, ", %s = %s", exprString(p.innerExpr), exprString(p.outerExpr))
		}
	case stageHash:
		sb.WriteString("hash " + st.src.name)
		for i, p := range st.pairs {
			sep := ", "
			if i == 0 {
				sep = ": "
			}
			fmt.Fprintf(&sb, "%s%s = %s", sep, exprString(p.innerExpr), exprString(p.outerExpr))
		}
		if st.hash.builtOn != "" {
			sb.WriteString(" [built on " + st.hash.builtOn + "]")
		}
	}
	if st.memos > 0 {
		fmt.Fprintf(&sb, " [memo %d]", st.memos)
	}
	return sb.String()
}

// tally lists, stage by stage, the rows the stage handed on and, after a
// slash, the memo hits of its sites, e.g. "3 → 12/9".
func (p *selectPlan) tally() string {
	parts := make([]string, len(p.stages))
	for i, st := range p.stages {
		parts[i] = fmt.Sprint(st.rows)
		if st.memos > 0 {
			parts[i] += fmt.Sprintf("/%d", st.hits)
		}
	}
	return strings.Join(parts, " → ")
}

// repeats reports whether a site evaluated as stage k binds its rows can
// see the same row position in frame slot slot more than once: the slot is
// bound by an earlier stage, which holds it still while stage k loops, or
// by stage k itself when it is a cross stage, which rescans its relation
// for every upstream frame. The rows an index or hash stage binds, and the
// first stage's, are not expected to come back.
func (p *selectPlan) repeats(k, slot int) bool {
	for j, st := range p.stages[:k+1] {
		if st.src.slot == slot {
			return j < k || st.kind == stageCross
		}
	}
	return false
}

// planSelect resolves the FROM items (materializing derived tables), pushes
// single-relation filters down, and fixes the join order greedily: start
// from the smallest relation, then prefer an index nested-loop join into an
// indexed base table, then a hash join, then a cross product that makes a
// pending conjunct evaluable, then the smallest remaining relation.
func (db *DB) planSelect(sel *selectStmt) (*selectPlan, error) {
	p := &selectPlan{schema: &relSchema{}}
	var pool []*conjunct
	for slot, ref := range sel.From {
		src := source{alias: ref.Alias, slot: slot}
		if src.alias == "" {
			src.alias = strings.ToLower(ref.Name)
		}
		var names []string
		if ref.Sub != nil {
			rel, cols, err := db.materialize(ref.Sub)
			if err != nil {
				return nil, err
			}
			src.name, src.rel, names = src.alias, rel, cols
		} else {
			t := db.tables[strings.ToLower(ref.Name)]
			if t == nil {
				return nil, fmt.Errorf("sqldb: unknown table %q", ref.Name)
			}
			src.name, src.rel, src.table, names = t.name, &t.rel, t, t.Columns()
		}
		for i, name := range names {
			src.cols = append(src.cols, relCol{qual: src.alias, name: name, slot: slot, col: &src.rel.cols[i]})
		}
		p.sources = append(p.sources, src)
		p.schema.cols = append(p.schema.cols, src.cols...)
		if ref.On != nil {
			for _, e := range splitAnd(ref.On) {
				pool = append(pool, &conjunct{e: e})
			}
		}
	}
	if len(p.sources) == 0 {
		p.sources = []source{{name: "dual", rel: &relation{n: 1}}}
	}
	if sel.Where != nil {
		for _, e := range splitAnd(sel.Where) {
			pool = append(pool, &conjunct{e: e})
		}
	}

	// Column name → owning aliases, for attributing unqualified references.
	colOwners := map[string][]string{}
	for i := range p.sources {
		seen := map[string]bool{}
		for _, c := range p.sources[i].cols {
			if !seen[c.name] {
				colOwners[c.name] = append(colOwners[c.name], c.qual)
				seen[c.name] = true
			}
		}
	}
	for _, cj := range pool {
		cj.needs = referencedAliases(cj.e, colOwners)
	}
	full := &compiler{db: db, schema: p.schema}

	// Push single-relation filters below the joins. The order and build
	// sides chosen below depend on the filtered sizes, and a filtered
	// relation binds only some of its table's rows, so its indexes are out
	// of reach. A lone relation needs no order: its filters run in the scan.
	for i := range p.sources {
		if len(p.sources) == 1 {
			break
		}
		src := &p.sources[i]
		var filters []kernel
		for _, cj := range pool {
			if cj.applied || len(cj.needs) != 1 || !cj.needs[src.alias] {
				continue
			}
			k, err := full.compile(cj.e)
			if err != nil {
				return nil, err
			}
			filters = append(filters, k)
			cj.applied = true
		}
		if len(filters) == 0 {
			continue
		}
		kept := []int32{}
		keep := &stage{filters: filters, next: func(b *batch) error {
			for _, i := range b.sel {
				kept = append(kept, b.pos[src.slot][i])
			}
			return nil
		}}
		if err := src.scan(len(p.sources), keep.hand); err != nil {
			return nil, err
		}
		src.sel, src.table = kept, nil
	}

	first := 0
	for i := range p.sources {
		if p.sources[i].size() < p.sources[first].size() {
			first = i
		}
	}
	p.stages = []*stage{{kind: stageScan, src: &p.sources[first]}}
	up := []int{p.sources[first].slot}
	// From here on a conjunct runs as some stage binds its rows, where a
	// row can come back; a pushed-down filter saw each row once.
	full.plan = p
	joined := map[string]bool{p.sources[first].alias: true}
	outer := &relSchema{cols: p.sources[first].cols}
	var remaining []*source
	for i := range p.sources {
		if i != first {
			remaining = append(remaining, &p.sources[i])
		}
	}
	for len(remaining) > 0 {
		bestPos, bestScore := -1, -1
		var bestPairs []equiPair
		for pos, cand := range remaining {
			pairs := equiPairsFor(db, outer, cand, pool)
			score := 0
			switch {
			case indexedPair(cand, pairs) >= 0:
				score = 3
			case len(pairs) > 0:
				score = 2
			case unlocksConjunct(cand.alias, joined, pool):
				score = 1
			}
			if score > bestScore || (score == bestScore && cand.size() < remaining[bestPos].size()) {
				bestPos, bestScore, bestPairs = pos, score, pairs
			}
		}
		cand := remaining[bestPos]
		remaining = append(remaining[:bestPos], remaining[bestPos+1:]...)

		st := &stage{kind: stageCross, src: cand, pairs: bestPairs, up: up}
		up = append(up[:len(up):len(up)], cand.slot)
		if ip := indexedPair(cand, bestPairs); ip >= 0 {
			st.kind = stageIndex
			st.pairs[0], st.pairs[ip] = st.pairs[ip], st.pairs[0]
			st.index = cand.table.indexes[cand.cols[st.pairs[0].innerCol].name]
			st.outer = make([]*vec, len(st.pairs)-1)
		} else if len(bestPairs) > 0 {
			st.kind = stageHash
			st.hash = &hashJoin{table: joinTable{keys: keyIndex{dict: db.dict}}}
			for _, pr := range bestPairs {
				st.hash.outerKeys = append(st.hash.outerKeys, pr.outer)
				st.hash.innerKeys = append(st.hash.innerKeys, pr.inner)
			}
		}
		for _, pr := range bestPairs {
			pr.cj.applied = true
		}
		joined[cand.alias] = true
		outer.cols = append(outer.cols[:len(outer.cols):len(outer.cols)], cand.cols...)
		p.stages = append(p.stages, st)
		full.stage = len(p.stages) - 1
		for _, cj := range pool {
			if cj.applied || cj.needs == nil || !subset(cj.needs, joined) {
				continue
			}
			cj.applied = true
			if st.kind == stageCross && st.cmp == nil && len(st.filters) == 0 {
				c, err := full.preCompare(cj.e, cand.alias, colOwners)
				if err != nil {
					return nil, err
				}
				if st.cmp = c; c != nil {
					continue
				}
			}
			fn, err := full.compile(cj.e)
			if err != nil {
				return nil, err
			}
			st.filters = append(st.filters, fn)
		}
	}

	// Conjuncts whose references could not be attributed (or, with a single
	// relation, all of them) apply to the complete frame.
	full.stage = len(p.stages) - 1
	last := p.stages[full.stage]
	for _, cj := range pool {
		if cj.applied {
			continue
		}
		fn, err := full.compile(cj.e)
		if err != nil {
			return nil, err
		}
		last.filters = append(last.filters, fn)
	}
	return p, nil
}

// equiPairsFor finds conjuncts of the form exprA = exprB where one side is
// computable from the joined relations alone and the other from cand alone.
// This covers both plain column equality (R1.token = R2.token) and computed
// keys such as the paper's word tokenizer join
// N2.i = LOCATE(' ', string, N1.i + 1).
func equiPairsFor(db *DB, outer *relSchema, cand *source, pool []*conjunct) []equiPair {
	outerC := &compiler{db: db, schema: outer}
	candC := &compiler{db: db, schema: &relSchema{cols: cand.cols}}
	tryCompile := func(c *compiler, e expr) (kernel, bool) {
		if isAggregate(e) {
			return nil, false
		}
		k, err := c.compile(e)
		return k, err == nil
	}
	candCol := func(e expr) int {
		cr, ok := e.(*colRef)
		if !ok {
			return -1
		}
		idx, err := candC.schema.resolve(cr.Table, cr.Name)
		if err != nil {
			return -1
		}
		return idx
	}
	var pairs []equiPair
	for _, cj := range pool {
		if cj.applied {
			continue
		}
		be, ok := cj.e.(*binaryExpr)
		if !ok || be.Op != "=" {
			continue
		}
		if lfn, ok := tryCompile(outerC, be.L); ok {
			if rfn, ok := tryCompile(candC, be.R); ok {
				pairs = append(pairs, equiPair{outer: lfn, inner: rfn, outerExpr: be.L, innerExpr: be.R, innerCol: candCol(be.R), cj: cj})
				continue
			}
		}
		if lfn, ok := tryCompile(candC, be.L); ok {
			if rfn, ok := tryCompile(outerC, be.R); ok {
				pairs = append(pairs, equiPair{outer: rfn, inner: lfn, outerExpr: be.R, innerExpr: be.L, innerCol: candCol(be.L), cj: cj})
			}
		}
	}
	return pairs
}

// preCompare is a comparison a cross stage checks before it binds a frame:
// up reads only the slots upstream binds, rel only the stage's relation.
// Only the stage's first conjunct qualifies — the one that, as a filter,
// would run on every (upstream frame, row) pair — so a function on either
// side sees the rows it would see as a filter: rel every row of the
// relation, up every upstream frame, and neither any when the other input
// is empty.
type preCompare struct {
	e      *binaryExpr
	upLeft bool    // up is e.L; it is evaluated first, as compareKernel would
	holds  [3]bool // at cmp(up, rel) + 1
	up     kernel  // over upstream frames, memoized as a filter would be
	rel    kernel  // over the relation's rows
	rows   *vec    // rel at each row the source binds, once evaluated
}

// preCompare returns the pre-bind comparison e makes at the compiler's
// stage, whose relation is alias's, or nil if e is no ordering comparison
// or <> between an expression of upstream slots and one of that relation.
func (c *compiler) preCompare(e expr, alias string, colOwners map[string][]string) (*preCompare, error) {
	be, ok := e.(*binaryExpr)
	if !ok || be.Op == "=" {
		return nil, nil
	}
	holds, ok := cmpHolds[be.Op]
	if !ok {
		return nil, nil
	}
	reads := func(e expr, rel bool) bool {
		for a := range referencedAliases(e, colOwners) {
			if (a == alias) != rel {
				return false
			}
		}
		return true
	}
	pc := &preCompare{e: be, upLeft: true, holds: holds}
	upSide, relSide := be.L, be.R
	if !reads(upSide, false) || !reads(relSide, true) {
		if !reads(be.R, false) || !reads(be.L, true) {
			return nil, nil
		}
		pc.upLeft, upSide, relSide = false, be.R, be.L
		pc.holds = [3]bool{holds[2], holds[1], holds[0]}
	}
	var err error
	if pc.up, err = c.compile(upSide); err != nil {
		return nil, err
	}
	plan := c.plan
	c.plan = nil // rel runs once per row: nothing to memoize
	pc.rel, err = c.compile(relSide)
	c.plan = plan
	if err != nil {
		return nil, err
	}
	return pc, nil
}

// indexedPair returns the first pair whose inner side is an indexed column
// of cand's base table, or −1.
func indexedPair(cand *source, pairs []equiPair) int {
	if cand.table == nil {
		return -1
	}
	for i, p := range pairs {
		if p.innerCol < 0 {
			continue
		}
		if _, ok := cand.table.indexes[cand.cols[p.innerCol].name]; ok {
			return i
		}
	}
	return -1
}

// unlocksConjunct reports whether joining alias makes some pending conjunct
// evaluable, so that the cross product is filtered as it streams.
func unlocksConjunct(alias string, joined map[string]bool, pool []*conjunct) bool {
	for _, cj := range pool {
		if cj.applied || cj.needs == nil || !cj.needs[alias] {
			continue
		}
		unlocked := true
		for a := range cj.needs {
			if a != alias && !joined[a] {
				unlocked = false
				break
			}
		}
		if unlocked {
			return true
		}
	}
	return false
}

// splitAnd flattens an AND tree into conjuncts.
func splitAnd(e expr) []expr {
	if be, ok := e.(*binaryExpr); ok && be.Op == "AND" {
		return append(splitAnd(be.L), splitAnd(be.R)...)
	}
	return []expr{e}
}

// referencedAliases returns the set of FROM aliases an expression touches,
// or nil when a reference cannot be attributed statically.
func referencedAliases(e expr, colOwners map[string][]string) map[string]bool {
	needs := map[string]bool{}
	ok := collectAliases(e, colOwners, needs)
	if !ok {
		return nil
	}
	return needs
}

func collectAliases(e expr, colOwners map[string][]string, needs map[string]bool) bool {
	switch x := e.(type) {
	case nil:
		return true
	case *literal:
		return true
	case *colRef:
		if x.Table != "" {
			needs[x.Table] = true
			return true
		}
		owners := colOwners[x.Name]
		if len(owners) != 1 {
			return false
		}
		needs[owners[0]] = true
		return true
	case *unaryExpr:
		return collectAliases(x.X, colOwners, needs)
	case *binaryExpr:
		return collectAliases(x.L, colOwners, needs) && collectAliases(x.R, colOwners, needs)
	case *funcCall:
		for _, a := range x.Args {
			if !collectAliases(a, colOwners, needs) {
				return false
			}
		}
		return true
	case *inExpr:
		if !collectAliases(x.X, colOwners, needs) {
			return false
		}
		for _, a := range x.List {
			if !collectAliases(a, colOwners, needs) {
				return false
			}
		}
		return true // subquery is uncorrelated by construction
	case *isNullExpr:
		return collectAliases(x.X, colOwners, needs)
	case *caseExpr:
		for _, w := range x.Whens {
			if !collectAliases(w.Cond, colOwners, needs) || !collectAliases(w.Then, colOwners, needs) {
				return false
			}
		}
		if x.Else != nil {
			return collectAliases(x.Else, colOwners, needs)
		}
		return true
	default:
		return false
	}
}

func subset(a, b map[string]bool) bool {
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// ---- the pipeline ----

// run streams every joined frame that satisfies the plan's conjuncts into
// sink, a batch at a time, in emission order: outer order, then
// index-chain or row order.
func (p *selectPlan) run(sink func(*batch) error) error {
	next := sink
	for i := len(p.stages) - 1; i >= 0; i-- {
		st := p.stages[i]
		st.next, next = next, st.push
		st.out.pos = make([][]int32, len(p.sources))
	}
	first := p.stages[0]
	if err := first.src.scan(len(p.sources), first.hand); err != nil {
		return err
	}
	// Upstream is exhausted: a hash stage still holding its input decides
	// now, and each stage hands on the frames it holds, in pipeline order,
	// since what a stage hands on feeds the stages after it.
	for _, st := range p.stages[1:] {
		if st.kind == stageHash {
			if err := st.flushHash(); err != nil {
				return err
			}
		}
		if err := st.flush(); err != nil {
			return err
		}
	}
	return nil
}

// hand keeps the frames of b its selection lists that the stage's filters
// pass — each filter runs on the frames the ones before it passed — and
// hands them on.
func (st *stage) hand(b *batch) error {
	sel := b.sel
	for _, f := range st.filters {
		v, err := f(b, sel)
		if err != nil {
			return err
		}
		sel = v.pick(sel, &st.sel, tTrue)
	}
	if st.rows += len(sel); len(sel) == 0 {
		return nil
	}
	b.sel = sel
	return st.next(b)
}

// emit binds row r of the stage's relation to frame f of in, handing the
// stage's frames on once it holds a batch of them.
func (st *stage) emit(in *batch, f, r int32) error {
	o := &st.out
	o.pos[st.src.slot] = append(o.pos[st.src.slot][:o.n], r)
	if o.add(st.up, in, f); o.n == batchSize {
		return st.flush()
	}
	return nil
}

// flush hands on the frames the stage holds. An index stage first keeps
// those whose row matches the upstream frame on pairs[1:], comparing pair
// by pair, each on the frames the pairs before it matched.
func (st *stage) flush() error {
	o := &st.out
	if o.n == 0 {
		return nil
	}
	o.sel = identity[:o.n]
	for k := range st.outer {
		iv, err := st.pairs[k+1].inner(o, o.sel)
		if err != nil {
			return err
		}
		kept := st.sel[:0]
		for _, i := range o.sel {
			if cmp, ok := Compare(st.outer[k].value(st.from[i]), iv.value(i)); ok && cmp == 0 {
				kept = append(kept, i)
			}
		}
		st.sel, o.sel = kept, kept
	}
	err := st.hand(o)
	o.n, st.from = 0, st.from[:0]
	return err
}

func (st *stage) push(in *batch) error {
	switch st.kind {
	case stageIndex:
		return st.pushIndex(in)
	case stageHash:
		return st.pushHash(in)
	}
	if st.cmp != nil {
		return st.pushCompare(in)
	}
	for _, f := range in.sel {
		for i, n := 0, st.src.size(); i < n; i++ {
			if err := st.emit(in, f, st.src.at(i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// pushCompare binds, for each upstream frame, the rows of the relation
// that the stage's comparison holds for, in row order. The relation side is
// evaluated over every row at the first upstream batch and kept for the
// statement, the upstream side once per upstream batch. Comparison agrees
// with compareKernel: typed over INT, Compare otherwise (which compares
// numbers as compareKernel's DOUBLE loop does), and NULL never holds.
func (st *stage) pushCompare(in *batch) error {
	c, n := st.cmp, st.src.size()
	if n == 0 {
		return nil
	}
	var uv *vec
	var err error
	if c.upLeft {
		if uv, err = c.up(in, in.sel); err != nil {
			return err
		}
	}
	if c.rows == nil {
		if c.rows, err = st.src.gather(c.rel, len(in.pos)); err != nil {
			return err
		}
	}
	if !c.upLeft {
		if uv, err = c.up(in, in.sel); err != nil {
			return err
		}
	}
	rv, h := c.rows, c.holds
	ints := uv.kind == KindInt && rv.kind == KindInt
	for _, f := range in.sel {
		if ints {
			if uv.null[f] {
				continue
			}
			u := uv.ints[f]
			for i, x := range rv.ints[:n] {
				if !rv.null[i] && h[b2i(u > x)-b2i(u < x)+1] {
					if err := st.emit(in, f, st.src.at(i)); err != nil {
						return err
					}
				}
			}
			continue
		}
		u := uv.value(f)
		for i := range int32(n) {
			if cmp, ok := Compare(u, rv.value(i)); ok && h[cmp+1] {
				if err := st.emit(in, f, st.src.at(int(i))); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (st *stage) pushIndex(in *batch) error {
	ids, err := st.index.keys.findBatch([]kernel{st.pairs[0].outer}, in, in.sel, false, false, false, &st.keys)
	if err != nil {
		return err
	}
	rest := len(st.pairs) > 1
	if rest {
		// The outer sides of the other pairs, once per upstream frame with
		// a match; the frames they are compared on are handed on before
		// the next upstream batch overwrites them.
		found := st.sel[:0]
		for _, f := range in.sel {
			if ids[f] >= 0 {
				found = append(found, f)
			}
		}
		st.sel = found
		for k, pr := range st.pairs[1:] {
			if st.outer[k], err = pr.outer(in, found); err != nil {
				return err
			}
		}
	}
	for _, f := range in.sel {
		for r := st.index.first(ids[f]); err == nil && r >= 0; r = st.index.next[r] {
			if rest {
				st.from = append(st.from, f)
			}
			err = st.emit(in, f, r)
		}
	}
	if err == nil && rest {
		return st.flush()
	}
	return err
}

// hashJoin is the run-time state of a hash stage. The table goes on the
// smaller input, and the upstream's size is unknown until it ends, so the
// stage holds upstream frames back until there are as many as the stage's
// relation has rows — never more. Reaching that count means the relation is
// the smaller side: the table is built on it and frames probe it from then
// on. If upstream ends first, the table is built on the held frames and the
// relation's rows probe it.
type hashJoin struct {
	outerKeys, innerKeys []kernel // the two sides of the stage's pairs
	held                 []batch  // frames awaiting the decision, batchSize a batch
	nheld                int
	probing              bool // table is built on the stage's relation
	table                joinTable
	builtOn              string
}

func (st *stage) pushHash(in *batch) error {
	h := st.hash
	if h.probing {
		return st.probeHash(in, in.sel)
	}
	for k, f := range in.sel {
		if h.nheld%batchSize == 0 {
			h.held = append(h.held, batch{pos: make([][]int32, len(in.pos))})
		}
		last := &h.held[len(h.held)-1]
		last.add(st.up, in, f)
		if last.sel = identity[:last.n]; h.nheld+1 < st.src.size() {
			h.nheld++
			continue
		}
		err := st.src.scan(len(in.pos), func(b *batch) error {
			return h.table.insert(h.innerKeys, b, &st.keys)
		})
		if err != nil {
			return err
		}
		h.probing, h.builtOn = true, st.src.name
		held := h.held
		h.held = nil
		for i := range held {
			if err := st.probeHash(&held[i], held[i].sel); err != nil {
				return err
			}
		}
		return st.probeHash(in, in.sel[k+1:])
	}
	return nil
}

func (st *stage) probeHash(in *batch, sel []int32) error {
	t := &st.hash.table
	ids, err := t.keys.findBatch(st.hash.outerKeys, in, sel, false, false, true, &st.keys)
	if err != nil {
		return err
	}
	for _, f := range sel {
		for r := t.first(ids[f]); err == nil && r >= 0; r = t.next[r] {
			err = st.emit(in, f, st.src.at(int(r)))
		}
	}
	return err
}

// flushHash runs when upstream ended before the stage decided: upstream is
// the smaller input.
func (st *stage) flushHash() error {
	h := st.hash
	if h.probing || h.nheld == 0 {
		return nil
	}
	for i := range h.held {
		if err := h.table.insert(h.outerKeys, &h.held[i], &st.keys); err != nil {
			return err
		}
	}
	h.builtOn = "upstream"
	return st.src.scan(len(st.out.pos), func(b *batch) error {
		ids, err := h.table.keys.findBatch(h.innerKeys, b, b.sel, false, false, true, &st.keys)
		if err != nil {
			return err
		}
		for _, i := range b.sel {
			for r := h.table.first(ids[i]); err == nil && r >= 0; r = h.table.next[r] {
				err = st.emit(&h.held[r/batchSize], r%batchSize, b.pos[st.src.slot][i])
			}
		}
		return err
	})
}

// joinTable chains rows per distinct key in insertion order, without a
// slice per key: a hash join's build side, and a table index.
type joinTable struct {
	keys       keyIndex
	head, tail []int32 // per key id: first and last row of the chain
	next       []int32 // per row: the next row with the same key, −1 at the end
}

// insert adds the frames of b as the next rows, under the keys the kernels
// give them; a row with a NULL key component joins nothing.
func (t *joinTable) insert(keys []kernel, b *batch, ks *keyScratch) error {
	ids, err := t.keys.findBatch(keys, b, b.sel, true, false, true, ks)
	if err != nil {
		return err
	}
	for _, i := range b.sel {
		t.link(ids[i])
	}
	return nil
}

// link appends the next row to the chain of key id — a new key's, when id
// is the next one; with id −1 the row is chained nowhere.
func (t *joinTable) link(id int32) {
	row := int32(len(t.next))
	t.next = append(t.next, -1)
	switch {
	case id < 0:
	case int(id) == len(t.head):
		t.head, t.tail = append(t.head, row), append(t.tail, row)
	default:
		t.next[t.tail[id]] = row
		t.tail[id] = row
	}
}

// first returns the first row of key id's chain, or −1 for id −1.
func (t *joinTable) first(id int32) int32 {
	if id < 0 {
		return -1
	}
	return t.head[id]
}
