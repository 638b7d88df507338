package sqldb

import (
	"fmt"
	"strings"
)

// This file plans one SELECT core and streams its joins. planSelect fixes
// the join order and compiles every join key and conjunct once; run then
// pushes rows through the left-deep pipeline of stages, each binding a row
// position into the statement's one evaluation frame, so no join output is
// ever materialized — only derived tables, pushed-down filters' position
// lists and a hash stage's bounded buffer of held-back positions are.
//
// The plan also decides where a row position can come back: a stage loops
// with the slots earlier stages bound held still, and a cross stage rescans
// its relation for every upstream frame. There, and only there, a compiled
// expression that reads one FROM item through a function call is memoized
// by that item's row position (see compiler.memoSlot), so the Appendix A
// tokenizers pad and measure each record once, not once per integer.

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
	outer, inner         evalFn
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
// every upstream frame it binds each matching row of src, by position, into
// src's slot, drops the frame unless the conjuncts that just became
// evaluable hold, and hands it to next.
type stage struct {
	kind stageKind
	src  *source
	// pairs are the equalities the join strategy itself enforces: a hash
	// stage keys on all of them; an index stage probes index with pairs[0]
	// and compares the rest per match.
	pairs   []equiPair
	index   *index
	filters []evalFn
	next    func(*evalCtx) error
	// memos counts the memoized subexpressions evaluated at the stage: in
	// its filters and, at the last stage, in the projection.
	memos int

	outerVals []Value   // index stage: the outer side of pairs[1:] for the current frame
	hash      *hashJoin // hash stage
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
// A hash stage that has run also reports which input it built its table on.
// Memoized subexpressions are counted, e.g. "cross base_table [memo 2]".
func (st *stage) String() string {
	var sb strings.Builder
	switch st.kind {
	case stageScan:
		sb.WriteString("scan " + st.src.name)
	case stageCross:
		sb.WriteString("cross " + st.src.name)
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
	ctx := &evalCtx{pos: make([]int32, len(p.sources))}

	// Push single-relation filters below the joins. The order and build
	// sides chosen below depend on the filtered sizes, and a filtered
	// relation binds only some of its table's rows, so its indexes are out
	// of reach. A lone relation needs no order: its filters run in the scan.
	for i := range p.sources {
		if len(p.sources) == 1 {
			break
		}
		src := &p.sources[i]
		var filters []evalFn
		for _, cj := range pool {
			if cj.applied || len(cj.needs) != 1 || !cj.needs[src.alias] {
				continue
			}
			fn, err := full.compile(cj.e)
			if err != nil {
				return nil, err
			}
			filters = append(filters, fn)
			cj.applied = true
		}
		if len(filters) == 0 {
			continue
		}
		kept := []int32{}
		for i := int32(0); i < int32(src.rel.n); i++ {
			ctx.pos[src.slot] = i
			ok, err := holds(filters, ctx)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, i)
			}
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

		st := &stage{kind: stageCross, src: cand, pairs: bestPairs}
		if ip := indexedPair(cand, bestPairs); ip >= 0 {
			st.kind = stageIndex
			st.pairs[0], st.pairs[ip] = st.pairs[ip], st.pairs[0]
			st.index = cand.table.indexes[cand.cols[st.pairs[0].innerCol].name]
			st.outerVals = make([]Value, len(st.pairs)-1)
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
			fn, err := full.compile(cj.e)
			if err != nil {
				return nil, err
			}
			st.filters = append(st.filters, fn)
			cj.applied = true
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
	tryCompile := func(c *compiler, e expr) (evalFn, bool) {
		if isAggregate(e) {
			return nil, false
		}
		fn, err := c.compile(e)
		return fn, err == nil
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
// sink, in emission order: outer order, then index-chain or row order.
func (p *selectPlan) run(sink func(*evalCtx) error) error {
	next := sink
	for i := len(p.stages) - 1; i >= 0; i-- {
		p.stages[i].next = next
		next = p.stages[i].push
	}
	ctx := &evalCtx{pos: make([]int32, len(p.sources))}
	if err := next(ctx); err != nil {
		return err
	}
	// Upstream is exhausted: a hash stage still holding its input decides
	// now. In pipeline order, since a flush feeds the stages after it.
	for _, st := range p.stages {
		if st.kind == stageHash {
			if err := st.flushHash(ctx); err != nil {
				return err
			}
		}
	}
	return nil
}

// holds reports whether every filter is true of the frame.
func holds(filters []evalFn, ctx *evalCtx) (bool, error) {
	for _, f := range filters {
		v, err := f(ctx)
		if err != nil || !v.Truthy() {
			return false, err
		}
	}
	return true, nil
}

// pass hands the frame, the stage's row bound, on if the stage's filters
// hold.
func (st *stage) pass(ctx *evalCtx) error {
	if ok, err := holds(st.filters, ctx); err != nil || !ok {
		return err
	}
	return st.next(ctx)
}

func (st *stage) push(ctx *evalCtx) error {
	switch st.kind {
	case stageIndex:
		return st.pushIndex(ctx)
	case stageHash:
		return st.pushHash(ctx)
	}
	for i, n := 0, st.src.size(); i < n; i++ {
		ctx.pos[st.src.slot] = st.src.at(i)
		if err := st.pass(ctx); err != nil {
			return err
		}
	}
	return nil
}

func (st *stage) pushIndex(ctx *evalCtx) error {
	kv, err := st.pairs[0].outer(ctx)
	if err != nil || kv.IsNull() {
		return err
	}
	id := st.index.keys.lookup(kv)
	if id < 0 {
		return nil
	}
	rest := st.pairs[1:]
	for i, p := range rest {
		if st.outerVals[i], err = p.outer(ctx); err != nil {
			return err
		}
	}
matches:
	for r := st.index.head[id]; r >= 0; r = st.index.next[r] {
		ctx.pos[st.src.slot] = r
		for i, p := range rest {
			iv, err := p.inner(ctx)
			if err != nil {
				return err
			}
			if cmp, ok := Compare(st.outerVals[i], iv); !ok || cmp != 0 {
				continue matches
			}
		}
		if err := st.pass(ctx); err != nil {
			return err
		}
	}
	return nil
}

// hashJoin is the run-time state of a hash stage. The table goes on the
// smaller input, and the upstream's size is unknown until it ends, so the
// stage holds upstream frames back until there are as many as the stage's
// relation has rows — never more. Reaching that count means the relation is
// the smaller side: the table is built on it and frames probe it from then
// on. If upstream ends first, the table is built on the held frames and the
// relation's rows probe it.
type hashJoin struct {
	outerKeys, innerKeys []evalFn // the two sides of the stage's pairs
	held                 []int32  // frames awaiting the decision, len(ctx.pos) positions each
	probing              bool     // table is built on the stage's relation
	table                joinTable
	builtOn              string
}

func (st *stage) pushHash(ctx *evalCtx) error {
	h := st.hash
	if h.probing {
		return st.probeHash(ctx)
	}
	h.held = append(h.held, ctx.pos...)
	if len(h.held) < st.src.size()*len(ctx.pos) {
		return nil
	}
	for i, n := 0, st.src.size(); i < n; i++ {
		ctx.pos[st.src.slot] = st.src.at(i)
		if err := h.table.insert(h.innerKeys, ctx); err != nil {
			return err
		}
	}
	h.probing, h.builtOn = true, st.src.name
	// The last held frame is the one being pushed, so replaying leaves the
	// frame as upstream bound it.
	n := len(ctx.pos)
	for at := 0; at < len(h.held); at += n {
		copy(ctx.pos, h.held[at:at+n])
		if err := st.probeHash(ctx); err != nil {
			return err
		}
	}
	h.held = nil
	return nil
}

func (st *stage) probeHash(ctx *evalCtx) error {
	r, err := st.hash.table.first(st.hash.outerKeys, ctx)
	for ; err == nil && r >= 0; r = st.hash.table.next[r] {
		ctx.pos[st.src.slot] = st.src.at(int(r))
		err = st.pass(ctx)
	}
	return err
}

// flushHash runs when upstream ended before the stage decided: upstream is
// the smaller input.
func (st *stage) flushHash(ctx *evalCtx) error {
	h := st.hash
	if h.probing || len(h.held) == 0 {
		return nil
	}
	n := len(ctx.pos)
	for at := 0; at < len(h.held); at += n {
		copy(ctx.pos, h.held[at:at+n])
		if err := h.table.insert(h.outerKeys, ctx); err != nil {
			return err
		}
	}
	h.builtOn = "upstream"
	for i, m := 0, st.src.size(); i < m; i++ {
		pos := st.src.at(i)
		ctx.pos[st.src.slot] = pos
		r, err := h.table.first(h.innerKeys, ctx)
		for ; err == nil && r >= 0; r = h.table.next[r] {
			copy(ctx.pos, h.held[int(r)*n:int(r)*n+n])
			ctx.pos[st.src.slot] = pos
			err = st.pass(ctx)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// joinTable chains rows per distinct key in insertion order, without a
// slice per key: a hash join's build side, and a table index.
type joinTable struct {
	keys       keyIndex
	head, tail []int32 // per key id: first and last row of the chain
	next       []int32 // per row: the next row with the same key, −1 at the end
}

// insert adds the next row, len(t.next), under the key the frame yields; a
// row with a NULL key component joins nothing.
func (t *joinTable) insert(keys []evalFn, ctx *evalCtx) error {
	id, added, err := t.keys.find(keys, ctx, true, false)
	if err != nil {
		return err
	}
	t.link(id, added)
	return nil
}

// link appends the next row to the chain of key id (a new key's when added);
// with id −1 the row is chained nowhere.
func (t *joinTable) link(id int32, added bool) {
	row := int32(len(t.next))
	t.next = append(t.next, -1)
	switch {
	case id < 0:
	case added:
		t.head, t.tail = append(t.head, row), append(t.tail, row)
	default:
		t.next[t.tail[id]] = row
		t.tail[id] = row
	}
}

// first returns the first row stored under the key the frame yields, or −1.
func (t *joinTable) first(keys []evalFn, ctx *evalCtx) (int32, error) {
	id, _, err := t.keys.find(keys, ctx, false, false)
	if err != nil || id < 0 {
		return -1, err
	}
	return t.head[id], nil
}
