package sqldb

import (
	"fmt"
	"sort"
)

// projection is the sink of a SELECT core's pipeline: it turns the batches
// of frames the joins emit into output rows — grouping and aggregating,
// HAVING, DISTINCT, ORDER BY, LIMIT — and hands them to out a batch at a
// time, under the rowSink contract. Its state is proportionate to groups
// and output rows, never to joined rows.
type projection struct {
	names    []string
	items    []kernel
	having   kernel // zero when absent
	order    []orderKey
	distinct bool
	limit    int // −1: none

	grouped bool
	groupBy []kernel
	aggs    []aggSpec
	rep     []int // the frame slots post-aggregation expressions read
	groups  groupTable
	keys    keyScratch

	vecs    []*vec   // the select items over the batch being emitted
	sel     []int32  // the frames of that batch that make rows
	buf     []Value  // the output row being built
	seen    keyIndex // DISTINCT
	pending []Value  // ORDER BY: rows awaiting the sort, then their sort keys, one after another
	emitted int
	out     rowSink
}

// orderKey is one ORDER BY term: an output column position, or an
// expression evaluated in the same context as the select items.
type orderKey struct {
	fn   kernel // zero when positional
	pos  int
	desc bool
	v    *vec // fn over the batch being emitted
}

// compileProjection compiles everything after FROM/WHERE of one SELECT core
// against the frame schema of plan. What reads the frame runs at plan's last
// stage — per joined frame, or per group on its representative row — and
// is memoized as a filter there would be.
func (db *DB) compileProjection(sel *selectStmt, plan *selectPlan) (*projection, error) {
	schema, last := plan.schema, len(plan.stages)-1
	// Expand stars into concrete column expressions, in FROM order.
	type projItem struct {
		e     expr
		alias string
		name  string
	}
	var items []projItem
	for _, it := range sel.Items {
		if it.Star {
			found := false
			for _, c := range schema.cols {
				if it.StarTable != "" && c.qual != it.StarTable {
					continue
				}
				items = append(items, projItem{e: &colRef{Table: c.qual, Name: c.name}, name: c.name})
				found = true
			}
			if !found && it.StarTable != "" {
				return nil, fmt.Errorf("sqldb: unknown table %q in select list", it.StarTable)
			}
			continue
		}
		name := it.Alias
		if name == "" {
			if cr, ok := it.Expr.(*colRef); ok {
				name = cr.Name
			}
		}
		items = append(items, projItem{e: it.Expr, alias: it.Alias, name: name})
	}

	pr := &projection{distinct: sel.Distinct, limit: -1, grouped: len(sel.GroupBy) > 0,
		buf: make([]Value, len(items)), vecs: make([]*vec, len(items)), seen: keyIndex{dict: db.dict}}
	if !pr.grouped {
		for _, it := range items {
			if isAggregate(it.e) {
				pr.grouped = true
				break
			}
		}
		if sel.Having != nil && isAggregate(sel.Having) {
			pr.grouped = true
		}
	}

	// Alias substitution for GROUP BY, HAVING and ORDER BY: names that do
	// not resolve in the source schema but match a select alias are replaced
	// by the aliased expression (MySQL-compatible, for the paper's
	// HAVING score... and Appendix A.3's GROUP BY ... qgram).
	aliasExpr := map[string]expr{}
	for _, it := range items {
		if it.alias != "" {
			aliasExpr[it.alias] = it.e
		}
	}
	substitute := func(e expr) expr { return substituteAliases(e, aliasExpr, schema) }

	c := &compiler{db: db, schema: schema, grouped: pr.grouped, plan: plan, stage: last}
	pr.items = make([]kernel, len(items))
	pr.names = make([]string, len(items))
	for i, it := range items {
		k, err := c.compile(it.e)
		if err != nil {
			return nil, err
		}
		pr.items[i] = k
		if it.name != "" {
			pr.names[i] = it.name
		} else {
			pr.names[i] = fmt.Sprintf("col%d", i)
		}
	}
	if sel.Having != nil {
		k, err := c.compile(substitute(sel.Having))
		if err != nil {
			return nil, err
		}
		pr.having = k
	}
	for _, oi := range sel.OrderBy {
		if lit, ok := oi.Expr.(*literal); ok && lit.Val.Kind == KindInt {
			p := int(lit.Val.I) - 1
			if p < 0 || p >= len(items) {
				return nil, fmt.Errorf("sqldb: ORDER BY position %d out of range", lit.Val.I)
			}
			pr.order = append(pr.order, orderKey{pos: p, desc: oi.Desc})
			continue
		}
		k, err := c.compile(substitute(oi.Expr))
		if err != nil {
			return nil, err
		}
		pr.order = append(pr.order, orderKey{fn: k, pos: -1, desc: oi.Desc})
	}
	if sel.Limit != nil {
		k, err := (&compiler{db: db, schema: &relSchema{}}).compile(sel.Limit)
		if err != nil {
			return nil, err
		}
		v, err := constValue(k)
		if err != nil {
			return nil, err
		}
		pr.limit = max(int(v.AsInt()), 0)
	}

	if pr.grouped {
		// Group-key expressions read the frame and must not contain
		// aggregates.
		gc := &compiler{db: db, schema: schema, plan: plan, stage: last}
		for _, ge := range sel.GroupBy {
			k, err := gc.compile(substitute(ge))
			if err != nil {
				return nil, err
			}
			pr.groupBy = append(pr.groupBy, k)
		}
		pr.aggs, pr.rep = c.aggs, c.rep
		pr.groups = groupTable{keys: keyIndex{dict: db.dict}, nrep: len(pr.rep), nagg: len(pr.aggs)}
		for i := range pr.aggs {
			if op := pr.aggs[i].op; op == aggMin || op == aggMax {
				pr.aggs[i].extreme = pr.groups.nextreme
				pr.groups.nextreme++
			}
		}
	}
	return pr, nil
}

// push consumes one batch of joined frames: each frame's group is found —
// a new group takes the frame as its representative row — and every
// aggregate's argument is evaluated over the batch and fed to the groups
// frame by frame, so each group's sums add up in emission order.
func (pr *projection) push(b *batch) error {
	if !pr.grouped {
		return pr.emit(b)
	}
	// Without GROUP BY every frame has the empty key: one group.
	gids, err := pr.groups.keys.findBatch(pr.groupBy, b, b.sel, true, true, true, &pr.keys)
	if err != nil {
		return err
	}
	for _, f := range b.sel {
		if int(gids[f]) == pr.groups.n {
			rep := pr.groups.add()
			for i, slot := range pr.rep {
				rep[i] = b.pos[slot][f]
			}
		}
	}
	for a := range pr.aggs {
		spec := &pr.aggs[a]
		var v *vec
		if spec.arg != nil {
			if v, err = spec.arg(b, b.sel); err != nil {
				return err
			}
		}
		for _, f := range b.sel {
			accs, extremes := pr.groups.accs(gids[f])
			accs[a].add(spec, v, f, gids[f], extremes)
		}
	}
	return nil
}

// finish runs once the pipeline is exhausted: groups are finalized and
// emitted in first-seen order, a batch of groups at a time, then buffered
// rows are sorted and released.
func (pr *projection) finish() error {
	if pr.grouped {
		if pr.groups.n == 0 && len(pr.groupBy) == 0 {
			// Aggregate over empty input yields a single group with no
			// rows, whose columns read NULL.
			rep := pr.groups.add()
			for i := range rep {
				rep[i] = -1
			}
		}
		nslots := 0
		for _, slot := range pr.rep {
			nslots = max(nslots, slot+1)
		}
		b := &batch{pos: make([][]int32, nslots), aggs: make([]*vec, len(pr.aggs))}
		for _, slot := range pr.rep {
			b.pos[slot] = make([]int32, min(pr.groups.n, batchSize))
		}
		for lo := 0; lo < pr.groups.n; lo += batchSize {
			b.n = min(pr.groups.n-lo, batchSize)
			b.sel = identity[:b.n]
			for a := range b.aggs {
				b.aggs[a] = &vec{kind: KindNull, vals: make([]Value, b.n)}
			}
			for i := range b.n {
				gid := int32(lo + i)
				for r, p := range pr.groups.rep(gid) {
					b.pos[pr.rep[r]][i] = p
				}
				accs, extremes := pr.groups.accs(gid)
				for a := range accs {
					b.aggs[a].vals[i] = accs[a].finalize(&pr.aggs[a], extremes)
				}
			}
			if err := pr.emit(b); err != nil {
				return err
			}
		}
	}
	if len(pr.order) == 0 {
		return nil
	}
	w := len(pr.items) + len(pr.order)
	rows := make([]int, len(pr.pending)/w)
	for i := range rows {
		rows[i] = i * w
	}
	keys := func(at int) []Value { return pr.pending[at+len(pr.items) : at+w] }
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := keys(rows[i]), keys(rows[j])
		for k, ok := range pr.order {
			cmp := compareForSort(a[k], b[k])
			if cmp == 0 {
				continue
			}
			if ok.desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	// The sorted rows go out a batch at a time, as Values.
	for lo := 0; lo < len(rows); lo += batchSize {
		chunk := rows[lo:min(lo+batchSize, len(rows))]
		for i := range pr.vecs {
			pr.vecs[i] = &vec{kind: KindNull, vals: make([]Value, len(chunk))}
			for f, at := range chunk {
				pr.vecs[i].vals[f] = pr.pending[at+i]
			}
		}
		pr.release(identity[:len(chunk)])
	}
	return nil
}

// emit evaluates HAVING and the select list over a batch — of joined
// frames, or of finalized groups — and produces an output row per frame
// that passes HAVING and, with DISTINCT, is new. ORDER BY's keys are
// evaluated on those frames only.
func (pr *projection) emit(b *batch) error {
	sel := b.sel
	if pr.having != nil {
		hv, err := pr.having(b, sel)
		if err != nil {
			return err
		}
		sel = hv.pick(sel, &pr.sel, tTrue)
	}
	for i, k := range pr.items {
		v, err := k(b, sel)
		if err != nil {
			return err
		}
		pr.vecs[i] = v
	}
	if pr.distinct {
		kept := pr.sel[:0]
		for _, f := range sel {
			if _, added := pr.seen.add(pr.row(f)...); added {
				kept = append(kept, f)
			}
		}
		pr.sel, sel = kept, kept
	}
	for i := range pr.order {
		if ok := &pr.order[i]; ok.fn != nil {
			var err error
			if ok.v, err = ok.fn(b, sel); err != nil {
				return err
			}
		}
	}
	if len(pr.order) == 0 {
		pr.release(sel)
		return nil
	}
	for _, f := range sel {
		vals := pr.row(f)
		pr.pending = append(pr.pending, vals...)
		for _, ok := range pr.order {
			if ok.v == nil {
				pr.pending = append(pr.pending, vals[ok.pos])
			} else {
				pr.pending = append(pr.pending, ok.v.value(f))
			}
		}
	}
	return nil
}

// row fills the output row buffer with frame f's select items.
func (pr *projection) row(f int32) []Value {
	for i, v := range pr.vecs {
		pr.buf[i] = v.value(f)
	}
	return pr.buf
}

// release hands the finished rows of the frames sel lists, whose select
// items are in pr.vecs, to the consumer, as far as LIMIT allows.
func (pr *projection) release(sel []int32) {
	if pr.limit >= 0 {
		sel = sel[:min(len(sel), pr.limit-pr.emitted)]
	}
	if pr.emitted += len(sel); len(sel) > 0 {
		pr.out(pr.vecs, sel)
	}
}

// compareForSort orders values with NULLs first (MySQL ASC semantics).
func compareForSort(a, b Value) int {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	cmp, _ := Compare(a, b)
	return cmp
}

// substituteAliases replaces unresolvable plain column references that match
// a select alias with the aliased expression.
func substituteAliases(e expr, aliasExpr map[string]expr, schema *relSchema) expr {
	switch x := e.(type) {
	case *colRef:
		if x.Table == "" {
			if _, err := schema.resolve("", x.Name); err != nil {
				if sub, ok := aliasExpr[x.Name]; ok {
					return sub
				}
			}
		}
		return x
	case *unaryExpr:
		return &unaryExpr{Op: x.Op, X: substituteAliases(x.X, aliasExpr, schema)}
	case *binaryExpr:
		return &binaryExpr{Op: x.Op,
			L: substituteAliases(x.L, aliasExpr, schema),
			R: substituteAliases(x.R, aliasExpr, schema)}
	case *funcCall:
		args := make([]expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = substituteAliases(a, aliasExpr, schema)
		}
		return &funcCall{Name: x.Name, Args: args, Star: x.Star, Distinct: x.Distinct}
	case *inExpr:
		out := *x
		out.X = substituteAliases(x.X, aliasExpr, schema)
		list := make([]expr, len(x.List))
		for i, a := range x.List {
			list[i] = substituteAliases(a, aliasExpr, schema)
		}
		out.List = list
		return &out
	case *isNullExpr:
		return &isNullExpr{X: substituteAliases(x.X, aliasExpr, schema), Not: x.Not}
	case *caseExpr:
		out := &caseExpr{}
		for _, w := range x.Whens {
			out.Whens = append(out.Whens, whenClause{
				Cond: substituteAliases(w.Cond, aliasExpr, schema),
				Then: substituteAliases(w.Then, aliasExpr, schema),
			})
		}
		if x.Else != nil {
			out.Else = substituteAliases(x.Else, aliasExpr, schema)
		}
		return out
	default:
		return e
	}
}

// ---- group state ----

// groupChunk is how many groups one slab holds.
const groupChunk = 256

// groupTable holds the state of every group in chunked slabs: per group,
// the positions of its representative row in the nrep frame slots the
// post-aggregation expressions read (the first row of the group: nothing is
// copied), nagg accumulators and — only for the MIN and MAX among them —
// nextreme running extremes.
type groupTable struct {
	keys                 keyIndex
	nrep, nagg, nextreme int
	n                    int
	reps                 [][]int32
	accSlabs             [][]aggAcc
	extremes             [][]Value
}

// add appends a zeroed group and returns its representative positions to
// fill.
func (g *groupTable) add() []int32 {
	if g.n%groupChunk == 0 {
		g.reps = append(g.reps, make([]int32, groupChunk*g.nrep))
		g.accSlabs = append(g.accSlabs, make([]aggAcc, groupChunk*g.nagg))
		g.extremes = append(g.extremes, make([]Value, groupChunk*g.nextreme))
	}
	g.n++
	return g.rep(int32(g.n - 1))
}

func (g *groupTable) rep(gid int32) []int32 {
	at := int(gid) % groupChunk * g.nrep
	return g.reps[gid/groupChunk][at : at+g.nrep]
}

// accs returns the group's accumulators and running extremes.
func (g *groupTable) accs(gid int32) ([]aggAcc, []Value) {
	at, ext := int(gid)%groupChunk*g.nagg, int(gid)%groupChunk*g.nextreme
	return g.accSlabs[gid/groupChunk][at : at+g.nagg], g.extremes[gid/groupChunk][ext : ext+g.nextreme]
}

// aggAcc accumulates one aggregate over one group: n counts the rows fed to
// COUNT(*) and the non-NULL (with DISTINCT, first-seen) arguments fed to
// anything else; SUM and AVG add them up. A MIN or MAX keeps its running
// extreme beside the accumulators, at aggSpec.extreme.
type aggAcc struct {
	n        int64
	isum     int64
	fsum     float64
	sawFloat bool
}

// add feeds frame f of the argument vector v (nil for COUNT(*)) to the
// accumulator of group gid.
func (a *aggAcc) add(spec *aggSpec, v *vec, f int32, gid int32, extremes []Value) {
	if v == nil {
		a.n++
		return
	}
	x := v.value(f)
	if x.IsNull() {
		return
	}
	if spec.seen != nil {
		// One index for the whole statement, keyed by (group, value).
		if _, added := spec.seen.add(Int(int64(gid)), x); !added {
			return
		}
	}
	a.n++
	switch spec.op {
	case aggSum, aggAvg:
		switch x.Kind {
		case KindInt:
			a.isum += x.I
		case KindFloat:
			a.fsum += x.F
			a.sawFloat = true
		case KindString:
			a.fsum += x.AsFloat()
			a.sawFloat = true
		}
	case aggMin, aggMax:
		cmp, ok := Compare(x, extremes[spec.extreme])
		if spec.op == aggMax {
			cmp = -cmp
		}
		if a.n == 1 || ok && cmp < 0 {
			extremes[spec.extreme] = x
		}
	}
}

func (a *aggAcc) finalize(spec *aggSpec, extremes []Value) Value {
	switch {
	case spec.op == aggCount:
		return Int(a.n)
	case a.n == 0:
		return Null()
	case spec.op == aggSum && !a.sawFloat:
		return Int(a.isum)
	case spec.op == aggSum:
		return Float(a.fsum + float64(a.isum))
	case spec.op == aggAvg:
		return Float((a.fsum + float64(a.isum)) / float64(a.n))
	default: // MIN, MAX
		return extremes[spec.extreme]
	}
}
