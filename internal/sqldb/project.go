package sqldb

import (
	"fmt"
	"sort"
)

// projection is the sink of a SELECT core's pipeline: it turns the frames
// the joins emit into output rows — grouping and aggregating, HAVING,
// DISTINCT, ORDER BY, LIMIT — and hands each finished row to out, under the
// rowSink contract: the row is valid for the call only. Its state is
// proportionate to groups and output rows, never to joined rows.
type projection struct {
	names    []string
	items    []evalFn
	having   evalFn
	order    []orderKey
	distinct bool
	limit    int // −1: none

	grouped bool
	groupBy []evalFn
	aggs    []aggSpec
	rep     []int // the frame slots post-aggregation expressions read
	groups  groupTable

	buf     []Value  // the output row being built
	seen    keyIndex // DISTINCT
	pending []Value  // ORDER BY: rows awaiting the sort, then their sort keys, one after another
	emitted int
	out     rowSink
}

// orderKey is one ORDER BY term: an output column position, or an
// expression evaluated in the same context as the select items.
type orderKey struct {
	fn   evalFn // nil when positional
	pos  int
	desc bool
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

	pr := &projection{distinct: sel.Distinct, limit: -1, grouped: len(sel.GroupBy) > 0, buf: make([]Value, len(items)), seen: keyIndex{dict: db.dict}}
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
	pr.items = make([]evalFn, len(items))
	pr.names = make([]string, len(items))
	for i, it := range items {
		fn, err := c.compile(it.e)
		if err != nil {
			return nil, err
		}
		pr.items[i] = fn
		if it.name != "" {
			pr.names[i] = it.name
		} else {
			pr.names[i] = fmt.Sprintf("col%d", i)
		}
	}
	if sel.Having != nil {
		fn, err := c.compile(substitute(sel.Having))
		if err != nil {
			return nil, err
		}
		pr.having = fn
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
		fn, err := c.compile(substitute(oi.Expr))
		if err != nil {
			return nil, err
		}
		pr.order = append(pr.order, orderKey{fn: fn, pos: -1, desc: oi.Desc})
	}
	if sel.Limit != nil {
		fn, err := (&compiler{db: db, schema: &relSchema{}}).compile(sel.Limit)
		if err != nil {
			return nil, err
		}
		v, err := fn(&evalCtx{})
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
			fn, err := gc.compile(substitute(ge))
			if err != nil {
				return nil, err
			}
			pr.groupBy = append(pr.groupBy, fn)
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

// push consumes one joined frame.
func (pr *projection) push(ctx *evalCtx) error {
	if !pr.grouped {
		return pr.emit(ctx)
	}
	gid := int32(0)
	added := pr.groups.n == 0
	if len(pr.groupBy) > 0 {
		var err error
		if gid, added, err = pr.groups.keys.find(pr.groupBy, ctx, true, true); err != nil {
			return err
		}
	}
	if added {
		rep := pr.groups.add()
		for i, slot := range pr.rep {
			rep[i] = ctx.pos[slot]
		}
	}
	accs, extremes := pr.groups.accs(gid)
	for i := range pr.aggs {
		if err := accs[i].add(&pr.aggs[i], ctx, gid, extremes); err != nil {
			return err
		}
	}
	return nil
}

// finish runs once the pipeline is exhausted: groups are finalized and
// emitted in first-seen order, then buffered rows are sorted and released.
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
		ctx := &evalCtx{pos: make([]int32, nslots), aggs: make([]Value, len(pr.aggs))}
		for gid := int32(0); gid < int32(pr.groups.n); gid++ {
			for i, p := range pr.groups.rep(gid) {
				ctx.pos[pr.rep[i]] = p
			}
			accs, extremes := pr.groups.accs(gid)
			for i := range accs {
				ctx.aggs[i] = accs[i].finalize(&pr.aggs[i], extremes)
			}
			if err := pr.emit(ctx); err != nil {
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
	for _, at := range rows {
		pr.release(pr.pending[at : at+len(pr.items)])
	}
	return nil
}

// emit evaluates HAVING and the select list in ctx — a joined frame, or a
// finalized group — and produces one output row.
func (pr *projection) emit(ctx *evalCtx) error {
	if pr.having != nil {
		hv, err := pr.having(ctx)
		if err != nil || !hv.Truthy() {
			return err
		}
	}
	vals := pr.buf
	for i, fn := range pr.items {
		v, err := fn(ctx)
		if err != nil {
			return err
		}
		vals[i] = v
	}
	if pr.distinct {
		if _, added := pr.seen.add(vals...); !added {
			return nil
		}
	}
	if len(pr.order) == 0 {
		pr.release(vals)
		return nil
	}
	pr.pending = append(pr.pending, vals...)
	for _, ok := range pr.order {
		if ok.fn == nil {
			pr.pending = append(pr.pending, vals[ok.pos])
			continue
		}
		v, err := ok.fn(ctx)
		if err != nil {
			return err
		}
		pr.pending = append(pr.pending, v)
	}
	return nil
}

// release hands a finished row to the consumer unless LIMIT is used up.
func (pr *projection) release(vals []Value) {
	if pr.limit < 0 || pr.emitted < pr.limit {
		pr.emitted++
		pr.out(vals)
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

func (a *aggAcc) add(spec *aggSpec, ctx *evalCtx, gid int32, extremes []Value) error {
	if spec.arg == nil {
		a.n++
		return nil
	}
	v, err := spec.arg(ctx)
	if err != nil || v.IsNull() {
		return err
	}
	if spec.seen != nil {
		// One index for the whole statement, keyed by (group, value).
		if _, added := spec.seen.add(Int(int64(gid)), v); !added {
			return nil
		}
	}
	a.n++
	switch spec.op {
	case aggSum, aggAvg:
		switch v.Kind {
		case KindInt:
			a.isum += v.I
		case KindFloat:
			a.fsum += v.F
			a.sawFloat = true
		case KindString:
			a.fsum += v.AsFloat()
			a.sawFloat = true
		}
	case aggMin:
		if cmp, ok := Compare(v, extremes[spec.extreme]); a.n == 1 || ok && cmp < 0 {
			extremes[spec.extreme] = v
		}
	case aggMax:
		if cmp, ok := Compare(v, extremes[spec.extreme]); a.n == 1 || ok && cmp > 0 {
			extremes[spec.extreme] = v
		}
	}
	return nil
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
