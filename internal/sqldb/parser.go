package sqldb

import (
	"fmt"
	"strconv"
	"strings"
)

// parser is a recursive-descent parser for the engine's SQL subset.
type parser struct {
	toks   []token
	pos    int
	params []Value
	nparam int
	depth  int // open parseSelect / parseNot / parseUnary calls
}

// maxNesting bounds how deep expressions and subqueries may nest. Descent
// is recursive, so without a bound a megabyte of '(' overflows the
// goroutine stack, which is fatal rather than an error.
const maxNesting = 256

// nest enters one level of nesting; the caller defers p.unnest().
func (p *parser) nest() error {
	if p.depth++; p.depth > maxNesting {
		return p.errorf("nested more than %d levels deep", maxNesting)
	}
	return nil
}

func (p *parser) unnest() { p.depth-- }

// reserved words that terminate expression/alias parsing.
var reservedWords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "LIMIT": true, "UNION": true, "ALL": true,
	"AND": true, "OR": true, "NOT": true, "IN": true, "IS": true, "NULL": true,
	"AS": true, "ON": true, "JOIN": true, "INNER": true, "CROSS": true,
	"INSERT": true, "INTO": true, "VALUES": true, "CREATE": true, "TABLE": true,
	"INDEX": true, "DROP": true, "DELETE": true, "DISTINCT": true, "ASC": true,
	"DESC": true, "IF": true, "EXISTS": true, "CASE": true, "WHEN": true,
	"THEN": true, "ELSE": true, "END": true, "BETWEEN": true, "LIKE": true,
	"LEFT": true, "OUTER": true, "TRUE": true, "FALSE": true,
}

// parseSQL parses one statement (a trailing semicolon is allowed).
func parseSQL(src string, args []Value) (stmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, params: args}
	s, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(tokOp, ";")
	if !p.at(tokEOF, "") {
		return nil, p.errorf("unexpected trailing input %q", p.cur().text)
	}
	if p.nparam != len(args) {
		return nil, fmt.Errorf("sqldb: statement has %d placeholders but %d arguments given", p.nparam, len(args))
	}
	return s, nil
}

func (p *parser) cur() token { return p.toks[p.pos] }

func (p *parser) at(kind tokKind, text string) bool {
	t := p.cur()
	if t.kind != kind {
		return false
	}
	if text == "" {
		return true
	}
	if kind == tokIdent {
		return strings.EqualFold(t.text, text)
	}
	return t.text == text
}

func (p *parser) accept(kind tokKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokKind, text string) error {
	if p.accept(kind, text) {
		return nil
	}
	return p.errorf("expected %q, found %q", text, p.cur().text)
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sqldb: parse error at offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

// acceptKeyword consumes the next token if it is the given keyword.
func (p *parser) acceptKeyword(kw string) bool { return p.accept(tokIdent, kw) }

func (p *parser) expectKeyword(kw string) error {
	if p.acceptKeyword(kw) {
		return nil
	}
	return p.errorf("expected %s, found %q", kw, p.cur().text)
}

func (p *parser) parseStatement() (stmt, error) {
	switch {
	case p.at(tokIdent, "SELECT"):
		return p.parseSelect()
	case p.acceptKeyword("INSERT"):
		return p.parseInsert()
	case p.acceptKeyword("CREATE"):
		return p.parseCreate()
	case p.acceptKeyword("DROP"):
		return p.parseDrop()
	case p.acceptKeyword("DELETE"):
		return p.parseDelete()
	case p.at(tokOp, "("):
		return p.parseSelect()
	default:
		return nil, p.errorf("unsupported statement beginning with %q", p.cur().text)
	}
}

func (p *parser) parseCreate() (stmt, error) {
	switch {
	case p.acceptKeyword("TABLE"):
		st := &createTableStmt{}
		if p.acceptKeyword("IF") {
			if err := p.expectKeyword("NOT"); err != nil {
				return nil, err
			}
			if err := p.expectKeyword("EXISTS"); err != nil {
				return nil, err
			}
			st.IfNotExists = true
		}
		name, err := p.parseIdent("table name")
		if err != nil {
			return nil, err
		}
		st.Name = name
		if err := p.expect(tokOp, "("); err != nil {
			return nil, err
		}
		for {
			col, err := p.parseIdent("column name")
			if err != nil {
				return nil, err
			}
			kind, err := p.parseColumnType()
			if err != nil {
				return nil, err
			}
			st.Cols = append(st.Cols, columnDef{Name: strings.ToLower(col), Type: kind})
			if p.accept(tokOp, ",") {
				continue
			}
			break
		}
		if err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return st, nil
	case p.acceptKeyword("INDEX"):
		st := &createIndexStmt{}
		name, err := p.parseIdent("index name")
		if err != nil {
			return nil, err
		}
		st.Name = name
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		tbl, err := p.parseIdent("table name")
		if err != nil {
			return nil, err
		}
		st.Table = tbl
		if err := p.expect(tokOp, "("); err != nil {
			return nil, err
		}
		col, err := p.parseIdent("column name")
		if err != nil {
			return nil, err
		}
		st.Column = strings.ToLower(col)
		if err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return st, nil
	default:
		return nil, p.errorf("expected TABLE or INDEX after CREATE")
	}
}

// parseColumnType reads a type name with an optional (n[,m]) suffix.
func (p *parser) parseColumnType() (Kind, error) {
	name, err := p.parseIdent("column type")
	if err != nil {
		return KindNull, err
	}
	if p.accept(tokOp, "(") {
		for !p.accept(tokOp, ")") {
			if p.at(tokEOF, "") {
				return KindNull, p.errorf("unterminated type parameters")
			}
			p.pos++
		}
	}
	switch strings.ToUpper(name) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "TINYINT":
		return KindInt, nil
	case "DOUBLE", "FLOAT", "REAL", "DECIMAL", "NUMERIC":
		return KindFloat, nil
	case "VARCHAR", "CHAR", "TEXT", "STRING":
		return KindString, nil
	default:
		return KindNull, p.errorf("unsupported column type %q", name)
	}
}

func (p *parser) parseDrop() (stmt, error) {
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	st := &dropTableStmt{}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		st.IfExists = true
	}
	name, err := p.parseIdent("table name")
	if err != nil {
		return nil, err
	}
	st.Name = name
	return st, nil
}

func (p *parser) parseDelete() (stmt, error) {
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent("table name")
	if err != nil {
		return nil, err
	}
	st := &deleteStmt{Table: name}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	return st, nil
}

func (p *parser) parseInsert() (stmt, error) {
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent("table name")
	if err != nil {
		return nil, err
	}
	st := &insertStmt{Table: name}
	if p.accept(tokOp, "(") {
		for {
			col, err := p.parseIdent("column name")
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, strings.ToLower(col))
			if p.accept(tokOp, ",") {
				continue
			}
			break
		}
		if err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
	}
	switch {
	case p.acceptKeyword("VALUES"):
		for {
			if err := p.expect(tokOp, "("); err != nil {
				return nil, err
			}
			var row []expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if p.accept(tokOp, ",") {
					continue
				}
				break
			}
			if err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
			st.Rows = append(st.Rows, row)
			if p.accept(tokOp, ",") {
				continue
			}
			break
		}
		return st, nil
	case p.at(tokIdent, "SELECT") || p.at(tokOp, "("):
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		st.Select = sel
		return st, nil
	default:
		return nil, p.errorf("expected VALUES or SELECT in INSERT")
	}
}

// parseSelect parses a SELECT, including UNION ALL chains. A leading '('
// wrapping the whole select is tolerated.
func (p *parser) parseSelect() (*selectStmt, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	if p.accept(tokOp, "(") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return p.parseUnionTail(sel)
	}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &selectStmt{}
	if p.acceptKeyword("DISTINCT") {
		sel.Distinct = true
	}
	// Select list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if p.accept(tokOp, ",") {
			continue
		}
		break
	}
	if p.acceptKeyword("FROM") {
		refs, err := p.parseFrom()
		if err != nil {
			return nil, err
		}
		sel.From = refs
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if p.accept(tokOp, ",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := orderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if p.accept(tokOp, ",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Limit = e
	}
	return p.parseUnionTail(sel)
}

func (p *parser) parseUnionTail(sel *selectStmt) (*selectStmt, error) {
	if p.acceptKeyword("UNION") {
		if err := p.expectKeyword("ALL"); err != nil {
			return nil, p.errorf("only UNION ALL is supported")
		}
		next, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		sel.Union = next
	}
	return sel, nil
}

func (p *parser) parseSelectItem() (selectItem, error) {
	if p.accept(tokOp, "*") {
		return selectItem{Star: true}, nil
	}
	// T.* form: ident '.' '*'
	if p.cur().kind == tokIdent && !reservedWords[strings.ToUpper(p.cur().text)] &&
		p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].kind == tokOp && p.toks[p.pos+1].text == "." &&
		p.toks[p.pos+2].kind == tokOp && p.toks[p.pos+2].text == "*" {
		tbl := strings.ToLower(p.cur().text)
		p.pos += 3
		return selectItem{Star: true, StarTable: tbl}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return selectItem{}, err
	}
	item := selectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.parseIdent("alias")
		if err != nil {
			return selectItem{}, err
		}
		item.Alias = strings.ToLower(alias)
	} else if p.cur().kind == tokIdent && !reservedWords[strings.ToUpper(p.cur().text)] {
		item.Alias = strings.ToLower(p.cur().text)
		p.pos++
	}
	return item, nil
}

func (p *parser) parseFrom() ([]tableRef, error) {
	var refs []tableRef
	ref, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	refs = append(refs, ref)
	for {
		switch {
		case p.accept(tokOp, ","):
			r, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			refs = append(refs, r)
		case p.acceptKeyword("INNER") || p.at(tokIdent, "JOIN") || p.at(tokIdent, "CROSS"):
			cross := p.acceptKeyword("CROSS")
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			r, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			if !cross {
				if err := p.expectKeyword("ON"); err != nil {
					return nil, err
				}
				on, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				r.On = on
			}
			refs = append(refs, r)
		default:
			return refs, nil
		}
	}
}

func (p *parser) parseTableRef() (tableRef, error) {
	var ref tableRef
	if p.accept(tokOp, "(") {
		sub, err := p.parseSelect()
		if err != nil {
			return ref, err
		}
		if err := p.expect(tokOp, ")"); err != nil {
			return ref, err
		}
		ref.Sub = sub
	} else {
		name, err := p.parseIdent("table name")
		if err != nil {
			return ref, err
		}
		ref.Name = name
	}
	if p.acceptKeyword("AS") {
		alias, err := p.parseIdent("table alias")
		if err != nil {
			return ref, err
		}
		ref.Alias = strings.ToLower(alias)
	} else if p.cur().kind == tokIdent && !reservedWords[strings.ToUpper(p.cur().text)] {
		ref.Alias = strings.ToLower(p.cur().text)
		p.pos++
	}
	if ref.Sub != nil && ref.Alias == "" {
		return ref, p.errorf("derived table requires an alias")
	}
	return ref, nil
}

func (p *parser) parseIdent(what string) (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", p.errorf("expected %s, found %q", what, t.text)
	}
	if reservedWords[strings.ToUpper(t.text)] {
		return "", p.errorf("expected %s, found reserved word %q", what, t.text)
	}
	p.pos++
	return t.text, nil
}

// ---- expression parsing, by descending precedence ----

func (p *parser) parseExpr() (expr, error) { return p.parseOr() }

func (p *parser) parseOr() (expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &binaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &binaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

// Every cycle of the expression grammar passes through parseNot or
// parseUnary, so these two (and parseSelect) carry the nesting bound.
func (p *parser) parseNot() (expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	if p.acceptKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{Op: "NOT", X: x}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(tokOp, "=") || p.at(tokOp, "<>") || p.at(tokOp, "!=") ||
			p.at(tokOp, "<") || p.at(tokOp, "<=") || p.at(tokOp, ">") || p.at(tokOp, ">="):
			op := p.cur().text
			p.pos++
			if op == "!=" {
				op = "<>"
			}
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &binaryExpr{Op: op, L: l, R: r}
		case p.at(tokIdent, "IS"):
			p.pos++
			not := p.acceptKeyword("NOT")
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			l = &isNullExpr{X: l, Not: not}
		case p.at(tokIdent, "BETWEEN"):
			p.pos++
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &binaryExpr{Op: "AND",
				L: &binaryExpr{Op: ">=", L: l, R: lo},
				R: &binaryExpr{Op: "<=", L: l, R: hi}}
		case p.at(tokIdent, "LIKE"):
			p.pos++
			pat, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &funcCall{Name: "SQL_LIKE", Args: []expr{l, pat}}
		case p.at(tokIdent, "NOT") || p.at(tokIdent, "IN"):
			not := p.acceptKeyword("NOT")
			if p.at(tokIdent, "LIKE") {
				p.pos++
				pat, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				l = &unaryExpr{Op: "NOT", X: &funcCall{Name: "SQL_LIKE", Args: []expr{l, pat}}}
				continue
			}
			if p.at(tokIdent, "BETWEEN") {
				p.pos++
				lo, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				if err := p.expectKeyword("AND"); err != nil {
					return nil, err
				}
				hi, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				l = &unaryExpr{Op: "NOT", X: &binaryExpr{Op: "AND",
					L: &binaryExpr{Op: ">=", L: l, R: lo},
					R: &binaryExpr{Op: "<=", L: l, R: hi}}}
				continue
			}
			if err := p.expectKeyword("IN"); err != nil {
				return nil, err
			}
			if err := p.expect(tokOp, "("); err != nil {
				return nil, err
			}
			ie := &inExpr{X: l, Not: not}
			if p.at(tokIdent, "SELECT") {
				sub, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				ie.Sub = sub
			} else {
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					ie.List = append(ie.List, e)
					if p.accept(tokOp, ",") {
						continue
					}
					break
				}
			}
			if err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
			l = ie
		default:
			return l, nil
		}
	}
}

func (p *parser) parseAdditive() (expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.at(tokOp, "+") || p.at(tokOp, "-") {
		op := p.cur().text
		p.pos++
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &binaryExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseMultiplicative() (expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.at(tokOp, "*") || p.at(tokOp, "/") || p.at(tokOp, "%") {
		op := p.cur().text
		p.pos++
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &binaryExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	if p.accept(tokOp, "-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{Op: "-", X: x}, nil
	}
	p.accept(tokOp, "+")
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.pos++
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.text)
			}
			return &literal{Val: Float(f)}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(t.text, 64)
			if ferr != nil {
				return nil, p.errorf("bad number %q", t.text)
			}
			return &literal{Val: Float(f)}, nil
		}
		return &literal{Val: Int(i)}, nil
	case tokString:
		p.pos++
		return &literal{Val: String(t.text)}, nil
	case tokParam:
		p.pos++
		if p.nparam >= len(p.params) {
			return nil, p.errorf("placeholder %d has no bound argument", p.nparam+1)
		}
		v := p.params[p.nparam]
		p.nparam++
		return &literal{Val: v}, nil
	case tokOp:
		if t.text == "(" {
			p.pos++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errorf("unexpected %q in expression", t.text)
	case tokIdent:
		upper := strings.ToUpper(t.text)
		switch upper {
		case "NULL":
			p.pos++
			return &literal{Val: Null()}, nil
		case "TRUE":
			p.pos++
			return &literal{Val: Int(1)}, nil
		case "FALSE":
			p.pos++
			return &literal{Val: Int(0)}, nil
		case "CASE":
			return p.parseCase()
		}
		// Function call?
		if p.pos+1 < len(p.toks) && p.toks[p.pos+1].kind == tokOp && p.toks[p.pos+1].text == "(" {
			return p.parseFuncCall()
		}
		if reservedWords[upper] {
			return nil, p.errorf("unexpected keyword %q in expression", t.text)
		}
		// Column reference, possibly qualified.
		p.pos++
		name := strings.ToLower(t.text)
		if p.accept(tokOp, ".") {
			colTok := p.cur()
			if colTok.kind != tokIdent {
				return nil, p.errorf("expected column name after %q.", t.text)
			}
			p.pos++
			return &colRef{Table: name, Name: strings.ToLower(colTok.text)}, nil
		}
		return &colRef{Name: name}, nil
	default:
		return nil, p.errorf("unexpected token %q", t.text)
	}
}

func (p *parser) parseCase() (expr, error) {
	if err := p.expectKeyword("CASE"); err != nil {
		return nil, err
	}
	ce := &caseExpr{}
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, whenClause{Cond: cond, Then: then})
	}
	if len(ce.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return ce, nil
}

func (p *parser) parseFuncCall() (expr, error) {
	name := strings.ToUpper(p.cur().text)
	p.pos++ // function name
	p.pos++ // '('
	fc := &funcCall{Name: name}
	if p.accept(tokOp, "*") {
		fc.Star = true
		if err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return fc, nil
	}
	if p.accept(tokOp, ")") {
		return fc, nil
	}
	if p.acceptKeyword("DISTINCT") {
		fc.Distinct = true
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fc.Args = append(fc.Args, e)
		if p.accept(tokOp, ",") {
			continue
		}
		break
	}
	if err := p.expect(tokOp, ")"); err != nil {
		return nil, err
	}
	return fc, nil
}
