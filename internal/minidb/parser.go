package minidb

import (
	"fmt"
	"strconv"
	"strings"
)

type parser struct {
	toks  []token
	pos   int
	depth int // expression nesting at the current token
}

// maxDepth bounds expression nesting: parentheses, function arguments,
// IN lists, NOT and unary minus each go one level deeper. The parser
// recurses once per level, so without the bound a request's SQL sets
// its goroutine's stack size, and enough '(' overflow the stack
// maximum, a fatal error rather than a recoverable panic.
const maxDepth = 256

// descend enters one nesting level, failing past maxDepth; the caller
// defers ascend.
func (p *parser) descend() error {
	if p.depth++; p.depth > maxDepth {
		return fmt.Errorf("minidb: expression nested deeper than %d at %s", maxDepth, p.cur())
	}
	return nil
}

func (p *parser) ascend() { p.depth-- }

// Parse parses a single SQL statement.
func Parse(src string) (Stmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	// optional trailing semicolon
	if p.peekPunct(";") {
		p.pos++
	}
	if p.cur().kind != tokEOF {
		return nil, fmt.Errorf("minidb: unexpected %s after statement", p.cur())
	}
	return st, nil
}

func (p *parser) cur() token { return p.toks[p.pos] }

func (p *parser) peekKeyword(kw string) bool {
	t := p.cur()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.peekKeyword(kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("minidb: expected %s, found %s", kw, p.cur())
	}
	return nil
}

func (p *parser) peekPunct(s string) bool {
	t := p.cur()
	return t.kind == tokPunct && t.text == s
}

func (p *parser) acceptPunct(s string) bool {
	if p.peekPunct(s) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return fmt.Errorf("minidb: expected %q, found %s", s, p.cur())
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", fmt.Errorf("minidb: expected identifier, found %s", t)
	}
	if reserved[strings.ToUpper(t.text)] {
		return "", fmt.Errorf("minidb: reserved word %s used as identifier", t)
	}
	p.pos++
	return t.text, nil
}

// reserved words that cannot be bare identifiers.
var reserved = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "LIMIT": true, "OFFSET": true, "AS": true,
	"AND": true, "OR": true, "NOT": true, "IN": true, "LIKE": true, "IS": true,
	"NULL": true, "INSERT": true, "INTO": true, "VALUES": true, "CREATE": true,
	"TABLE": true, "DROP": true, "DELETE": true, "UPDATE": true, "SET": true,
	"DISTINCT": true, "ASC": true, "DESC": true,
	"JOIN": true, "ON": true, "INNER": true, "LEFT": true, "OUTER": true,
	"INDEX": true, "BETWEEN": true, "EXPLAIN": true,
}

func (p *parser) parseStmt() (Stmt, error) {
	switch {
	case p.peekKeyword("EXPLAIN"):
		p.pos++
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Select: sel}, nil
	case p.peekKeyword("SELECT"):
		return p.parseSelect()
	case p.peekKeyword("INSERT"):
		return p.parseInsert()
	case p.peekKeyword("CREATE"):
		return p.parseCreate()
	case p.peekKeyword("DROP"):
		return p.parseDrop()
	case p.peekKeyword("DELETE"):
		return p.parseDelete()
	case p.peekKeyword("UPDATE"):
		return p.parseUpdate()
	default:
		return nil, fmt.Errorf("minidb: expected a statement, found %s", p.cur())
	}
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	st := &SelectStmt{Limit: -1}
	st.Distinct = p.acceptKeyword("DISTINCT")
	for {
		if p.acceptPunct("*") {
			st.Items = append(st.Items, SelectItem{Star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.acceptKeyword("AS") {
				alias, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				item.Alias = alias
			} else if p.cur().kind == tokIdent && !p.anyClauseKeyword() {
				alias, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				item.Alias = alias
			}
			st.Items = append(st.Items, item)
		}
		if !p.acceptPunct(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if alias, ok, err := p.acceptAlias(); err != nil {
		return nil, err
	} else if ok {
		st.TableAlias = alias
	}
	for {
		kind := JoinInner
		switch {
		case p.acceptKeyword("INNER"):
			// INNER JOIN
		case p.acceptKeyword("LEFT"):
			p.acceptKeyword("OUTER")
			kind = JoinLeft
		default:
			if !p.peekKeyword("JOIN") {
				goto joinsDone
			}
		}
		if err := p.expectKeyword("JOIN"); err != nil {
			return nil, err
		}
		jc := JoinClause{Kind: kind}
		if jc.Table, err = p.expectIdent(); err != nil {
			return nil, err
		}
		if alias, ok, err := p.acceptAlias(); err != nil {
			return nil, err
		} else if ok {
			jc.Alias = alias
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		if jc.On, err = p.parseExpr(); err != nil {
			return nil, err
		}
		st.Joins = append(st.Joins, jc)
	}
joinsDone:
	if p.acceptKeyword("WHERE") {
		if st.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
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
			st.GroupBy = append(st.GroupBy, e)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		if st.Having, err = p.parseExpr(); err != nil {
			return nil, err
		}
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
			it := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				it.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			st.OrderBy = append(st.OrderBy, it)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		n, err := p.expectInt()
		if err != nil {
			return nil, err
		}
		st.Limit = n
		if p.acceptKeyword("OFFSET") {
			m, err := p.expectInt()
			if err != nil {
				return nil, err
			}
			st.Offset = m
		}
	}
	return st, nil
}

// anyClauseKeyword reports whether the current token starts a clause,
// so a bare identifier before it is an alias.
func (p *parser) anyClauseKeyword() bool {
	for _, kw := range []string{"FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "OFFSET",
		"AND", "OR", "ASC", "DESC", "JOIN", "INNER", "LEFT", "ON"} {
		if p.peekKeyword(kw) {
			return true
		}
	}
	return false
}

// acceptAlias parses an optional table alias ([AS] ident).
func (p *parser) acceptAlias() (string, bool, error) {
	if p.acceptKeyword("AS") {
		a, err := p.expectIdent()
		return a, err == nil, err
	}
	if p.cur().kind == tokIdent && !p.anyClauseKeyword() && !reserved[strings.ToUpper(p.cur().text)] {
		a, err := p.expectIdent()
		return a, err == nil, err
	}
	return "", false, nil
}

func (p *parser) expectInt() (int, error) {
	t := p.cur()
	if t.kind != tokNumber {
		return 0, fmt.Errorf("minidb: expected integer, found %s", t)
	}
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, fmt.Errorf("minidb: bad integer %q: %w", t.text, err)
	}
	p.pos++
	return n, nil
}

func (p *parser) parseInsert() (*InsertStmt, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: name}
	if p.acceptPunct("(") {
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			st.Cols = append(st.Cols, col)
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if !p.acceptPunct(",") {
			break
		}
	}
	return st, nil
}

func (p *parser) parseCreate() (Stmt, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	if p.acceptKeyword("INDEX") {
		return p.parseCreateIndex()
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	st := &CreateTableStmt{}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		st.IfNotExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		t := p.cur()
		if t.kind != tokIdent {
			return nil, fmt.Errorf("minidb: expected column type, found %s", t)
		}
		p.pos++
		ct, err := parseColumnType(t.text)
		if err != nil {
			return nil, err
		}
		st.Cols = append(st.Cols, Column{Name: col, Type: ct})
		if !p.acceptPunct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if p.acceptKeyword("STORAGE") {
		backend, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		st.Storage = strings.ToLower(backend)
	}
	return st, nil
}

func parseColumnType(s string) (ColumnType, error) {
	switch strings.ToUpper(s) {
	case "INT", "INTEGER", "BIGINT":
		return TypeInt, nil
	case "FLOAT", "REAL", "DOUBLE":
		return TypeFloat, nil
	case "TEXT", "VARCHAR", "STRING", "CHAR":
		return TypeText, nil
	case "BOOL", "BOOLEAN":
		return TypeBool, nil
	case "TIMESTAMP", "DATETIME", "TIME":
		return TypeTime, nil
	default:
		return 0, fmt.Errorf("minidb: unknown column type %q", s)
	}
}

func (p *parser) parseDrop() (*DropTableStmt, error) {
	if err := p.expectKeyword("DROP"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	st := &DropTableStmt{}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		st.IfExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st.Table = name
	return st, nil
}

func (p *parser) parseDelete() (*DeleteStmt, error) {
	if err := p.expectKeyword("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: name}
	if p.acceptKeyword("WHERE") {
		if st.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *parser) parseUpdate() (*UpdateStmt, error) {
	if err := p.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: name}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Cols = append(st.Cols, col)
		st.Exprs = append(st.Exprs, e)
		if !p.acceptPunct(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		if st.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// parseCreateIndex parses the tail of CREATE INDEX name ON table (col).
func (p *parser) parseCreateIndex() (*CreateIndexStmt, error) {
	st := &CreateIndexStmt{}
	var err error
	if st.Name, err = p.expectIdent(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	if st.Table, err = p.expectIdent(); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	if st.Col, err = p.expectIdent(); err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return st, nil
}

// Expression grammar, lowest to highest precedence:
//
//	expr    := orExpr
//	orExpr  := andExpr (OR andExpr)*
//	andExpr := notExpr (AND notExpr)*
//	notExpr := NOT notExpr | predicate
//	predicate := addExpr [compOp addExpr | [NOT] IN (...) | [NOT] LIKE addExpr | IS [NOT] NULL]
//	addExpr := mulExpr (("+"|"-") mulExpr)*
//	mulExpr := unary (("*"|"/"|"%") unary)*
//	unary   := "-" unary | primary
//	primary := literal | call | ident | "(" expr ")"
func (p *parser) parseExpr() (Expr, error) {
	defer p.ascend()
	if err := p.descend(); err != nil {
		return nil, err
	}
	return p.parseOr()
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		defer p.ascend()
		if err := p.descend(); err != nil {
			return nil, err
		}
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"=", "<>", "!=", "<=", ">=", "<", ">"} {
		if p.peekPunct(op) {
			p.pos++
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			canon := op
			if canon == "!=" {
				canon = "<>"
			}
			return &Binary{Op: canon, L: l, R: r}, nil
		}
	}
	not := false
	if p.peekKeyword("NOT") {
		// lookahead: NOT IN / NOT LIKE / NOT BETWEEN
		save := p.pos
		p.pos++
		if p.peekKeyword("IN") || p.peekKeyword("LIKE") || p.peekKeyword("BETWEEN") {
			not = true
		} else {
			p.pos = save
			return l, nil
		}
	}
	switch {
	case p.acceptKeyword("BETWEEN"):
		// x BETWEEN a AND b desugars to x >= a AND x <= b.
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		rng := &Binary{Op: "AND",
			L: &Binary{Op: ">=", L: l, R: lo},
			R: &Binary{Op: "<=", L: l, R: hi},
		}
		if not {
			return &Unary{Op: "NOT", X: rng}, nil
		}
		return rng, nil
	case p.acceptKeyword("IN"):
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &InList{X: l, Not: not, List: list}, nil
	case p.acceptKeyword("LIKE"):
		pat, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &Like{X: l, Not: not, Pattern: pat}, nil
	case p.acceptKeyword("IS"):
		isNot := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNull{X: l, Not: isNot}, nil
	}
	return l, nil
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptPunct("+"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "+", L: l, R: r}
		case p.acceptPunct("-"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "-", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.peekPunct("*"):
			op = "*"
		case p.peekPunct("/"):
			op = "/"
		case p.peekPunct("%"):
			op = "%"
		default:
			return l, nil
		}
		p.pos++
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptPunct("-") {
		defer p.ascend()
		if err := p.descend(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.pos++
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, fmt.Errorf("minidb: bad number %q: %w", t.text, err)
			}
			return &Literal{Val: Float(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("minidb: bad number %q: %w", t.text, err)
		}
		return &Literal{Val: Int(n)}, nil
	case tokString:
		p.pos++
		return &Literal{Val: Text(t.text)}, nil
	case tokPunct:
		if t.text == "(" {
			p.pos++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case tokIdent:
		up := strings.ToUpper(t.text)
		switch up {
		case "NULL":
			p.pos++
			return &Literal{Val: Null()}, nil
		case "TRUE":
			p.pos++
			return &Literal{Val: Bool(true)}, nil
		case "FALSE":
			p.pos++
			return &Literal{Val: Bool(false)}, nil
		}
		// Function call?
		if p.pos+1 < len(p.toks) && p.toks[p.pos+1].kind == tokPunct && p.toks[p.pos+1].text == "(" {
			p.pos += 2 // name and '('
			call := &Call{Name: up}
			if p.acceptPunct("*") {
				call.Star = true
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
				return call, nil
			}
			call.Distinct = p.acceptKeyword("DISTINCT")
			if !p.peekPunct(")") {
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, e)
					if !p.acceptPunct(",") {
						break
					}
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return call, nil
		}
		if reserved[up] {
			return nil, fmt.Errorf("minidb: unexpected keyword %s in expression", t)
		}
		p.pos++
		return &ColRef{Name: t.text}, nil
	}
	return nil, fmt.Errorf("minidb: unexpected %s in expression", t)
}
