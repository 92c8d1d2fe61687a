package wscript

import (
	"fmt"
	"strconv"
)

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	pos  int
}

// Parse parses a wscript source file.
func Parse(src string) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := &Program{}
	for !p.atEOF() {
		item, err := p.parseItem()
		if err != nil {
			return nil, err
		}
		prog.Items = append(prog.Items, item)
	}
	return prog, nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.cur().kind == tokEOF }

func (p *parser) errf(format string, args ...any) error {
	t := p.cur()
	return fmt.Errorf("wscript:%d:%d: %s", t.line, t.col, fmt.Sprintf(format, args...))
}

func (p *parser) advance() token {
	t := p.cur()
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

// accept consumes the next token if it is punctuation text.
func (p *parser) accept(text string) bool {
	if p.cur().kind == tokPunct && p.cur().text == text {
		p.pos++
		return true
	}
	return false
}

// acceptIdent consumes the next token if it is the given identifier.
func (p *parser) acceptIdent(name string) bool {
	if p.cur().kind == tokIdent && p.cur().text == name {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return p.errf("expected %q, found %q", text, p.cur().text)
	}
	return nil
}

func (p *parser) expectIdent() (token, error) {
	if p.cur().kind != tokIdent {
		return token{}, p.errf("expected identifier, found %s %q", p.cur().kind, p.cur().text)
	}
	return p.advance(), nil
}

// parseItem parses one top-level declaration.
func (p *parser) parseItem() (Item, error) {
	switch {
	case p.acceptIdent("fun"):
		return p.parseFun()
	case p.acceptIdent("namespace"):
		return p.parseNamespace()
	default:
		b, err := p.parseBinding()
		if err != nil {
			return nil, err
		}
		return b, nil
	}
}

func (p *parser) parseFun() (*FunDecl, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var params []string
	for !p.accept(")") {
		if len(params) > 0 {
			if err := p.expect(","); err != nil {
				return nil, err
			}
		}
		t, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		params = append(params, t.text)
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &FunDecl{base: base{name.line}, Name: name.text, Params: params, Body: body}, nil
}

func (p *parser) parseNamespace() (*NamespaceDecl, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if name.text != "Node" {
		return nil, p.errf("only 'namespace Node' is supported, found %q", name.text)
	}
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	ns := &NamespaceDecl{base: base{name.line}}
	for !p.accept("}") {
		b, err := p.parseBinding()
		if err != nil {
			return nil, err
		}
		ns.Bindings = append(ns.Bindings, b)
	}
	return ns, nil
}

func (p *parser) parseBinding() (*Binding, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expect("="); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	return &Binding{base: base{name.line}, Name: name.text, Expr: e}, nil
}

func (p *parser) parseBlock() (*Block, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	blk := &Block{base: base{p.cur().line}}
	for !p.accept("}") {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		blk.Stmts = append(blk.Stmts, s)
	}
	return blk, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	line := p.cur().line
	switch {
	case p.acceptIdent("if"):
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		then, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		var els *Block
		if p.acceptIdent("else") {
			if p.cur().kind == tokIdent && p.cur().text == "if" {
				// else if: wrap the nested if in a block.
				nested, err := p.parseStmt()
				if err != nil {
					return nil, err
				}
				els = &Block{base: base{line}, Stmts: []Stmt{nested}}
			} else {
				els, err = p.parseBlock()
				if err != nil {
					return nil, err
				}
			}
		}
		return &IfStmt{base: base{line}, Cond: cond, Then: then, Else: els}, nil

	case p.acceptIdent("for"):
		v, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expect("="); err != nil {
			return nil, err
		}
		lo, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if !p.acceptIdent("to") {
			return nil, p.errf("expected 'to' in for loop")
		}
		hi, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &ForStmt{base: base{line}, Var: v.text, Lo: lo, Hi: hi, Body: body}, nil

	case p.acceptIdent("while"):
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{base: base{line}, Cond: cond, Body: body}, nil

	case p.acceptIdent("emit"):
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &EmitStmt{base: base{line}, Expr: e}, nil

	case p.acceptIdent("return"):
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &ReturnStmt{base: base{line}, Expr: e}, nil
	}

	// Assignment forms: name = expr; name op= expr; name[idx] = expr; or a
	// bare expression statement.
	if p.cur().kind == tokIdent && p.pos+1 < len(p.toks) {
		nxt := p.toks[p.pos+1]
		if nxt.kind == tokPunct {
			switch nxt.text {
			case "=":
				name := p.advance()
				p.advance() // '='
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if err := p.expect(";"); err != nil {
					return nil, err
				}
				return &LetStmt{base: base{line}, Name: name.text, Expr: e}, nil
			case "+=", "-=", "*=", "/=":
				name := p.advance()
				op := p.advance().text[:1]
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if err := p.expect(";"); err != nil {
					return nil, err
				}
				return &AssignOpStmt{base: base{line}, Name: name.text, Op: op, Expr: e}, nil
			case "[":
				// Could be arr[idx] = expr; look ahead for the '=' after
				// the matching ']'.
				if idxStmt, ok, err := p.tryIndexAssign(line); err != nil {
					return nil, err
				} else if ok {
					return idxStmt, nil
				}
			}
		}
	}

	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	// The trailing semicolon is optional on the last expression of a block
	// (the block's value, as in Figure 1's function bodies).
	if p.cur().kind == tokPunct && p.cur().text == ";" {
		p.advance()
	}
	return &ExprStmt{base: base{line}, Expr: e}, nil
}

// tryIndexAssign attempts to parse `name[expr] = expr;` from the current
// position, restoring the position when it is not one.
func (p *parser) tryIndexAssign(line int) (Stmt, bool, error) {
	save := p.pos
	name := p.advance()
	p.advance() // '['
	idx, err := p.parseExpr()
	if err != nil {
		p.pos = save
		return nil, false, nil
	}
	if !p.accept("]") || !p.accept("=") {
		p.pos = save
		return nil, false, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, false, err
	}
	if err := p.expect(";"); err != nil {
		return nil, false, err
	}
	return &IndexAssignStmt{base: base{line}, Name: name.text, Index: idx, Expr: e}, true, nil
}

// Operator precedence, low to high.
var precedence = map[string]int{
	"||": 1, "&&": 2,
	"==": 3, "!=": 3, "<": 3, ">": 3, "<=": 3, ">=": 3,
	"+": 4, "-": 4,
	"*": 5, "/": 5, "%": 5,
}

func (p *parser) parseExpr() (Expr, error) { return p.parseBinary(0) }

func (p *parser) parseBinary(minPrec int) (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tokPunct {
			return left, nil
		}
		prec, ok := precedence[t.text]
		if !ok || prec < minPrec {
			return left, nil
		}
		p.advance()
		right, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		left = &BinExpr{base: base{t.line}, Op: t.text, L: left, R: right}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.cur()
	if t.kind == tokPunct && (t.text == "-" || t.text == "!") {
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnExpr{base: base{t.line}, Op: t.text, X: x}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokPunct && p.cur().text == "[" {
		line := p.advance().line
		idx, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		e = &IndexExpr{base: base{line}, Arr: e, Index: idx}
	}
	return e, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokInt:
		p.advance()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", t.text)
		}
		return &IntLit{base: base{t.line}, Value: v}, nil

	case tokFloat:
		p.advance()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad float %q", t.text)
		}
		return &FloatLit{base: base{t.line}, Value: v}, nil

	case tokString:
		p.advance()
		return &StringLit{base: base{t.line}, Value: t.text}, nil

	case tokIdent:
		switch t.text {
		case "true", "false":
			p.advance()
			return &BoolLit{base: base{t.line}, Value: t.text == "true"}, nil
		case "iterate":
			return p.parseIterate()
		case "zip":
			p.advance()
			if err := p.expect("("); err != nil {
				return nil, err
			}
			z := &ZipExpr{base: base{t.line}}
			for !p.accept(")") {
				if len(z.Streams) > 0 {
					if err := p.expect(","); err != nil {
						return nil, err
					}
				}
				s, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				z.Streams = append(z.Streams, s)
			}
			if len(z.Streams) == 0 {
				return nil, p.errf("zip needs at least one stream")
			}
			return z, nil
		}
		// Identifier, dotted builtin, or call.
		p.advance()
		name := t.text
		for p.cur().kind == tokPunct && p.cur().text == "." {
			p.advance()
			part, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			name += "." + part.text
		}
		if p.cur().kind == tokPunct && p.cur().text == "(" {
			p.advance()
			call := &CallExpr{base: base{t.line}, Fn: name}
			for !p.accept(")") {
				if len(call.Args) > 0 {
					if err := p.expect(","); err != nil {
						return nil, err
					}
				}
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
			}
			return call, nil
		}
		return &Ident{base: base{t.line}, Name: name}, nil

	case tokPunct:
		switch t.text {
		case "(":
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return e, nil
		case "[":
			p.advance()
			arr := &ArrayLit{base: base{t.line}}
			for !p.accept("]") {
				if len(arr.Elems) > 0 {
					if err := p.expect(","); err != nil {
						return nil, err
					}
				}
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				arr.Elems = append(arr.Elems, e)
			}
			return arr, nil
		}
	}
	return nil, p.errf("unexpected token %q", t.text)
}

// parseIterate parses `iterate x in stream [state { ... }] { body }`.
func (p *parser) parseIterate() (Expr, error) {
	t := p.advance() // 'iterate'
	v, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if !p.acceptIdent("in") {
		return nil, p.errf("expected 'in' after iterate variable")
	}
	strm, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	it := &IterateExpr{base: base{t.line}, Var: v.text, Stream: strm}
	if p.acceptIdent("state") {
		if err := p.expect("{"); err != nil {
			return nil, err
		}
		for !p.accept("}") {
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if err := p.expect("="); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(";"); err != nil {
				return nil, err
			}
			it.State = append(it.State, &LetStmt{base: base{name.line}, Name: name.text, Expr: e})
		}
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	it.Body = body
	return it, nil
}
