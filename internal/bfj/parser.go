package bfj

import (
	"fmt"

	"bigfoot/internal/expr"
)

// Parse converts BFJ source text into a Program.  The parser lowers the
// surface syntax to the analysis-ready form as it goes:
//
//   - heap reads nested inside expressions (a[i], p.f, chains like
//     a[i].f) are hoisted into explicit FieldRead/ArrayRead statements on
//     fresh temporaries, so every heap access is its own statement;
//   - while/do/for loops become the paper's mid-test Loop form, with the
//     condition's hoisted reads re-executed in the loop header.
func Parse(src string) (*Program, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog, err := p.parseProgram()
	if err != nil {
		return nil, err
	}
	if err := CheckProgram(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// MustParse is Parse that panics on error, for tests and embedded
// workload sources.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// MaxNesting bounds how deeply expressions (parentheses, index brackets
// and prefix operators) and blocks may nest.  The parser descends
// recursively, so without a bound a source of a few hundred thousand
// nested parentheses would exhaust the goroutine stack, a fatal error no
// recover can catch; past the bound Parse returns an ordinary error.
const MaxNesting = 1000

type parser struct {
	toks []token
	pos  int
	nTmp int
	// exprDepth and blockDepth count the expressions and blocks the
	// parser is inside, each bounded by MaxNesting.
	exprDepth, blockDepth int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) peek() token { return p.toks[min(p.pos+1, len(p.toks)-1)] }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errf(t token, format string, args ...any) error {
	return fmt.Errorf("%d:%d: %s", t.Line, t.Col, fmt.Sprintf(format, args...))
}

func (p *parser) expect(text string) (token, error) {
	t := p.cur()
	if (t.Kind == tokPunct || t.Kind == tokKeyword) && t.Text == text {
		return p.advance(), nil
	}
	return t, p.errf(t, "expected %q, found %s", text, t)
}

func (p *parser) at(text string) bool {
	t := p.cur()
	return (t.Kind == tokPunct || t.Kind == tokKeyword) && t.Text == text
}

func (p *parser) eat(text string) bool {
	if p.at(text) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.Kind != tokIdent {
		return "", p.errf(t, "expected identifier, found %s", t)
	}
	p.advance()
	return t.Text, nil
}

func (p *parser) fresh() expr.Var {
	p.nTmp++
	return expr.Var(fmt.Sprintf("$t%d", p.nTmp))
}

// ---------------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------------

func (p *parser) parseProgram() (*Program, error) {
	prog := &Program{}
	for {
		switch {
		case p.at("class"):
			c, err := p.parseClass()
			if err != nil {
				return nil, err
			}
			prog.Classes = append(prog.Classes, c)
		case p.at("setup"):
			if prog.Setup != nil {
				return nil, p.errf(p.cur(), "duplicate setup block")
			}
			p.advance()
			b, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			prog.Setup = b
		case p.at("thread"):
			p.advance()
			b, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			prog.Threads = append(prog.Threads, b)
		case p.cur().Kind == tokEOF:
			if prog.Setup == nil {
				prog.Setup = &Block{}
			}
			return prog, nil
		default:
			return nil, p.errf(p.cur(), "expected class, setup, or thread, found %s", p.cur())
		}
	}
}

func (p *parser) parseClass() (*Class, error) {
	p.advance() // class
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	c := &Class{Name: name}
	if _, err := p.expect("{"); err != nil {
		return nil, err
	}
	for !p.eat("}") {
		switch {
		case p.at("field") || p.at("volatile"):
			vol := p.eat("volatile")
			if _, err := p.expect("field"); err != nil {
				return nil, err
			}
			for {
				fn, err := p.ident()
				if err != nil {
					return nil, err
				}
				c.Fields = append(c.Fields, Field{Name: fn, Volatile: vol})
				if !p.eat(",") {
					break
				}
			}
			if _, err := p.expect(";"); err != nil {
				return nil, err
			}
		case p.at("method"):
			m, err := p.parseMethod(name)
			if err != nil {
				return nil, err
			}
			c.Methods = append(c.Methods, m)
		default:
			return nil, p.errf(p.cur(), "expected field or method declaration, found %s", p.cur())
		}
	}
	return c, nil
}

func (p *parser) parseMethod(class string) (*Method, error) {
	p.advance() // method
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	m := &Method{Name: name, Class: class, Params: []expr.Var{"this"}}
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	for !p.eat(")") {
		pn, err := p.ident()
		if err != nil {
			return nil, err
		}
		m.Params = append(m.Params, expr.Var(pn))
		if !p.eat(",") && !p.at(")") {
			return nil, p.errf(p.cur(), "expected ',' or ')' in parameter list")
		}
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	// Extract a trailing "return x;" into m.Ret.
	if n := len(body.Stmts); n > 0 {
		if r, ok := body.Stmts[n-1].(*retMarker); ok {
			m.Ret = r.X
			body.Stmts = body.Stmts[:n-1]
		}
	}
	m.Body = body
	return m, nil
}

// retMarker is a parse-time-only statement removed by parseMethod.
type retMarker struct{ X expr.Var }

func (*retMarker) isStmt() {}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

func (p *parser) parseBlock() (*Block, error) {
	t, err := p.expect("{")
	if err != nil {
		return nil, err
	}
	if err := p.nest(&p.blockDepth, t, "blocks"); err != nil {
		return nil, err
	}
	defer func() { p.blockDepth-- }()
	b := &Block{}
	for !p.eat("}") {
		if err := p.parseStmt(b); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// parseStmt appends one or more lowered statements to out.
func (p *parser) parseStmt(out *Block) error {
	t := p.cur()
	switch {
	case p.at("var"):
		p.advance()
		for {
			if _, err := p.ident(); err != nil {
				return err
			}
			if !p.eat(",") {
				break
			}
		}
		_, err := p.expect(";")
		return err

	case p.at("acquire"), p.at("release"):
		kw := p.advance().Text
		x, err := p.ident()
		if err != nil {
			return err
		}
		if _, err := p.expect(";"); err != nil {
			return err
		}
		if kw == "acquire" {
			out.Stmts = append(out.Stmts, &Acquire{L: expr.Var(x)})
		} else {
			out.Stmts = append(out.Stmts, &Release{L: expr.Var(x)})
		}
		return nil

	case p.at("if"):
		return p.parseIf(out)

	case p.at("while"):
		// Lower to "if (cond) { do { body } while (cond) }" so that the
		// loop body precedes the exit test (§5: StaticBF rewrites each
		// loop as an if statement containing a do-while loop) — this is
		// what lets anticipated accesses at the loop head justify
		// deferring checks past the back edge.
		p.advance()
		if _, err := p.expect("("); err != nil {
			return err
		}
		var hoists Block
		cond, err := p.parseExpr(&hoists)
		if err != nil {
			return err
		}
		if _, err := p.expect(")"); err != nil {
			return err
		}
		body, err := p.parseBlock()
		if err != nil {
			return err
		}
		out.Stmts = append(out.Stmts, hoists.Stmts...)
		hoists2, cond2 := p.refreshTemps(hoists.Stmts, cond)
		pre := &Block{Stmts: append(append([]Stmt{}, body.Stmts...), hoists2...)}
		lp := &Loop{Pre: pre, Cond: expr.Not(cond2), Post: &Block{}}
		out.Stmts = append(out.Stmts, &If{
			Cond: cond,
			Then: &Block{Stmts: []Stmt{lp}},
			Else: &Block{},
		})
		return nil

	case p.at("do"):
		p.advance()
		body, err := p.parseBlock()
		if err != nil {
			return err
		}
		if _, err := p.expect("while"); err != nil {
			return err
		}
		if _, err := p.expect("("); err != nil {
			return err
		}
		var hoists Block
		cond, err := p.parseExpr(&hoists)
		if err != nil {
			return err
		}
		if _, err := p.expect(")"); err != nil {
			return err
		}
		if _, err := p.expect(";"); err != nil {
			return err
		}
		pre := &Block{Stmts: append(body.Stmts, hoists.Stmts...)}
		out.Stmts = append(out.Stmts, &Loop{Pre: pre, Cond: expr.Not(cond), Post: &Block{}})
		return nil

	case p.at("for"):
		return p.parseFor(out)

	case p.at("loop"):
		return p.parseLoop(out)

	case p.at("return"):
		p.advance()
		var x expr.Var
		if !p.at(";") {
			id, err := p.ident()
			if err != nil {
				return err
			}
			x = expr.Var(id)
		}
		if _, err := p.expect(";"); err != nil {
			return err
		}
		out.Stmts = append(out.Stmts, &retMarker{X: x})
		return nil

	case p.at("join"):
		p.advance()
		x, err := p.ident()
		if err != nil {
			return err
		}
		if _, err := p.expect(";"); err != nil {
			return err
		}
		out.Stmts = append(out.Stmts, &Join{X: expr.Var(x)})
		return nil

	case p.at("print"), p.at("assert"):
		kw := p.advance().Text
		var args []expr.Expr
		for {
			e, err := p.parseExpr(out)
			if err != nil {
				return err
			}
			args = append(args, e)
			if !p.eat(",") {
				break
			}
		}
		if _, err := p.expect(";"); err != nil {
			return err
		}
		if kw == "print" {
			out.Stmts = append(out.Stmts, &Print{Args: args})
		} else {
			out.Stmts = append(out.Stmts, &Assert{Cond: args[0]})
		}
		return nil

	case p.at("check"):
		p.advance()
		c := &Check{}
		for {
			item, err := p.parseCheckItem()
			if err != nil {
				return err
			}
			c.Items = append(c.Items, item)
			if !p.eat(",") {
				break
			}
		}
		if _, err := p.expect(";"); err != nil {
			return err
		}
		out.Stmts = append(out.Stmts, c)
		return nil

	case t.Kind == tokIdent:
		return p.parseSimpleStmt(out)
	}
	return p.errf(t, "expected statement, found %s", t)
}

func (p *parser) parseIf(out *Block) error {
	p.advance() // if
	if _, err := p.expect("("); err != nil {
		return err
	}
	cond, err := p.parseExpr(out) // condition hoists execute before the if
	if err != nil {
		return err
	}
	if _, err := p.expect(")"); err != nil {
		return err
	}
	then, err := p.parseBlock()
	if err != nil {
		return err
	}
	els := &Block{}
	if p.eat("else") {
		if p.at("if") {
			// The else-if chain nests one If inside the other's else block.
			if err := p.nest(&p.blockDepth, p.cur(), "blocks"); err != nil {
				return err
			}
			err := p.parseIf(els)
			p.blockDepth--
			if err != nil {
				return err
			}
		} else {
			els, err = p.parseBlock()
			if err != nil {
				return err
			}
		}
	}
	out.Stmts = append(out.Stmts, &If{Cond: cond, Then: then, Else: els})
	return nil
}

// refreshTemps clones hoisted heap-read statements with fresh temporary
// variables and rewrites the condition accordingly, so a loop condition's
// reads can be re-executed at the end of each iteration.
func (p *parser) refreshTemps(hoists []Stmt, cond expr.Expr) ([]Stmt, expr.Expr) {
	mapping := map[expr.Var]expr.Var{}
	out := make([]Stmt, 0, len(hoists))
	substVar := func(v expr.Var) expr.Var {
		if nv, ok := mapping[v]; ok {
			return nv
		}
		return v
	}
	substExpr := func(e expr.Expr) expr.Expr {
		for old, nv := range mapping {
			if ne, ok := expr.Subst(e, old, expr.V(nv)); ok {
				e = ne
			}
		}
		return e
	}
	for _, s := range hoists {
		switch x := s.(type) {
		case *FieldRead:
			nt := p.fresh()
			mapping[x.X] = nt
			out = append(out, &FieldRead{X: nt, Y: substVar(x.Y), F: x.F, Pos: x.Pos})
		case *ArrayRead:
			nt := p.fresh()
			nz := substExpr(x.Z)
			mapping[x.X] = nt
			out = append(out, &ArrayRead{X: nt, Y: substVar(x.Y), Z: nz, Pos: x.Pos})
		default:
			out = append(out, CloneStmt(s))
		}
	}
	return out, substExpr(cond)
}

// parseLoop reads the core mid-test form directly:
// loop { pre...; if (cond) break; post... }.  This is the shape the
// pretty-printer emits, so instrumented programs round-trip.
func (p *parser) parseLoop(out *Block) error {
	p.advance() // loop
	t, err := p.expect("{")
	if err != nil {
		return err
	}
	if err := p.nest(&p.blockDepth, t, "blocks"); err != nil {
		return err
	}
	defer func() { p.blockDepth-- }()
	pre := &Block{}
	var cond expr.Expr
	post := &Block{}
	cur := pre
	for !p.eat("}") {
		// The split marker is "if (cond) break;".
		if cond == nil && p.at("if") {
			save := p.pos
			p.advance()
			if _, err := p.expect("("); err != nil {
				return err
			}
			c, err := p.parseExpr(cur)
			if err != nil {
				return err
			}
			if _, err := p.expect(")"); err != nil {
				return err
			}
			if p.eat("break") {
				if _, err := p.expect(";"); err != nil {
					return err
				}
				cond = c
				cur = post
				continue
			}
			// Not the marker: rewind and parse as a normal if.
			p.pos = save
		}
		if err := p.parseStmt(cur); err != nil {
			return err
		}
	}
	if cond == nil {
		return p.errf(p.cur(), "loop body must contain 'if (cond) break;'")
	}
	out.Stmts = append(out.Stmts, &Loop{Pre: pre, Cond: cond, Post: post})
	return nil
}

// parseFor lowers "for (x = init; cond; x = step) body" to
// x = init; if (cond) { do { body; x = step } while (cond) }.
func (p *parser) parseFor(out *Block) error {
	p.advance() // for
	if _, err := p.expect("("); err != nil {
		return err
	}
	iv, err := p.ident()
	if err != nil {
		return err
	}
	if _, err := p.expect("="); err != nil {
		return err
	}
	init, err := p.parseExpr(out)
	if err != nil {
		return err
	}
	if _, err := p.expect(";"); err != nil {
		return err
	}
	var condHoists Block
	cond, err := p.parseExpr(&condHoists)
	if err != nil {
		return err
	}
	if _, err := p.expect(";"); err != nil {
		return err
	}
	uv, err := p.ident()
	if err != nil {
		return err
	}
	if _, err := p.expect("="); err != nil {
		return err
	}
	var updHoists Block
	upd, err := p.parseExpr(&updHoists)
	if err != nil {
		return err
	}
	if _, err := p.expect(")"); err != nil {
		return err
	}
	body, err := p.parseBlock()
	if err != nil {
		return err
	}
	out.Stmts = append(out.Stmts, &Assign{X: expr.Var(iv), E: init})
	out.Stmts = append(out.Stmts, condHoists.Stmts...)
	condHoists2, cond2 := p.refreshTemps(condHoists.Stmts, cond)
	pre := &Block{Stmts: append(append(append(append([]Stmt{}, body.Stmts...),
		updHoists.Stmts...),
		&Assign{X: expr.Var(uv), E: upd}),
		condHoists2...)}
	lp := &Loop{Pre: pre, Cond: expr.Not(cond2), Post: &Block{}}
	out.Stmts = append(out.Stmts, &If{
		Cond: cond,
		Then: &Block{Stmts: []Stmt{lp}},
		Else: &Block{},
	})
	return nil
}

// parseSimpleStmt handles assignment / heap-write / call / rename
// statements that begin with an identifier.
func (p *parser) parseSimpleStmt(out *Block) error {
	start := posOf(p.cur())
	id, err := p.ident()
	if err != nil {
		return err
	}
	x := expr.Var(id)
	switch {
	case p.eat("<-"):
		y, err := p.ident()
		if err != nil {
			return err
		}
		if _, err := p.expect(";"); err != nil {
			return err
		}
		out.Stmts = append(out.Stmts, &Rename{X: x, Y: expr.Var(y)})
		return nil

	case p.eat("="):
		return p.parseAssignRHS(out, x)

	case p.at("."):
		p.advance()
		f, err := p.ident()
		if err != nil {
			return err
		}
		switch {
		case p.eat("="): // y.f = e
			e, err := p.parseExpr(out)
			if err != nil {
				return err
			}
			if _, err := p.expect(";"); err != nil {
				return err
			}
			out.Stmts = append(out.Stmts, &FieldWrite{Y: x, F: f, E: e, Pos: start})
			return nil
		case p.at("("): // y.m(args);
			args, err := p.parseArgs(out)
			if err != nil {
				return err
			}
			if _, err := p.expect(";"); err != nil {
				return err
			}
			out.Stmts = append(out.Stmts, &Call{Y: x, M: f, Args: args})
			return nil
		}
		return p.errf(p.cur(), "expected '=' or '(' after field selector")

	case p.at("["): // y[z] = e
		p.advance()
		z, err := p.parseExpr(out)
		if err != nil {
			return err
		}
		if _, err := p.expect("]"); err != nil {
			return err
		}
		if _, err := p.expect("="); err != nil {
			return err
		}
		e, err := p.parseExpr(out)
		if err != nil {
			return err
		}
		if _, err := p.expect(";"); err != nil {
			return err
		}
		out.Stmts = append(out.Stmts, &ArrayWrite{Y: x, Z: z, E: e, Pos: start})
		return nil
	}
	return p.errf(p.cur(), "expected assignment or call after %q", id)
}

// parseAssignRHS handles the right-hand side of "x = ...;".
func (p *parser) parseAssignRHS(out *Block, x expr.Var) error {
	switch {
	case p.at("new"):
		p.advance()
		c, err := p.ident()
		if err != nil {
			return err
		}
		if _, err := p.expect(";"); err != nil {
			return err
		}
		out.Stmts = append(out.Stmts, &New{X: x, Class: c})
		return nil

	case p.at("newarray"):
		p.advance()
		sz, err := p.parseExpr(out)
		if err != nil {
			return err
		}
		if _, err := p.expect(";"); err != nil {
			return err
		}
		out.Stmts = append(out.Stmts, &NewArray{X: x, Size: sz})
		return nil

	case p.at("fork"):
		p.advance()
		y, err := p.ident()
		if err != nil {
			return err
		}
		if _, err := p.expect("."); err != nil {
			return err
		}
		m, err := p.ident()
		if err != nil {
			return err
		}
		args, err := p.parseArgs(out)
		if err != nil {
			return err
		}
		if _, err := p.expect(";"); err != nil {
			return err
		}
		out.Stmts = append(out.Stmts, &Fork{X: x, Y: expr.Var(y), M: m, Args: args})
		return nil
	}

	// Method call "x = y.m(args);"?
	if p.cur().Kind == tokIdent && p.peek().Kind == tokPunct && p.peek().Text == "." {
		// Lookahead for "ident . ident (".
		save := p.pos
		y, _ := p.ident()
		p.advance() // '.'
		if p.cur().Kind == tokIdent {
			m, _ := p.ident()
			if p.at("(") {
				args, err := p.parseArgs(out)
				if err != nil {
					return err
				}
				if _, err := p.expect(";"); err != nil {
					return err
				}
				out.Stmts = append(out.Stmts, &Call{X: x, Y: expr.Var(y), M: m, Args: args})
				return nil
			}
		}
		p.pos = save
	}

	before := len(out.Stmts)
	e, err := p.parseExpr(out)
	if err != nil {
		return err
	}
	if _, err := p.expect(";"); err != nil {
		return err
	}
	// If the expression is exactly one hoisted heap read, retarget the
	// read to x instead of copying through a temp.
	if vr, ok := e.(expr.VarRef); ok && len(out.Stmts) == before+1 {
		switch last := out.Stmts[before].(type) {
		case *FieldRead:
			if last.X == vr.Name && isTemp(vr.Name) {
				last.X = x
				return nil
			}
		case *ArrayRead:
			if last.X == vr.Name && isTemp(vr.Name) {
				last.X = x
				return nil
			}
		}
	}
	out.Stmts = append(out.Stmts, &Assign{X: x, E: e})
	return nil
}

func isTemp(v expr.Var) bool { return len(v) > 0 && v[0] == '$' }

func (p *parser) parseArgs(out *Block) ([]expr.Expr, error) {
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	var args []expr.Expr
	for !p.eat(")") {
		e, err := p.parseExpr(out)
		if err != nil {
			return nil, err
		}
		args = append(args, e)
		if !p.eat(",") && !p.at(")") {
			return nil, p.errf(p.cur(), "expected ',' or ')' in argument list")
		}
	}
	return args, nil
}

// ---------------------------------------------------------------------------
// Check items (golden-test syntax)
// ---------------------------------------------------------------------------

func (p *parser) parseCheckItem() (CheckItem, error) {
	kw := posOf(p.cur())
	var kind AccessKind
	switch {
	case p.eat("read"):
		kind = Read
	case p.eat("write"):
		kind = Write
	default:
		return CheckItem{}, p.errf(p.cur(), "expected 'read' or 'write' in check")
	}
	if _, err := p.expect("("); err != nil {
		return CheckItem{}, err
	}
	base, err := p.ident()
	if err != nil {
		return CheckItem{}, err
	}
	var path expr.Path
	switch {
	case p.eat("."):
		var fields []string
		for {
			f, err := p.ident()
			if err != nil {
				return CheckItem{}, err
			}
			fields = append(fields, f)
			if !p.eat("/") {
				break
			}
		}
		path = expr.NewFieldPath(expr.Var(base), fields...)
	case p.eat("["):
		lo, err := p.parseExpr(nil)
		if err != nil {
			return CheckItem{}, err
		}
		r := expr.Singleton(lo)
		if p.eat("..") {
			hi, err := p.parseExpr(nil)
			if err != nil {
				return CheckItem{}, err
			}
			r = expr.Contiguous(lo, hi)
			if p.eat(":") {
				st, err := p.parseExpr(nil)
				if err != nil {
					return CheckItem{}, err
				}
				r.Step = st
			}
		}
		if _, err := p.expect("]"); err != nil {
			return CheckItem{}, err
		}
		path = expr.ArrayPath{Base: expr.Var(base), Range: r}
	default:
		return CheckItem{}, p.errf(p.cur(), "expected '.' or '[' in check path")
	}
	if _, err := p.expect(")"); err != nil {
		return CheckItem{}, err
	}
	return CheckItem{Kind: kind, Path: path, Positions: []Pos{kw}}, nil
}

// ---------------------------------------------------------------------------
// Expressions (with heap-read hoisting)
// ---------------------------------------------------------------------------

// parseExpr parses an expression, hoisting heap reads into out as
// FieldRead/ArrayRead statements on fresh temporaries.  out == nil means
// heap reads are forbidden (check-path positions).
func (p *parser) parseExpr(out *Block) (expr.Expr, error) { return p.parseOr(out) }

// nest enters one more level of nesting at token t, counted in depth,
// and fails past MaxNesting; the caller decrements depth on the way out.
func (p *parser) nest(depth *int, t token, what string) error {
	if *depth++; *depth > MaxNesting {
		return p.errf(t, "%s nested deeper than %d", what, MaxNesting)
	}
	return nil
}

func (p *parser) parseOr(out *Block) (expr.Expr, error) {
	l, err := p.parseAnd(out)
	if err != nil {
		return nil, err
	}
	for p.eat("||") {
		r, err := p.parseAnd(out)
		if err != nil {
			return nil, err
		}
		l = expr.Bin(expr.OpOr, l, r)
	}
	return l, nil
}

func (p *parser) parseAnd(out *Block) (expr.Expr, error) {
	l, err := p.parseCmp(out)
	if err != nil {
		return nil, err
	}
	for p.eat("&&") {
		r, err := p.parseCmp(out)
		if err != nil {
			return nil, err
		}
		l = expr.Bin(expr.OpAnd, l, r)
	}
	return l, nil
}

var cmpOps = map[string]expr.Op{
	"==": expr.OpEq, "!=": expr.OpNe, "<": expr.OpLt,
	"<=": expr.OpLe, ">": expr.OpGt, ">=": expr.OpGe,
}

func (p *parser) parseCmp(out *Block) (expr.Expr, error) {
	l, err := p.parseAdd(out)
	if err != nil {
		return nil, err
	}
	if p.cur().Kind == tokPunct {
		if op, ok := cmpOps[p.cur().Text]; ok {
			p.advance()
			r, err := p.parseAdd(out)
			if err != nil {
				return nil, err
			}
			return expr.Bin(op, l, r), nil
		}
	}
	return l, nil
}

func (p *parser) parseAdd(out *Block) (expr.Expr, error) {
	l, err := p.parseMul(out)
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.eat("+"):
			r, err := p.parseMul(out)
			if err != nil {
				return nil, err
			}
			l = expr.Add(l, r)
		case p.at("-") && p.peek().Text != "-":
			p.advance()
			r, err := p.parseMul(out)
			if err != nil {
				return nil, err
			}
			l = expr.Sub(l, r)
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMul(out *Block) (expr.Expr, error) {
	l, err := p.parseUnary(out)
	if err != nil {
		return nil, err
	}
	for {
		var op expr.Op
		switch {
		case p.eat("*"):
			op = expr.OpMul
		case p.eat("/"):
			op = expr.OpDiv
		case p.eat("%"):
			op = expr.OpMod
		default:
			return l, nil
		}
		r, err := p.parseUnary(out)
		if err != nil {
			return nil, err
		}
		l = expr.Bin(op, l, r)
	}
}

func (p *parser) parseUnary(out *Block) (expr.Expr, error) {
	t := p.cur()
	switch {
	case p.eat("!"):
		if err := p.nest(&p.exprDepth, t, "expressions"); err != nil {
			return nil, err
		}
		x, err := p.parseUnary(out)
		p.exprDepth--
		if err != nil {
			return nil, err
		}
		return expr.Not(x), nil
	case p.eat("-"):
		if err := p.nest(&p.exprDepth, t, "expressions"); err != nil {
			return nil, err
		}
		x, err := p.parseUnary(out)
		p.exprDepth--
		if err != nil {
			return nil, err
		}
		if lit, ok := x.(expr.IntLit); ok {
			return expr.I(-lit.Val), nil
		}
		return expr.Unary{Op: expr.OpNeg, X: x}, nil
	}
	return p.parsePostfix(out)
}

func (p *parser) parsePostfix(out *Block) (expr.Expr, error) {
	t := p.cur()
	var e expr.Expr
	switch {
	case t.Kind == tokInt:
		p.advance()
		e = expr.I(t.Int)
	case p.at("true"):
		p.advance()
		e = expr.B(true)
	case p.at("false"):
		p.advance()
		e = expr.B(false)
	case p.at("alen"):
		p.advance()
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		a, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		e = expr.LenOf{Base: expr.Var(a)}
	case p.at("("):
		if err := p.nest(&p.exprDepth, p.advance(), "expressions"); err != nil {
			return nil, err
		}
		inner, err := p.parseExpr(out)
		p.exprDepth--
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		e = inner
	case t.Kind == tokIdent:
		p.advance()
		e = expr.V(expr.Var(t.Text))
	default:
		return nil, p.errf(t, "expected expression, found %s", t)
	}

	// Postfix heap selections: hoist each into a fresh temp read.
	for {
		switch {
		case p.at(".") && p.peek().Kind == tokIdent:
			base, ok := e.(expr.VarRef)
			if !ok {
				return nil, p.errf(p.cur(), "field selection requires a variable base")
			}
			pos := posOf(p.cur())
			p.advance()
			f, err := p.ident()
			if err != nil {
				return nil, err
			}
			if out == nil {
				return nil, p.errf(p.cur(), "heap read not allowed here")
			}
			tmp := p.fresh()
			out.Stmts = append(out.Stmts, &FieldRead{X: tmp, Y: base.Name, F: f, Pos: pos})
			e = expr.V(tmp)
		case p.at("["):
			base, ok := e.(expr.VarRef)
			if !ok {
				return nil, p.errf(p.cur(), "array indexing requires a variable base")
			}
			pos := posOf(p.cur())
			if err := p.nest(&p.exprDepth, p.advance(), "expressions"); err != nil {
				return nil, err
			}
			idx, err := p.parseExpr(out)
			p.exprDepth--
			if err != nil {
				return nil, err
			}
			if _, err := p.expect("]"); err != nil {
				return nil, err
			}
			if out == nil {
				return nil, p.errf(p.cur(), "heap read not allowed here")
			}
			tmp := p.fresh()
			out.Stmts = append(out.Stmts, &ArrayRead{X: tmp, Y: base.Name, Z: idx, Pos: pos})
			e = expr.V(tmp)
		default:
			return e, nil
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func posOf(t token) Pos { return Pos{Line: t.Line, Col: t.Col} }
