// Package expr implements the small predicate language used by PARTITION
// TABLE and row filters:
//
//	predicate := term { OR term }
//	term      := factor { AND factor }
//	factor    := NOT factor | '(' predicate ')' | comparison
//	comparison:= column op literal
//	op        := = | != | <> | < | <= | > | >=
//
// Column names are bare identifiers; literals are single-quoted strings or
// bare numbers/identifiers. Comparisons follow one total order over all
// values (see Compare): 64-bit integers order numerically and before
// every non-integer value; non-integers order lexicographically. The same
// order drives ORDER BY and MIN/MAX in the query layer, so predicates and
// sorting can never disagree about which of two values is smaller.
//
// Predicates evaluate to WAH bitmaps over a table's rows. Evaluation
// visits each distinct value once per referenced column (a bitmap-index
// scan), never each row.
package expr

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"cods/internal/colstore"
	"cods/internal/wah"
)

// Node is a parsed predicate.
type Node interface {
	// Eval returns the bitmap of rows satisfying the predicate.
	// Comparison leaves fan their per-distinct-value predicate calls and
	// OR accumulation out over a worker pool.
	Eval(t *colstore.Table) (*wah.Bitmap, error)
	// EvalRow evaluates the predicate against a single row presented as a
	// column lookup (value, ok). It exists for data that has no bitmap
	// index yet — the DML delta overlay's appended rows — and agrees
	// exactly with the bitmap evaluation. An unknown column is an error.
	EvalRow(get func(column string) (string, bool)) (bool, error)
	// Columns appends the referenced column names to dst.
	Columns(dst []string) []string
	String() string
}

// Op is a comparison operator.
type Op int

// Comparison operators.
const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

var opNames = map[Op]string{OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">="}

func (o Op) String() string { return opNames[o] }

// Compare totally orders two values: -1, 0 or 1 as a sorts before, equal
// to, or after b. Values that parse as 64-bit integers order numerically
// and sort before every non-integer value; non-integers order
// lexicographically. Ranking integers as a block (instead of comparing a
// number lexicographically against a non-number) is what makes the order
// transitive — "9" < "10" numeric, "10" < "10x", and also "9" < "10x" —
// so it is a strict weak ordering fit for sorting. Every comparison in
// the system goes through this one order: predicates here, ORDER BY and
// MIN/MAX in colquery, RangeScan in the storage layer (which hosts the
// implementation — see colstore.CompareValues).
func Compare(a, b string) int {
	return colstore.CompareValues(a, b)
}

// Compare applies the operator to a column value and a literal under the
// package's total order (see the Compare function).
func (o Op) Compare(value, literal string) bool {
	return o.holds(Compare(value, literal))
}

func (o Op) holds(c int) bool {
	switch o {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	}
	return false
}

// Comparison is a leaf predicate `Column Op Literal`.
type Comparison struct {
	Column  string
	Op      Op
	Literal string
}

// Eval implements Node. Evaluation is segment-native: per-distinct-value
// predicate scans run segment by segment so a point predicate on a huge
// segmented table never stitches a whole-table column. Equality against a
// non-integer literal short-circuits to a dictionary probe per segment;
// integer literals cannot (numeric equality admits distinct spellings,
// '07' = '7', which a dictionary lookup would miss — the same exclusion
// delta applies to exact-match key probes).
func (c *Comparison) Eval(t *colstore.Table) (*wah.Bitmap, error) {
	if c.Op == OpEq {
		if _, err := strconv.ParseInt(c.Literal, 10, 64); err != nil {
			return t.EqBitmap(c.Column, c.Literal)
		}
	}
	return t.ScanWhereBitmap(c.Column, func(v string) bool { return c.Op.Compare(v, c.Literal) })
}

// EvalRow implements Node.
func (c *Comparison) EvalRow(get func(string) (string, bool)) (bool, error) {
	v, ok := get(c.Column)
	if !ok {
		return false, fmt.Errorf("expr: no column %q", c.Column)
	}
	return c.Op.Compare(v, c.Literal), nil
}

// Columns implements Node.
func (c *Comparison) Columns(dst []string) []string { return append(dst, c.Column) }

func (c *Comparison) String() string {
	return fmt.Sprintf("%s %s '%s'", c.Column, c.Op, c.Literal)
}

// Logical is an AND/OR combination of two predicates.
type Logical struct {
	IsAnd bool
	L, R  Node
}

// Eval implements Node. The subtrees evaluate one after the other: each
// leaf fans out over its own distinct values, which is where the
// per-value work lives.
func (l *Logical) Eval(t *colstore.Table) (*wah.Bitmap, error) {
	lb, err := l.L.Eval(t)
	if err != nil {
		return nil, err
	}
	rb, err := l.R.Eval(t)
	if err != nil {
		return nil, err
	}
	if l.IsAnd {
		return wah.And(lb, rb), nil
	}
	return wah.Or(lb, rb), nil
}

// EvalRow implements Node. Both sides evaluate even when the left one
// already decides the result, so an unknown column in either operand
// surfaces as an error regardless of the row's values — matching the
// bitmap evaluation, which always resolves every referenced column.
func (l *Logical) EvalRow(get func(string) (string, bool)) (bool, error) {
	lv, err := l.L.EvalRow(get)
	if err != nil {
		return false, err
	}
	rv, err := l.R.EvalRow(get)
	if err != nil {
		return false, err
	}
	if l.IsAnd {
		return lv && rv, nil
	}
	return lv || rv, nil
}

// Columns implements Node.
func (l *Logical) Columns(dst []string) []string { return l.R.Columns(l.L.Columns(dst)) }

func (l *Logical) String() string {
	op := "OR"
	if l.IsAnd {
		op = "AND"
	}
	return fmt.Sprintf("(%s %s %s)", l.L, op, l.R)
}

// Not negates a predicate.
type Not struct{ X Node }

// Eval implements Node.
func (n *Not) Eval(t *colstore.Table) (*wah.Bitmap, error) {
	b, err := n.X.Eval(t)
	if err != nil {
		return nil, err
	}
	return b.Not(), nil
}

// EvalRow implements Node.
func (n *Not) EvalRow(get func(string) (string, bool)) (bool, error) {
	v, err := n.X.EvalRow(get)
	if err != nil {
		return false, err
	}
	return !v, nil
}

// Columns implements Node.
func (n *Not) Columns(dst []string) []string { return n.X.Columns(dst) }

func (n *Not) String() string { return fmt.Sprintf("NOT %s", n.X) }

// Parse parses a predicate expression.
func Parse(input string) (Node, error) {
	p := &parser{toks: lex(input), input: input}
	node, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.toks) {
		return nil, fmt.Errorf("expr: trailing input at %q", p.toks[p.pos].text)
	}
	return node, nil
}

type tokKind int

const (
	tokIdent tokKind = iota
	tokString
	tokOp
	tokLParen
	tokRParen
)

type token struct {
	kind tokKind
	text string
}

func lex(s string) []token {
	var toks []token
	i := 0
	for i < len(s) {
		r := rune(s[i])
		switch {
		case unicode.IsSpace(r):
			i++
		case r == '(':
			toks = append(toks, token{tokLParen, "("})
			i++
		case r == ')':
			toks = append(toks, token{tokRParen, ")"})
			i++
		case r == '\'':
			j := i + 1
			var sb strings.Builder
			for j < len(s) {
				if s[j] == '\'' {
					if j+1 < len(s) && s[j+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						j += 2
						continue
					}
					break
				}
				sb.WriteByte(s[j])
				j++
			}
			toks = append(toks, token{tokString, sb.String()})
			i = j + 1
		case strings.ContainsRune("=!<>", r):
			j := i + 1
			if j < len(s) && (s[j] == '=' || (s[i] == '<' && s[j] == '>')) {
				j++
			}
			toks = append(toks, token{tokOp, s[i:j]})
			i = j
		default:
			j := i
			for j < len(s) && !unicode.IsSpace(rune(s[j])) && !strings.ContainsRune("()=!<>'", rune(s[j])) {
				j++
			}
			toks = append(toks, token{tokIdent, s[i:j]})
			i = j
		}
	}
	return toks
}

type parser struct {
	toks  []token
	pos   int
	input string
}

func (p *parser) peek() (token, bool) {
	if p.pos < len(p.toks) {
		return p.toks[p.pos], true
	}
	return token{}, false
}

func (p *parser) parseOr() (Node, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for {
		t, ok := p.peek()
		if !ok || t.kind != tokIdent || !strings.EqualFold(t.text, "OR") {
			return left, nil
		}
		p.pos++
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Logical{IsAnd: false, L: left, R: right}
	}
}

func (p *parser) parseAnd() (Node, error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for {
		t, ok := p.peek()
		if !ok || t.kind != tokIdent || !strings.EqualFold(t.text, "AND") {
			return left, nil
		}
		p.pos++
		right, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		left = &Logical{IsAnd: true, L: left, R: right}
	}
}

func (p *parser) parseFactor() (Node, error) {
	t, ok := p.peek()
	if !ok {
		return nil, fmt.Errorf("expr: unexpected end of input in %q", p.input)
	}
	if t.kind == tokIdent && strings.EqualFold(t.text, "NOT") {
		p.pos++
		x, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return &Not{X: x}, nil
	}
	if t.kind == tokLParen {
		p.pos++
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		t, ok = p.peek()
		if !ok || t.kind != tokRParen {
			return nil, fmt.Errorf("expr: missing ')' in %q", p.input)
		}
		p.pos++
		return inner, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Node, error) {
	col, ok := p.peek()
	if !ok || col.kind != tokIdent {
		return nil, fmt.Errorf("expr: expected column name, got %q", col.text)
	}
	p.pos++
	opTok, ok := p.peek()
	if !ok || opTok.kind != tokOp {
		return nil, fmt.Errorf("expr: expected operator after %q", col.text)
	}
	p.pos++
	var op Op
	switch opTok.text {
	case "=", "==":
		op = OpEq
	case "!=", "<>":
		op = OpNe
	case "<":
		op = OpLt
	case "<=":
		op = OpLe
	case ">":
		op = OpGt
	case ">=":
		op = OpGe
	default:
		return nil, fmt.Errorf("expr: unknown operator %q", opTok.text)
	}
	lit, ok := p.peek()
	if !ok || (lit.kind != tokIdent && lit.kind != tokString) {
		return nil, fmt.Errorf("expr: expected literal after %q %s", col.text, opTok.text)
	}
	p.pos++
	return &Comparison{Column: col.text, Op: op, Literal: lit.text}, nil
}
