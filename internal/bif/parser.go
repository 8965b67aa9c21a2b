package bif

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"evprop/internal/bayesnet"
)

// Document is the parsed form of a BIF file, preserving declaration order
// and state names.
type Document struct {
	Name      string
	Variables []Variable
	Blocks    []ProbBlock
}

// Variable is one `variable` declaration.
type Variable struct {
	Name   string
	States []string
}

// ProbBlock is one `probability` declaration. Exactly one of Table or Rows
// content is typically present; both may combine with Default.
type ProbBlock struct {
	Child   string
	Parents []string
	// Table is the flattened CPT: parent configurations vary slowest (first
	// parent slowest of all) and the child's state fastest.
	Table []float64
	// Rows maps one parent configuration (by state names, in parent order)
	// to the child's distribution.
	Rows []Row
	// Default is the child distribution for parent configurations not
	// covered by Rows (nil if absent).
	Default []float64
}

// Row is one `(states…) p, p, …;` line.
type Row struct {
	ParentStates []string
	Values       []float64
}

// parser pulls tokens from the lexer one at a time, holding one of
// lookahead. The lexer's first error ends the stream: the parser then sees
// end of input, and ParseString reports the lexer's error in place of
// whatever the parser made of it.
type parser struct {
	lex lexer
	tok token // the next token, not yet consumed
	err error // the lexer's error, nil while it has none

	// Scratch reused from one declaration to the next: a declaration's
	// strings and numbers are gathered here and copied out once, into
	// slices of their final size.
	strs []string
	vals []float64
	rows []rowSpan
}

// rowSpan locates one `(states…) values;` row in the parser's scratch:
// strs[s0:s1] are its parent states and vals[v0:v1] its values.
type rowSpan struct{ s0, s1, v0, v1 int }

// advance reads the lookahead token.
func (p *parser) advance() {
	if p.err != nil {
		return
	}
	t, err := p.lex.next()
	if err != nil {
		p.err = err
		t = token{kind: tokEOF, line: p.lex.line}
	}
	p.tok = t
}

func (p *parser) peek() token { return p.tok }

func (p *parser) next() token {
	t := p.tok
	if t.kind != tokEOF {
		p.advance()
	}
	return t
}

func (p *parser) errorf(t token, format string, args ...any) error {
	return fmt.Errorf("bif: line %d: %s", t.line, fmt.Sprintf(format, args...))
}

func (p *parser) expectPunct(s string) error {
	t := p.next()
	if t.kind != tokPunct || t.text != s {
		return p.errorf(t, "expected %q, found %s", s, t)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.next()
	if t.kind != tokIdent {
		return "", p.errorf(t, "expected identifier, found %s", t)
	}
	return t.text, nil
}

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokIdent || t.text != kw {
		return p.errorf(t, "expected %q, found %s", kw, t)
	}
	return nil
}

func (p *parser) atPunct(s string) bool {
	t := p.peek()
	return t.kind == tokPunct && t.text == s
}

// number parses one float literal.
func (p *parser) number() (float64, error) {
	t := p.next()
	if t.kind != tokNumber {
		return 0, p.errorf(t, "expected number, found %s", t)
	}
	v, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return 0, p.errorf(t, "bad number %q: %v", t.text, err)
	}
	return v, nil
}

// numberList parses `v, v, … ;` (commas optional, as in repository files)
// onto the end of p.vals and returns where the list starts there.
func (p *parser) numberList() (int, error) {
	start := len(p.vals)
	for {
		v, err := p.number()
		if err != nil {
			return 0, err
		}
		p.vals = append(p.vals, v)
		if p.atPunct(",") {
			p.next()
			continue
		}
		if p.atPunct(";") {
			p.next()
			return start, nil
		}
		if t := p.peek(); t.kind != tokNumber {
			return 0, p.errorf(t, "expected ',', ';' or number in value list, found %s", t)
		}
	}
}

// skipProperty consumes `property … ;`.
func (p *parser) skipProperty() error {
	for {
		t := p.next()
		if t.kind == tokEOF {
			return p.errorf(t, "unterminated property")
		}
		if t.kind == tokPunct && t.text == ";" {
			return nil
		}
	}
}

// Parse reads a BIF document from r.
func Parse(r io.Reader) (*Document, error) {
	var src strings.Builder
	if _, err := io.Copy(&src, r); err != nil {
		return nil, fmt.Errorf("bif: %w", err)
	}
	return ParseString(src.String())
}

// ParseString reads a BIF document from a string, in one pass: the parser
// pulls each token from the lexer as it needs it. Input the lexer refuses is
// refused for that wherever the parser stops: when the parser fails first,
// the lexer still reads the rest of the input, and its error, if it meets
// one, is the one reported.
func ParseString(src string) (*Document, error) {
	p := &parser{lex: lexer{src: src, line: 1}}
	p.advance()
	doc, err := p.document()
	for err != nil && p.err == nil && p.tok.kind != tokEOF {
		p.advance()
	}
	if p.err != nil {
		return nil, p.err
	}
	if err != nil {
		return nil, err
	}
	return doc, nil
}

func (p *parser) document() (*Document, error) {
	doc := &Document{}
	for {
		t := p.peek()
		if t.kind == tokEOF {
			break
		}
		if t.kind != tokIdent {
			return nil, p.errorf(t, "expected declaration, found %s", t)
		}
		switch t.text {
		case "network":
			if err := p.parseNetwork(doc); err != nil {
				return nil, err
			}
		case "variable":
			if err := p.parseVariable(doc); err != nil {
				return nil, err
			}
		case "probability":
			if err := p.parseProbability(doc); err != nil {
				return nil, err
			}
		default:
			return nil, p.errorf(t, "unknown declaration %q", t.text)
		}
	}
	return doc, nil
}

func (p *parser) parseNetwork(doc *Document) error {
	p.next() // network
	t := p.next()
	switch t.kind {
	case tokIdent, tokString:
		doc.Name = t.text
	default:
		return p.errorf(t, "expected network name, found %s", t)
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	for !p.atPunct("}") {
		t := p.next()
		if t.kind == tokEOF {
			return p.errorf(t, "unterminated network block")
		}
		if t.kind == tokIdent && t.text == "property" {
			if err := p.skipProperty(); err != nil {
				return err
			}
		}
	}
	return p.expectPunct("}")
}

func (p *parser) parseVariable(doc *Document) error {
	p.next() // variable
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	v := Variable{Name: name}
	for !p.atPunct("}") {
		t := p.next()
		switch {
		case t.kind == tokEOF:
			return p.errorf(t, "unterminated variable block")
		case t.kind == tokIdent && t.text == "property":
			if err := p.skipProperty(); err != nil {
				return err
			}
		case t.kind == tokIdent && t.text == "type":
			if err := p.expectKeyword("discrete"); err != nil {
				return err
			}
			if err := p.expectPunct("["); err != nil {
				return err
			}
			n, err := p.number()
			if err != nil {
				return err
			}
			if err := p.expectPunct("]"); err != nil {
				return err
			}
			if err := p.expectPunct("{"); err != nil {
				return err
			}
			p.strs = append(p.strs[:0], v.States...)
			for !p.atPunct("}") {
				st := p.next()
				if st.kind != tokIdent && st.kind != tokNumber && st.kind != tokString {
					return p.errorf(st, "expected state name, found %s", st)
				}
				p.strs = append(p.strs, st.text)
				if p.atPunct(",") {
					p.next()
				}
			}
			if len(p.strs) > 0 {
				v.States = append(make([]string, 0, len(p.strs)), p.strs...)
			}
			if err := p.expectPunct("}"); err != nil {
				return err
			}
			if err := p.expectPunct(";"); err != nil {
				return err
			}
			if len(v.States) != int(n) {
				return p.errorf(t, "variable %q declares %d states but lists %d", name, int(n), len(v.States))
			}
		default:
			return p.errorf(t, "unexpected %s in variable block", t)
		}
	}
	if err := p.expectPunct("}"); err != nil {
		return err
	}
	if len(v.States) == 0 {
		return fmt.Errorf("bif: variable %q has no type declaration", name)
	}
	doc.Variables = append(doc.Variables, v)
	return nil
}

// parseProbability gathers the block's parents, parent states and values in
// the parser's scratch and copies them out once at its end: one slice of
// strings, one of values and one of rows per block, whatever its row count.
func (p *parser) parseProbability(doc *Document) error {
	p.next() // probability
	if err := p.expectPunct("("); err != nil {
		return err
	}
	child, err := p.expectIdent()
	if err != nil {
		return err
	}
	p.strs, p.vals, p.rows = p.strs[:0], p.vals[:0], p.rows[:0]
	if p.atPunct("|") {
		p.next()
		for {
			parent, err := p.expectIdent()
			if err != nil {
				return err
			}
			p.strs = append(p.strs, parent)
			if p.atPunct(",") {
				p.next()
				continue
			}
			break
		}
	}
	parents := len(p.strs)
	if err := p.expectPunct(")"); err != nil {
		return err
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	// Where the last `table` and `default` lists lie in p.vals ({-1, -1} for
	// none).
	table, def := [2]int{-1, -1}, [2]int{-1, -1}
	for !p.atPunct("}") {
		t := p.peek()
		switch {
		case t.kind == tokEOF:
			return p.errorf(t, "unterminated probability block")
		case t.kind == tokIdent && t.text == "property":
			p.next()
			if err := p.skipProperty(); err != nil {
				return err
			}
		case t.kind == tokIdent && (t.text == "table" || t.text == "default"):
			p.next()
			start, err := p.numberList()
			if err != nil {
				return err
			}
			if t.text == "table" {
				table = [2]int{start, len(p.vals)}
			} else {
				def = [2]int{start, len(p.vals)}
			}
		case t.kind == tokPunct && t.text == "(":
			p.next()
			row := rowSpan{s0: len(p.strs)}
			for {
				st := p.next()
				if st.kind != tokIdent && st.kind != tokNumber && st.kind != tokString {
					return p.errorf(st, "expected parent state, found %s", st)
				}
				p.strs = append(p.strs, st.text)
				if p.atPunct(",") {
					p.next()
					continue
				}
				break
			}
			row.s1 = len(p.strs)
			if err := p.expectPunct(")"); err != nil {
				return err
			}
			if row.v0, err = p.numberList(); err != nil {
				return err
			}
			row.v1 = len(p.vals)
			p.rows = append(p.rows, row)
		default:
			return p.errorf(t, "unexpected %s in probability block", t)
		}
	}
	if err := p.expectPunct("}"); err != nil {
		return err
	}
	strs := append([]string(nil), p.strs...)
	vals := append([]float64(nil), p.vals...)
	b := ProbBlock{Child: child}
	if parents > 0 {
		b.Parents = strs[:parents:parents]
	}
	if table[0] >= 0 {
		b.Table = vals[table[0]:table[1]:table[1]]
	}
	if def[0] >= 0 {
		b.Default = vals[def[0]:def[1]:def[1]]
	}
	if len(p.rows) > 0 {
		b.Rows = make([]Row, len(p.rows))
		for i, r := range p.rows {
			b.Rows[i] = Row{ParentStates: strs[r.s0:r.s1:r.s1], Values: vals[r.v0:r.v1:r.v1]}
		}
	}
	doc.Blocks = append(doc.Blocks, b)
	return nil
}

// ToNetwork converts the document into a Bayesian network, returning the
// network and each variable's state names (by variable name). Variables are
// topologically reordered as needed so parents precede children.
func (doc *Document) ToNetwork() (*bayesnet.Network, map[string][]string, error) {
	varIdx := make(map[string]int, len(doc.Variables))
	names := 0
	for i, v := range doc.Variables {
		if _, dup := varIdx[v.Name]; dup {
			return nil, nil, fmt.Errorf("bif: variable %q declared twice", v.Name)
		}
		varIdx[v.Name] = i
		names += len(v.States)
	}
	// blockOf[i] is variable i's probability block, parentIdx[i] its parents'
	// variable indices.
	blockOf := make([]*ProbBlock, len(doc.Variables))
	parentIdx := make([][]int, len(doc.Variables))
	for i := range doc.Blocks {
		b := &doc.Blocks[i]
		child, ok := varIdx[b.Child]
		if !ok {
			return nil, nil, fmt.Errorf("bif: probability block for undeclared variable %q", b.Child)
		}
		if blockOf[child] != nil {
			return nil, nil, fmt.Errorf("bif: variable %q has two probability blocks", b.Child)
		}
		parentIdx[child] = make([]int, len(b.Parents))
		for k, parent := range b.Parents {
			j, ok := varIdx[parent]
			if !ok {
				return nil, nil, fmt.Errorf("bif: variable %q has undeclared parent %q", b.Child, parent)
			}
			parentIdx[child][k] = j
		}
		blockOf[child] = b
	}
	for i, v := range doc.Variables {
		if blockOf[i] == nil {
			return nil, nil, fmt.Errorf("bif: variable %q has no probability block", v.Name)
		}
	}

	order, err := topoOrder(parentIdx)
	if err != nil {
		return nil, nil, err
	}

	net := bayesnet.New()
	states := make(map[string][]string, len(doc.Variables))
	stateNames := make([]string, 0, names)
	// AddNode keeps neither its parents nor its distribution, so one buffer
	// of each serves every variable.
	var parents []int
	var dist []float64
	var set []bool
	for _, i := range order {
		v := doc.Variables[i]
		b := blockOf[i]
		d, err := doc.flatten(v, b, parentIdx[i], &dist, &set)
		if err != nil {
			return nil, nil, err
		}
		parents = parents[:0]
		for _, pn := range b.Parents {
			parents = append(parents, net.ID(pn))
		}
		if _, err := net.AddNode(v.Name, len(v.States), parents, d); err != nil {
			return nil, nil, fmt.Errorf("bif: %w", err)
		}
		start := len(stateNames)
		stateNames = append(stateNames, v.States...)
		states[v.Name] = stateNames[start:len(stateNames):len(stateNames)]
	}
	if err := net.Validate(); err != nil {
		return nil, nil, fmt.Errorf("bif: %w", err)
	}
	return net, states, nil
}

// topoOrder sorts variable indices parents-before-children, preserving
// declaration order among independent variables (stable Kahn); parents[i]
// lists variable i's parents.
func topoOrder(parents [][]int) ([]int, error) {
	indeg := make([]int, len(parents))
	children := make([][]int, len(parents))
	for i, ps := range parents {
		indeg[i] = len(ps)
		for _, p := range ps {
			children[p] = append(children[p], i)
		}
	}
	var queue []int
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	var order []int
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		order = append(order, i)
		for _, c := range children[i] {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if len(order) != len(parents) {
		return nil, fmt.Errorf("bif: probability blocks form a cycle")
	}
	return order, nil
}

// flatten produces the CPT in bayesnet.AddNode layout (parents in declared
// order slowest-first, child fastest) from whichever forms the block uses.
// parents are the block's parents' variable indices. A table is returned as
// the block holds it; rows are laid out in *dist, which flatten grows as
// needed and the caller reuses, as it does *set.
func (doc *Document) flatten(v Variable, b *ProbBlock, parents []int, dist *[]float64, set *[]bool) ([]float64, error) {
	childCard := len(v.States)
	rows := 1
	for _, pi := range parents {
		rows *= len(doc.Variables[pi].States)
	}
	want := rows * childCard

	if b.Table != nil {
		if len(b.Rows) > 0 {
			return nil, fmt.Errorf("bif: variable %q mixes table and row entries", v.Name)
		}
		if len(b.Table) != want {
			return nil, fmt.Errorf("bif: variable %q table has %d values, want %d", v.Name, len(b.Table), want)
		}
		return b.Table, nil
	}

	if cap(*dist) < want {
		*dist = make([]float64, want)
	}
	if cap(*set) < rows {
		*set = make([]bool, rows)
	}
	out, seen := (*dist)[:want], (*set)[:rows]
	clear(seen)
	for _, row := range b.Rows {
		if len(row.ParentStates) != len(b.Parents) {
			return nil, fmt.Errorf("bif: variable %q row names %d parent states, want %d",
				v.Name, len(row.ParentStates), len(b.Parents))
		}
		idx := 0
		for i, stateName := range row.ParentStates {
			ps := doc.Variables[parents[i]].States
			s := stateIndex(ps, stateName)
			if s < 0 {
				return nil, fmt.Errorf("bif: variable %q row: parent %q has no state %q",
					v.Name, b.Parents[i], stateName)
			}
			idx = idx*len(ps) + s
		}
		if len(row.Values) != childCard {
			return nil, fmt.Errorf("bif: variable %q row lists %d values, want %d",
				v.Name, len(row.Values), childCard)
		}
		if seen[idx] {
			return nil, fmt.Errorf("bif: variable %q row (%v) given twice", v.Name, row.ParentStates)
		}
		seen[idx] = true
		copy(out[idx*childCard:], row.Values)
	}
	for r := 0; r < rows; r++ {
		if seen[r] {
			continue
		}
		if b.Default == nil {
			return nil, fmt.Errorf("bif: variable %q missing a row (and no default)", v.Name)
		}
		if len(b.Default) != childCard {
			return nil, fmt.Errorf("bif: variable %q default lists %d values, want %d",
				v.Name, len(b.Default), childCard)
		}
		copy(out[r*childCard:], b.Default)
	}
	return out, nil
}

func stateIndex(states []string, name string) int {
	for i, s := range states {
		if s == name {
			return i
		}
	}
	return -1
}
